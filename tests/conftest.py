"""Shared fixtures: a desk-scale task and federation config that runs in
well under a second, used by every test that needs a live federation."""

import dataclasses

import pytest

from stdlens.config import (AttackSpec, DefenseConfig, ExperimentConfig,
                            FederationConfig, TaskConfig)


def make_tiny_config() -> ExperimentConfig:
    """10 clients, 10 rounds, 2 malicious; fast enough for CLI round-trips."""
    return ExperimentConfig(
        federation=FederationConfig(
            num_clients=10, rounds=10, participation_fraction=0.4,
            malicious_fraction=0.2, forensic_window=5, master_seed=7),
        task=TaskConfig(num_classes=3, feature_dim=10, num_anchors=2,
                        samples_per_client=12, test_samples=60),
        attack=AttackSpec(poison_type="class", source_class=0, target_class=1),
        defense=DefenseConfig(name="stdlens"),
    )


@pytest.fixture
def tiny_config() -> ExperimentConfig:
    return make_tiny_config()


@pytest.fixture
def tiny_benign_config(tiny_config) -> ExperimentConfig:
    return dataclasses.replace(
        tiny_config, attack=None,
        defense=dataclasses.replace(tiny_config.defense, name="none"))
