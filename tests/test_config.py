"""Config schema: invariant enforcement and YAML loading."""

import dataclasses

import pytest

from stdlens.config import (AttackSpec, ConfigError, DefenseConfig,
                            ExperimentConfig, FederationConfig, TaskConfig,
                            load_config, validate_config)


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    assert validate_config(cfg) is cfg


def test_validation_is_idempotent():
    cfg = ExperimentConfig()
    assert validate_config(validate_config(cfg)) is cfg


def test_too_few_participants_rejected():
    fed = FederationConfig(num_clients=10, participation_fraction=0.1)
    with pytest.raises(ConfigError, match=r"N\*k < 2"):
        validate_config(ExperimentConfig(federation=fed))


def test_malicious_majority_rejected():
    fed = FederationConfig(num_clients=10, malicious_fraction=0.5)
    with pytest.raises(ConfigError, match="m must be < 0.5"):
        validate_config(ExperimentConfig(federation=fed))


def test_fractional_malicious_count_rejected():
    fed = FederationConfig(num_clients=10, malicious_fraction=0.15)
    with pytest.raises(ConfigError, match="integer count"):
        validate_config(ExperimentConfig(federation=fed))


def test_all_violations_reported_at_once():
    fed = FederationConfig(num_clients=10, participation_fraction=0.1,
                           malicious_fraction=0.5)
    with pytest.raises(ConfigError) as exc:
        validate_config(ExperimentConfig(federation=fed))
    assert len(exc.value.violations) >= 2


def test_confidence_level_restricted():
    fed = FederationConfig(confidence_level=0.9)
    with pytest.raises(ConfigError, match="confidence_level"):
        validate_config(ExperimentConfig(federation=fed))


def test_sigma_z_mapping():
    assert FederationConfig(confidence_level=0.68).sigma_z == 1.0
    assert FederationConfig(confidence_level=0.95).sigma_z == 2.0
    assert FederationConfig(confidence_level=0.99).sigma_z == 3.0


def test_attack_class_identity_rejected():
    atk = AttackSpec(poison_type="class", source_class=1, target_class=1)
    with pytest.raises(ConfigError, match="target_class must differ"):
        validate_config(ExperimentConfig(attack=atk))


def test_attack_source_out_of_range_rejected():
    atk = AttackSpec(source_class=7)
    with pytest.raises(ConfigError, match="source_class out of range"):
        validate_config(ExperimentConfig(attack=atk))


def test_defense_name_restricted():
    with pytest.raises(ConfigError, match="defense name"):
        validate_config(ExperimentConfig(defense=DefenseConfig(name="magic")))


def test_temporal_contrast_bounds():
    with pytest.raises(ConfigError, match="temporal_contrast"):
        validate_config(ExperimentConfig(
            defense=DefenseConfig(temporal_contrast=0.0)))


def test_num_malicious_property():
    fed = FederationConfig(num_clients=50, malicious_fraction=0.2)
    assert fed.num_malicious == 10


# -- YAML loading ------------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "federation:\n"
        "  num_clients: 20\n"
        "  rounds: 30\n"
        "  participation_fraction: 0.2\n"
        "  malicious_fraction: 0.2\n"
        "  master_seed: 5\n"
        "task:\n"
        "  num_classes: 3\n"
        "attack:\n"
        "  poison_type: bbox\n"
        "  source_class: 1\n"
        "defense:\n"
        "  name: spatial\n")
    cfg = load_config(path)
    assert cfg.federation.num_clients == 20
    assert cfg.federation.master_seed == 5
    assert cfg.task.num_classes == 3
    assert cfg.attack.poison_type == "bbox"
    assert cfg.defense.name == "spatial"


def test_load_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(path) == ExperimentConfig()


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("federatoin:\n  num_clients: 20\n")
    with pytest.raises(ConfigError, match="unknown top-level"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("federation:\n  num_client: 20\n")
    with pytest.raises(ConfigError, match=r"unknown key\(s\)"):
        load_config(path)


def test_load_config_rejects_invalid_values(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("federation:\n  num_clients: 10\n"
                    "  malicious_fraction: 0.5\n")
    with pytest.raises(ConfigError, match="m must be < 0.5"):
        load_config(path)


def test_configs_are_immutable():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.federation.rounds = 5


def test_removed_defense_keys_are_unknown(tmp_path):
    for key, value in (("clustering", "kmeans"), ("dissim_space", "ssc")):
        path = tmp_path / f"{key}.yaml"
        path.write_text(f"defense:\n  {key}: {value}\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)
