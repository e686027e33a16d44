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


REMOVED_KEYS = [
    ("defense", "clustering", "kmeans"),
    ("defense", "dissim_space", "ssc"),
    ("task", "batch_size", 0),
    ("task", "refresh_each_round", "true"),
    ("task", "background_prob", 0.25),
    ("task", "prototype_scale", 2.0),
    ("task", "client_spread", 0.3),
    ("task", "center_jitter", 0.04),
    ("task", "size_jitter", 0.08),
    ("task", "iou_threshold", 0.5),
    ("attack", "shrink_factor", 0.1),
    ("defense", "separation_threshold", 2.0),
    ("defense", "removal_fraction", 0.2),
    ("defense", "temporal_contrast", 0.5),
]


@pytest.mark.parametrize("section, key, value", REMOVED_KEYS,
                         ids=[f"{section}-{key}" for section, key, _ in REMOVED_KEYS])
def test_removed_defense_keys_are_unknown(tmp_path, section, key, value):
    path = tmp_path / "removed.yaml"
    path.write_text(f"{section}:\n  {key}: {value}\n")
    with pytest.raises(ConfigError, match=r"unknown key\(s\)"):
        load_config(path)
