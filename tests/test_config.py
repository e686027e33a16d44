"""Config schema: invariant enforcement and YAML loading."""

import dataclasses

import pytest

from stdlens.config import (AttackSpec, ConfigError, DefenseConfig,
                            ExperimentConfig, FederationConfig, TaskConfig,
                            load_config)
from stdlens.metrics import vary


def test_default_config_is_valid():
    # building is the check: the defaults, with or without an attack, build
    assert ExperimentConfig().attack is None
    assert ExperimentConfig(attack=AttackSpec()).attack == AttackSpec()


def test_validation_is_idempotent():
    cfg = ExperimentConfig(attack=AttackSpec())
    assert dataclasses.replace(dataclasses.replace(cfg)) == cfg


def test_too_few_participants_rejected():
    fed = FederationConfig(num_clients=10, participation_fraction=0.1)
    with pytest.raises(ConfigError, match=r"N\*k < 2"):
        ExperimentConfig(federation=fed)


def test_malicious_majority_rejected():
    fed = FederationConfig(num_clients=10, malicious_fraction=0.5)
    with pytest.raises(ConfigError, match="m must be < 0.5"):
        ExperimentConfig(federation=fed)


def test_fractional_malicious_count_rejected():
    fed = FederationConfig(num_clients=10, malicious_fraction=0.15)
    with pytest.raises(ConfigError, match="integer count"):
        ExperimentConfig(federation=fed)


def test_all_violations_reported_at_once():
    fed = FederationConfig(num_clients=10, participation_fraction=0.1,
                           malicious_fraction=0.5)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(federation=fed)
    assert len(exc.value.violations) >= 2


def test_confidence_level_restricted():
    fed = FederationConfig(confidence_level=0.9)
    with pytest.raises(ConfigError, match="confidence_level"):
        ExperimentConfig(federation=fed)


def test_attack_class_identity_rejected():
    atk = AttackSpec(poison_type="class", source_class=1, target_class=1)
    with pytest.raises(ConfigError, match="target_class must differ"):
        ExperimentConfig(attack=atk)


def test_attack_source_out_of_range_rejected():
    atk = AttackSpec(source_class=7)
    with pytest.raises(ConfigError, match="source_class out of range"):
        ExperimentConfig(attack=atk)


def test_defense_name_restricted():
    with pytest.raises(ConfigError, match="defense name"):
        ExperimentConfig(defense=DefenseConfig(name="magic"))


VIOLATIONS = [
    ("federation", dict(num_clients=0), "num_clients must be positive"),
    ("federation", dict(rounds=0), "rounds must be positive"),
    ("federation", dict(participation_fraction=1.5), r"participation_fraction k must be in \(0,1\]"),
    ("federation", dict(forensic_window=1), "forensic_window W must be >= 2"),
    ("federation", dict(temporal_window=0), "temporal_window must be >= 1"),
    ("federation", dict(watchlist_threshold=0), "watchlist_threshold must be positive"),
    ("federation", dict(local_epochs=0), "local_epochs must be positive"),
    ("federation", dict(learning_rate=0.0), "learning_rate must be positive"),
    ("task", dict(num_classes=1), "num_classes C must be >= 2"),
    ("task", dict(feature_dim=3), "feature_dim d must be >= 4"),
    ("task", dict(num_anchors=0), "num_anchors A must be >= 1"),
    ("task", dict(samples_per_client=0), "samples_per_client must be positive"),
    ("task", dict(test_samples=0), "test_samples must be positive"),
    ("attack", dict(poison_type="pixel"), "poison_type must be one of"),
    ("attack", dict(beta=1.0), r"beta must be in \[0,1\)"),
    ("attack", dict(gamma=0.0), r"gamma must be in \(0,1\]"),
    ("attack", dict(onset_round=-1), "onset_round must be >= 0"),
    ("attack", dict(target_class=7), "target_class out of range"),
    # 0.01 * 40 default samples rounds to 0: the payload would poison nothing
    ("attack", dict(gamma=0.01), r"round\(gamma\*samples_per_client\) must be >= 1"),
]
_SECTION_TYPES = {"federation": FederationConfig, "task": TaskConfig, "attack": AttackSpec}


@pytest.mark.parametrize("section, values, message", VIOLATIONS,
                         ids=[message.split()[0] for _, _, message in VIOLATIONS])
def test_each_violation_is_reported(section, values, message):
    base = ExperimentConfig(attack=AttackSpec())
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(base, **{section: _SECTION_TYPES[section](**values)})


_BASE = ExperimentConfig(federation=FederationConfig(num_clients=20), attack=AttackSpec())
_BAD_FED = FederationConfig(num_clients=20, malicious_fraction=0.5)
_BAD_ATTACK = AttackSpec(beta=1.0, gamma=0.0)
_BAD_YAML = ("federation:\n  num_clients: 20\n  malicious_fraction: 0.5\n"
             "attack:\n  beta: 1.0\n  gamma: 0.0\n")
BUILDERS = {
    "constructor": lambda path: ExperimentConfig(federation=_BAD_FED, attack=_BAD_ATTACK),
    "replace": lambda path: dataclasses.replace(_BASE, federation=_BAD_FED,
                                                attack=_BAD_ATTACK),
    "vary": lambda path: vary(_BASE, m=0.5, beta=1.0, gamma=0.0),
    "load_config": load_config,
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_every_way_to_build_a_config_lists_every_violation(build, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(_BAD_YAML)
    with pytest.raises(ConfigError) as exc:
        build(path)
    assert exc.value.violations == ["m must be < 0.5", "beta must be in [0,1)",
                                    "gamma must be in (0,1]"]


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


def test_load_config_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("federation: [\n")
    with pytest.raises(ConfigError, match="malformed YAML"):
        load_config(path)


@pytest.mark.parametrize("section", ["federation", "task", "attack", "defense"])
@pytest.mark.parametrize("value", ["5", "[1, 2]", "text"])
def test_load_config_requires_each_section_to_be_a_mapping(tmp_path, section, value):
    path = tmp_path / "bad.yaml"
    path.write_text(f"{section}: {value}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] must be a mapping"):
        load_config(path)


@pytest.mark.parametrize("text", ["5", "[1, 2]", "text"])
def test_load_config_requires_the_root_to_be_a_mapping(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        load_config(path)


def test_load_config_reads_an_empty_section_as_defaults(tmp_path):
    path = tmp_path / "empty_sections.yaml"
    path.write_text("federation:\ntask: {}\nattack: {}\ndefense:\n")
    assert load_config(path) == ExperimentConfig()


WRONG_TYPES = [
    ("federation", "num_clients", '"ten"'),
    ("federation", "num_clients", "true"),
    ("federation", "rounds", "10.0"),
    ("federation", "learning_rate", "1e-3"),      # YAML 1.1 reads this as a string
    ("federation", "learning_rate", "false"),
    ("task", "feature_noise", "[1.0]"),
    ("attack", "poison_type", "1"),
    ("attack", "beta", "null"),
    ("defense", "name", "3"),
]


@pytest.mark.parametrize("section, key, value", WRONG_TYPES)
def test_load_config_rejects_a_value_of_the_wrong_type(tmp_path, section, key, value):
    path = tmp_path / "bad.yaml"
    path.write_text(f"{section}:\n  {key}: {value}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be"):
        load_config(path)


def test_load_config_takes_an_int_for_a_float_field(tmp_path):
    path = tmp_path / "ints.yaml"
    path.write_text("federation:\n  learning_rate: 2\ntask:\n  feature_noise: 1\n")
    cfg = load_config(path)
    assert cfg.federation.learning_rate == 2
    assert cfg.task.feature_noise == 1


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
