"""Deterministic FL workbench: perception-poisoning attacks, spatio-temporal
gradient forensics with sigma-density uncertainty management, baseline
defenses, and empirical separability checks on a surrogate detection task."""

from .config import (AttackSpec, ConfigError, DefenseConfig, ExperimentConfig,
                     FederationConfig, TaskConfig, load_config, validate_config)
from .detection import (ClientDataset, DetectorWeights, detector_loss_and_grad,
                        generate_federation_data)
from .engine import (RunLog, fedavg_aggregate, local_update, run_federation,
                     select_participants)
from .forensics import (GradientContribution, StdLensDefense,
                        extract_class_gradient_block, flag_suspect_classes,
                        sigma_zone_partition, spatial_project, temporal_signature)
from .metrics import DefenseScore, defense_metrics, run_experiment, sweep, vary
from .robust import (MixtureSpec, PopulationSpec, separability_check,
                     synth_two_population_stream, theorem1_premise_holds)

__version__ = "0.1.0"
