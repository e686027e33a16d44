"""Defense scoring and the one experiment-grid runner.

Precision/recall of revocations against ground-truth roles, the
Table-style "precision at the earliest round of maximum recall" metric,
`vary`, the one way a knob (seed, defense, m, beta, gamma, onset) changes
a config, and `sweep`, which runs a grid of such variants over seeds and
returns one scored row per run. A run's last record always carries its
AP (see `run_federation`), so `final_ap_src`, the source class's AP at
the run's last round, is read there; a grid evaluates AP at round 0 and
at each run's last round only.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import SpatialClusterDefense, SpectralSignatureDefense
from .config import ConfigError, ExperimentConfig
from .engine import run_federation
from .forensics import StdLensDefense

__all__ = [
    "DefenseScore",
    "defense_metrics",
    "build_defense",
    "run_experiment",
    "vary",
    "sweep",
    "rows_to_csv",
    "comparison_table",
]


@dataclass
class DefenseScore:
    # the field order is the column order of the sweep CSVs
    precision_at_max_recall: Optional[float] = None
    max_recall: float = 0.0
    round_of_max_recall: Optional[int] = None
    time_to_purge: Optional[int] = None            # first round with all malicious out
    true_positives: int = 0
    false_positives: int = 0


def defense_metrics(revocation_history, roles) -> DefenseScore:
    """Cumulative precision/recall of a revocation history.

    revocation_history: iterable of (round, client_id); roles: client_id
    -> "honest" | "malicious". Precision with zero revocations is
    undefined (None), never 1.0.
    """
    n_mal = sum(1 for r in roles.values() if r == "malicious")
    score = DefenseScore()
    tp = fp = 0
    events = sorted(revocation_history)
    by_round: dict[int, list] = {}
    for rnd, cid in events:
        by_round.setdefault(rnd, []).append(cid)
    for rnd in sorted(by_round):
        for cid in by_round[rnd]:
            if roles[cid] == "malicious":
                tp += 1
            else:
                fp += 1
        precision = tp / (tp + fp) if (tp + fp) else None
        recall = tp / n_mal if n_mal else 0.0
        if recall > score.max_recall + 1e-12:
            score.max_recall = recall
            score.round_of_max_recall = rnd
            score.precision_at_max_recall = precision
        if score.time_to_purge is None and n_mal and tp == n_mal:
            score.time_to_purge = rnd
    score.true_positives, score.false_positives = tp, fp
    return score


def build_defense(config: ExperimentConfig, seed=None):
    """The configured defense, or None. `seed` is accepted and unused."""
    fed, task, d = config.federation, config.task, config.defense
    if d.name == "none":
        return None
    shell = dict(num_classes=task.num_classes, window=fed.forensic_window,
                 block_dim=6 * task.num_anchors * task.feature_dim)
    if d.name == "stdlens":
        return StdLensDefense(
            **shell, omega=fed.temporal_window, confidence=fed.confidence_level,
            watchlist_threshold=fed.watchlist_threshold)
    if d.name == "spatial":
        return SpatialClusterDefense(**shell)
    return SpectralSignatureDefense(
        **shell, removal_fraction=max(fed.malicious_fraction, 0.05))


def run_experiment(config: ExperimentConfig, *, stream_hook=None, eval_every=1):
    """One federation run with the configured defense.

    Returns (weights, run_log, score); a run that revokes all but one
    client ends early and is scored on its partial log. AP is evaluated
    every `eval_every` rounds and at the run's last round, early or not.
    """
    weights, log = run_federation(config, build_defense(config),
                                  stream_hook=stream_hook, eval_every=eval_every)
    score = defense_metrics(log.revocation_history, log.roles)
    return weights, log, score


# knob -> (config section, field)
_KNOBS = {"seed": ("federation", "master_seed"), "defense": ("defense", "name"),
          "m": ("federation", "malicious_fraction"), "beta": ("attack", "beta"),
          "gamma": ("attack", "gamma"), "onset": ("attack", "onset_round")}


def vary(config: ExperimentConfig, **knobs) -> ExperimentConfig:
    """`config` with the given seed/defense/m/beta/gamma/onset knobs set (None
    skips), in one replace, so its ConfigError lists every bad knob."""
    changes: dict[str, dict] = {}
    for knob, value in knobs.items():
        if value is not None:
            section, name = _KNOBS[knob]
            if getattr(config, section) is None:
                raise ConfigError([f"knob {knob!r} needs an [{section}] section"])
            changes.setdefault(section, {})[name] = value
    return dataclasses.replace(config, **{s: dataclasses.replace(getattr(config, s), **f)
                                          for s, f in changes.items()})


def sweep(config: ExperimentConfig, variants, seeds):
    """Run each (variant, seed) cell of a grid, variant-major; one row per run.

    A variant is a dict of `vary` knobs and its cell is `vary(config,
    **variant, seed=seed)`. Every cell is built before the first run, so a
    bad one raises ConfigError and nothing runs. Data and poisoning
    derive from the master seed alone, so cells that differ only in the
    defense see the identical attack stream. A row holds the variant,
    `seed`, `final_ap_src` and every DefenseScore field. Rows read no AP
    before a run's last round, so each run evaluates AP only at round 0
    and at its last round.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    cells = [(variant, seed, vary(config, **variant, seed=seed))
             for variant in variants for seed in seeds]
    rows = []
    for variant, seed, cfg in cells:
        _, log, score = run_experiment(cfg, eval_every=cfg.federation.rounds)
        src = cfg.attack.source_class if cfg.attack else 0
        rows.append({**variant, "seed": seed, "final_ap_src": log.records[-1].ap.get(src),
                     **dataclasses.asdict(score)})
    return rows


def _fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def rows_to_csv(rows) -> str:
    """Rows as CSV headed by the first row's keys; floats get six decimals, None `n/a`."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: _fmt(v) for k, v in row.items()} for row in rows)
    return buf.getvalue()


def comparison_table(rows) -> str:
    """Per-defense mean +/- std summary as a human-readable table."""
    names = sorted({r["defense"] for r in rows},
                   key=[r["defense"] for r in rows].index)
    lines = [f"{'defense':<10} {'precision@maxrec':>18} {'final AP_src':>16} "
             f"{'purge round':>12}"]
    for name in names:
        sub = [r for r in rows if r["defense"] == name]
        def agg(key):
            vals = [r[key] for r in sub if r[key] is not None]
            if not vals:
                return "n/a"
            return f"{np.mean(vals):.3f}+/-{np.std(vals):.3f}"
        purge = [r["time_to_purge"] for r in sub]
        purge_s = ("never" if all(p is None for p in purge)
                   else f"{np.mean([p for p in purge if p is not None]):.1f}")
        lines.append(f"{name:<10} {agg('precision_at_max_recall'):>18} "
                     f"{agg('final_ap_src'):>16} {purge_s:>12}")
    return "\n".join(lines)
