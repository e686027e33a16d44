"""Defense scoring and multi-defense comparison runs.

Precision/recall of revocations against ground-truth roles, the
Table-style "precision at the earliest round of maximum recall" metric,
and the orchestration that runs several defenses on the identical seeded
attack stream.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import SpatialClusterDefense, SpectralSignatureDefense
from .config import ExperimentConfig, validate_config
from .engine import PopulationExhaustedError, run_federation
from .forensics import StdLensDefense

__all__ = [
    "DefenseScore",
    "defense_metrics",
    "build_defense",
    "run_experiment",
    "compare_defenses",
    "comparison_to_csv",
    "comparison_table",
]


@dataclass
class DefenseScore:
    round_of_max_recall: Optional[int] = None
    precision_at_max_recall: Optional[float] = None
    max_recall: float = 0.0
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
    if d.name == "spectral":
        return SpectralSignatureDefense(
            **shell, removal_fraction=max(fed.malicious_fraction, 0.05))
    raise ValueError(f"unknown defense {d.name!r}")


def run_experiment(config: ExperimentConfig, *, stream_hook=None, eval_every=1):
    """One federation run with the configured defense.

    Returns (weights, run_log, score); population exhaustion ends the run
    early with the partial log instead of failing the experiment.
    """
    validate_config(config)
    defense = build_defense(config)
    try:
        weights, log = run_federation(config, defense, stream_hook=stream_hook,
                                      eval_every=eval_every)
    except PopulationExhaustedError as exc:
        if exc.run_log is None:
            raise
        weights, log = exc.weights, exc.run_log
    score = defense_metrics(log.revocation_history, log.roles)
    return weights, log, score


def _with_defense(config: ExperimentConfig, name: str) -> ExperimentConfig:
    return dataclasses.replace(config,
                               defense=dataclasses.replace(config.defense, name=name))


def _with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    return dataclasses.replace(
        config, federation=dataclasses.replace(config.federation, master_seed=seed))


def _final_ap(log, class_id: int):
    """AP of `class_id` at the last round that evaluated it, or None."""
    return next((rec.ap[class_id] for rec in reversed(log.records)
                 if rec.ap.get(class_id) is not None), None)


def compare_defenses(config: ExperimentConfig, defense_names, seeds):
    """Run each defense on the identical seeded attack stream.

    All per-(client, round) data and poisoning decisions derive from the
    master seed alone, so every defense sees byte-identical poisoned
    datasets whenever the same client participates at the same round.

    Returns rows: one dict per (defense, seed).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    src = config.attack.source_class if config.attack else 0
    rows = []
    for name in defense_names:
        for seed in seeds:
            cfg = _with_seed(_with_defense(config, name), seed)
            _, log, score = run_experiment(cfg)
            rows.append({"defense": name, "seed": seed,
                         "final_ap_src": _final_ap(log, src),
                         **dataclasses.asdict(score)})
    return rows


# the comparison's column order; the score columns are DefenseScore's fields
_CSV_FIELDS = ["defense", "seed", "final_ap_src", "precision_at_max_recall",
               "max_recall", "round_of_max_recall", "time_to_purge",
               "true_positives", "false_positives"]


def _fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def comparison_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row[k]) for k in _CSV_FIELDS})
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
