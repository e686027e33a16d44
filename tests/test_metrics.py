"""Revocation scoring and the experiment-grid runner."""

import dataclasses

import numpy as np
import pytest

from stdlens import metrics
from stdlens.config import ConfigError
from stdlens.engine import run_federation
from stdlens.metrics import (build_defense, comparison_table, defense_metrics, rows_to_csv,
                             run_experiment, sweep, vary)


def _roles(n_mal, n_hon):
    roles = {i: "malicious" for i in range(n_mal)}
    roles.update({100 + i: "honest" for i in range(n_hon)})
    return roles


def test_perfect_purge_by_round_30():
    roles = _roles(10, 40)
    history = [(30, cid) for cid in range(10)]
    score = defense_metrics(history, roles)
    assert score.precision_at_max_recall == 1.0
    assert score.max_recall == 1.0
    assert score.round_of_max_recall == 30
    assert score.time_to_purge == 30
    assert score.false_positives == 0


def test_mixed_purge_precision():
    roles = _roles(10, 40)
    history = [(20, cid) for cid in range(10)]
    history += [(20, 100 + i) for i in range(9)]
    score = defense_metrics(history, roles)
    assert score.max_recall == 1.0
    assert score.precision_at_max_recall == pytest.approx(10 / 19)
    assert score.true_positives == 10
    assert score.false_positives == 9


def test_empty_history_undefined_precision():
    score = defense_metrics([], _roles(5, 20))
    assert score.max_recall == 0.0
    assert score.precision_at_max_recall is None
    assert score.time_to_purge is None
    assert score.true_positives == score.false_positives == 0


def test_recall_is_cumulative_and_nondecreasing():
    roles = _roles(4, 10)
    history = [(10, 0), (20, 1), (30, 2), (40, 3)]
    score = defense_metrics(history, roles)
    recalls = [defense_metrics(history[:k], roles).max_recall for k in range(1, 5)]
    assert recalls == [0.25, 0.5, 0.75, 1.0]
    assert score.round_of_max_recall == 40
    assert score.time_to_purge == 40


def test_precision_at_earliest_max_recall():
    roles = _roles(2, 10)
    # both malicious out at round 10; a later honest revocation must not
    # change the reported precision
    history = [(10, 0), (10, 1), (50, 100)]
    score = defense_metrics(history, roles)
    assert score.round_of_max_recall == 10
    assert score.precision_at_max_recall == 1.0
    assert score.false_positives == 1


def _defenses(names):
    return [{"defense": name} for name in names]


def test_sweep_runs_each_pair(tiny_config):
    rows = sweep(tiny_config, _defenses(["none", "spectral"]), [1, 2])
    assert len(rows) == 4
    assert [(r["defense"], r["seed"]) for r in rows] == [
        ("none", 1), ("none", 2), ("spectral", 1), ("spectral", 2)]
    for r in rows:
        if r["defense"] == "none":
            assert r["max_recall"] == 0.0
            assert r["true_positives"] == 0


def test_sweep_needs_seeds(tiny_config):
    with pytest.raises(ValueError):
        sweep(tiny_config, _defenses(["none"]), [])


def test_sweep_validates_every_cell_before_any_run(tiny_config, monkeypatch):
    runs = []
    monkeypatch.setattr(metrics, "run_experiment",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ConfigError, match="defense name must be one of"):
        sweep(tiny_config, _defenses(["none", "bogus"]), [1, 2])
    assert runs == []


def test_sweep_rows_equal_runs_of_hand_built_configs(tiny_config):
    # oracle: each cell's config built field by field, not through `vary`
    variants = [{"gamma": g, "defense": d}
                for g in (0.5, 1.0) for d in ("stdlens", "spectral")]
    rows = sweep(tiny_config, variants, [1, 2])
    assert len(rows) == 8
    for row in rows:
        cfg = dataclasses.replace(
            tiny_config,
            federation=dataclasses.replace(tiny_config.federation,
                                           master_seed=row["seed"]),
            attack=dataclasses.replace(tiny_config.attack, gamma=row["gamma"]),
            defense=dataclasses.replace(tiny_config.defense, name=row["defense"]))
        _, log, score = run_experiment(cfg)
        final_ap = [rec.ap[0] for rec in log.records if rec.ap.get(0) is not None][-1]
        assert row == {"gamma": row["gamma"], "defense": row["defense"],
                       "seed": row["seed"], "final_ap_src": final_ap,
                       **dataclasses.asdict(score)}
    assert [(r["gamma"], r["defense"], r["seed"]) for r in rows] == [
        (v["gamma"], v["defense"], seed) for v in variants for seed in (1, 2)]


def test_vary_sets_each_knob_and_skips_none(tiny_config):
    cfg = vary(tiny_config, seed=3, defense="spatial", m=0.1, beta=0.2,
               gamma=0.5, onset=4)
    assert (cfg.federation.master_seed, cfg.defense.name,
            cfg.federation.malicious_fraction) == (3, "spatial", 0.1)
    assert (cfg.attack.beta, cfg.attack.gamma, cfg.attack.onset_round) == (0.2, 0.5, 4)
    assert vary(tiny_config, seed=None, defense=None, beta=None) == tiny_config


def test_comparison_csv_and_table_are_deterministic(tiny_config):
    rows = sweep(tiny_config, _defenses(["none"]), [3])
    rows2 = sweep(tiny_config, _defenses(["none"]), [3])
    assert rows_to_csv(rows) == rows_to_csv(rows2)
    table = comparison_table(rows)
    assert "none" in table
    assert rows_to_csv(rows).splitlines()[0] == (
        "defense,seed,final_ap_src,precision_at_max_recall,max_recall,"
        "round_of_max_recall,time_to_purge,true_positives,false_positives")


def test_population_exhaustion_ends_the_run_with_the_partial_log(tiny_config):
    # spectral revokes a share of every class each window: by round 9 all
    # ten clients are revoked, so round 10 cannot select two participants
    cfg = dataclasses.replace(
        tiny_config, federation=dataclasses.replace(tiny_config.federation, rounds=20),
        defense=dataclasses.replace(tiny_config.defense, name="spectral"))
    live_weights, live_log = run_federation(cfg, build_defense(cfg))
    weights, log, score = run_experiment(cfg)
    assert [rec.round for rec in live_log.records] == list(range(10))
    assert ([rec.to_json() for rec in log.records]
            == [rec.to_json() for rec in live_log.records])
    assert sorted(cid for _, cid in log.revocation_history) == list(range(10))
    assert score == defense_metrics(log.revocation_history, log.roles)
    assert (score.true_positives, score.false_positives) == (2, 8)
    assert np.isfinite(weights.to_vector()).all()
    assert weights.to_vector().tobytes() == live_weights.to_vector().tobytes()
    # the round that exhausts the population is the last one, and it carries
    # the run's final AP whatever the evaluation cadence
    _, sparse_log, _ = run_experiment(cfg, eval_every=cfg.federation.rounds)
    last = sparse_log.records[-1]
    assert sorted(last.ap) == list(range(cfg.task.num_classes))
    assert last.ap == log.records[-1].ap
