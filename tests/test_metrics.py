"""Revocation scoring and the multi-defense comparison harness."""

import dataclasses

import numpy as np
import pytest

from stdlens.engine import PopulationExhaustedError, run_federation
from stdlens.metrics import (build_defense, compare_defenses, comparison_table,
                             comparison_to_csv, defense_metrics, run_experiment)


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


def test_compare_defenses_runs_each_pair(tiny_config):
    rows = compare_defenses(tiny_config, ["none", "spectral"], [1, 2])
    assert len(rows) == 4
    assert {(r["defense"], r["seed"]) for r in rows} == {
        ("none", 1), ("none", 2), ("spectral", 1), ("spectral", 2)}
    for r in rows:
        if r["defense"] == "none":
            assert r["max_recall"] == 0.0
            assert r["true_positives"] == 0


def test_compare_defenses_needs_seeds(tiny_config):
    with pytest.raises(ValueError):
        compare_defenses(tiny_config, ["none"], [])


def test_comparison_csv_and_table_are_deterministic(tiny_config):
    rows = compare_defenses(tiny_config, ["none"], [3])
    rows2 = compare_defenses(tiny_config, ["none"], [3])
    assert comparison_to_csv(rows) == comparison_to_csv(rows2)
    table = comparison_table(rows)
    assert "none" in table
    assert comparison_to_csv(rows).splitlines()[0].startswith("defense,seed,")


def test_population_exhaustion_ends_the_run_with_the_partial_log(tiny_config):
    # spectral revokes a share of every class each window: by round 9 all
    # ten clients are revoked, so round 10 cannot select two participants
    cfg = dataclasses.replace(
        tiny_config, federation=dataclasses.replace(tiny_config.federation, rounds=20),
        defense=dataclasses.replace(tiny_config.defense, name="spectral"))
    with pytest.raises(PopulationExhaustedError) as exc:
        run_federation(cfg, build_defense(cfg))
    weights, log, score = run_experiment(cfg)
    assert [rec.round for rec in log.records] == list(range(10))
    assert ([rec.to_json() for rec in log.records]
            == [rec.to_json() for rec in exc.value.run_log.records])
    assert sorted(cid for _, cid in log.revocation_history) == list(range(10))
    assert score == defense_metrics(log.revocation_history, log.roles)
    assert (score.true_positives, score.false_positives) == (2, 8)
    assert np.isfinite(weights.to_vector()).all()
    assert weights.to_vector().tobytes() == exc.value.weights.to_vector().tobytes()
