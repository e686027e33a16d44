"""Smaller-cluster and spectral-score comparison defenses."""

import numpy as np
import pytest

from stdlens.baselines import (SpatialClusterDefense, SpectralSignatureDefense,
                               defense_spatial_smaller_cluster,
                               defense_spectral_signature)
from stdlens.forensics import (GradientContribution, StdLensDefense, flag_suspect_classes,
                               spatial_project)
from stdlens.seeding import make_rng


def _class_arrays(contribs):
    """One class of a window as the (client ids, rounds, blocks) arrays that
    the baselines take."""
    return (np.array([g.client_id for g in contribs]), np.array([g.round for g in contribs]),
            np.stack([g.block for g in contribs]))


def _window(rng, n_honest=12, n_mal=3, gap=20.0, d=6, rounds=5):
    contribs = []
    payloads = {100 + j: np.full(d, gap) + rng.standard_normal(d)
                for j in range(n_mal)}
    for r in range(rounds):
        for cid in range(n_honest):
            contribs.append(GradientContribution(cid, r, 0,
                                                 rng.standard_normal(d)))
        for cid, p in payloads.items():
            contribs.append(GradientContribution(cid, r, 0,
                                                 p + 0.01 * rng.standard_normal(d)))
    return {0: _class_arrays(contribs)}


def test_smaller_cluster_revokes_minority():
    window = _window(make_rng(0, "bl"))
    revoked = defense_spatial_smaller_cluster(window)
    assert revoked == [100, 101, 102]


def test_smaller_cluster_benign_window_no_revocations():
    rng = make_rng(1, "bl")
    window = {0: _class_arrays([GradientContribution(cid, r, 0, rng.standard_normal(6))
                                for r in range(5) for cid in range(12)])}
    assert defense_spatial_smaller_cluster(window) == []


@pytest.mark.filterwarnings("error")
def test_smaller_cluster_exact_size_tie_revokes_nobody():
    rng = make_rng(3, "bl")
    blocks = np.vstack([rng.standard_normal((6, 6)), 20.0 + rng.standard_normal((6, 6))])
    window = {0: (np.arange(12), np.zeros(12, int), blocks)}
    labels = flag_suspect_classes({0: spatial_project(blocks)})[0]    # flagged,
    assert labels.sum() == 6                                          # 6 against 6
    assert defense_spatial_smaller_cluster(window) == []


@pytest.mark.filterwarnings("error")
def test_spectral_skips_small_classes_and_empty_budgets():
    rng = make_rng(4, "bl")
    two_rows = (np.array([0, 1]), np.zeros(2, int), rng.standard_normal((2, 6)))
    four_rows = (np.arange(4), np.zeros(4, int), rng.standard_normal((4, 6)))
    assert defense_spectral_signature({0: two_rows}, removal_fraction=0.4) == []
    # 0.1 * 4 rounds to a budget of 0 rows
    assert defense_spectral_signature({0: four_rows}, removal_fraction=0.1) == []
    assert defense_spectral_signature({0: four_rows}, removal_fraction=0.2) != []


def test_spectral_scores_top_fraction():
    window = _window(make_rng(2, "bl"))
    revoked = defense_spectral_signature(window, removal_fraction=0.2)
    # the baseline is ungated: it removes its budget, and the strongest
    # outliers are the replayed payloads
    assert set(revoked) >= {100, 101, 102}


def test_spectral_rejects_bad_fraction():
    with pytest.raises(ValueError):
        defense_spectral_signature({}, removal_fraction=1.0)


def _stdlens(window, **kwargs):
    return StdLensDefense(num_classes=1, window=window, omega=1, confidence=0.99,
                          normalize_blocks=False, **kwargs)


def test_windowed_wrappers_fire_only_at_boundaries():
    payload = np.full(6, 20.0)
    for d in (SpectralSignatureDefense(num_classes=1, window=5, removal_fraction=0.2),
              _stdlens(window=5)):
        rng = make_rng(3, "bl")
        for r in range(5):
            contribs = [GradientContribution(cid, r, 0, rng.standard_normal(6))
                        for cid in range(10)]
            contribs.append(GradientContribution(99, r, 0, payload))
            revoked, _ = d.observe_contributions(r, contribs)
            if r < 4:
                assert revoked == []
            else:
                assert 99 in revoked


def test_spatial_wrapper_ignores_revoked_clients():
    payload = np.full(6, 20.0)
    for d in (SpatialClusterDefense(num_classes=1, window=5), _stdlens(window=5)):
        rng = make_rng(4, "bl")
        revoked_total = []
        for r in range(15):
            contribs = [GradientContribution(cid, r, 0, rng.standard_normal(6))
                        for cid in range(10)]
            contribs.append(GradientContribution(99, r, 0,
                                                 payload + 0.01 * rng.standard_normal(6)))
            revoked, _ = d.observe_contributions(r, contribs)
            revoked_total += revoked
        assert revoked_total.count(99) <= 1


MAKERS = [
    lambda: _stdlens(window=5, block_dim=6),
    lambda: SpatialClusterDefense(num_classes=1, window=5, block_dim=6),
    lambda: SpectralSignatureDefense(num_classes=1, window=5, removal_fraction=0.2,
                                     block_dim=6),
]
MAKER_IDS = ["stdlens", "spatial", "spectral"]


def _payload_stream(rng, rounds=10):
    """Ten honest clients and client 99 replaying one payload, per round."""
    payload = np.full(6, 20.0)
    return [[GradientContribution(cid, r, 0, rng.standard_normal(6)) for cid in range(10)]
            + [GradientContribution(99, r, 0, payload + 0.01 * rng.standard_normal(6))]
            for r in range(rounds)]


@pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
def test_malformed_contributions_are_dropped_at_ingestion(make):
    rng = make_rng(5, "bl")
    stream = _payload_stream(rng)
    nan_block, inf_block = rng.standard_normal(6), rng.standard_normal(6)
    nan_block[2], inf_block[4] = np.nan, -np.inf
    malformed = {1: [GradientContribution(3, 1, 0, nan_block)],
                 3: [GradientContribution(4, 3, 0, np.full(6, 1e200))],
                 6: [GradientContribution(5, 6, 0, inf_block)],
                 7: [GradientContribution(2, 7, 99, rng.standard_normal(6))],
                 8: [GradientContribution(6, 8, 0, np.array([1.0, 2.0]))]}
    # honest client 0 repeats its triple and client 1 sends a block for the
    # next round, both on the payload
    repeats = [[GradientContribution(cid, rnd, 0,
                                     np.full(6, 20.0) + 0.01 * rng.standard_normal(6))
                for cid, rnd in ((0, r), (1, r + 1))] for r in range(10)]
    clean, dirty = make(), make()
    clean_verdicts = [clean.observe_contributions(r, c) for r, c in enumerate(stream)]
    # each malformed block comes before the honest record of its (client,
    # round, class) triple, so only its own check can keep it out
    dirty_verdicts = [dirty.observe_contributions(r, malformed.get(r, []) + c + repeats[r])
                      for r, c in enumerate(stream)]
    assert any(revoked for revoked, _ in clean_verdicts)
    assert dirty_verdicts == clean_verdicts


@pytest.mark.filterwarnings("error")
def test_an_infinite_block_is_dropped_before_it_is_scaled():
    # the entry bound alone would drop it too, but only after unit-norm
    # scaling had divided inf by inf
    block = np.ones(6)
    block[2] = -np.inf
    defense = StdLensDefense(num_classes=1, window=5, omega=1, confidence=0.99)
    assert defense.observe_contributions(0, [GradientContribution(0, 0, 0, block)]) == ([], [])
    assert defense.clients == set()


@pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
def test_windows_follow_the_round_index(make):
    stream = _payload_stream(make_rng(6, "bl"))
    # the reference sees round 4, the last of window 0, without contributions
    reference = make()
    want = [reference.observe_contributions(r, [] if r == 4 else c)
            for r, c in enumerate(stream)]
    assert want[4][0]
    # round 4 never comes, so round 5 closes window 0; round -1 and a late
    # round 2 fall before the open window and are dropped
    calls = ([(-1, [GradientContribution(0, -1, 0, np.full(6, 20.0))])]
             + [(r, stream[r]) for r in (0, 1, 2, 3, 5)] + [(2, stream[2])]
             + [(r, stream[r]) for r in (6, 7, 8, 9)])
    defense = make()
    got = {i: defense.observe_contributions(r, c) for i, (r, c) in enumerate(calls)}
    assert got.pop(5) == want[4]
    assert got.pop(10) == want[9]
    assert all(v == ([], []) for v in got.values())
