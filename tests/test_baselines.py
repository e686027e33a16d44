"""Smaller-cluster and spectral-score comparison defenses."""

import numpy as np
import pytest

from stdlens.baselines import (SpatialClusterDefense, SpectralSignatureDefense,
                               defense_spatial_smaller_cluster,
                               defense_spectral_signature)
from stdlens.forensics import GradientContribution, StdLensDefense
from stdlens.seeding import make_rng


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
    return {0: contribs}


def test_smaller_cluster_revokes_minority():
    window = _window(make_rng(0, "bl"))
    revoked = defense_spatial_smaller_cluster(window)
    assert revoked == [100, 101, 102]


def test_smaller_cluster_benign_window_no_revocations():
    rng = make_rng(1, "bl")
    window = {0: [GradientContribution(cid, r, 0, rng.standard_normal(6))
                  for r in range(5) for cid in range(12)]}
    assert defense_spatial_smaller_cluster(window) == []


def test_spectral_scores_top_fraction():
    window = _window(make_rng(2, "bl"))
    revoked = defense_spectral_signature(window, removal_fraction=0.2)
    # the baseline is ungated: it removes its budget, and the strongest
    # outliers are the replayed payloads
    assert set(revoked) >= {100, 101, 102}


def test_spectral_rejects_bad_fraction():
    with pytest.raises(ValueError):
        defense_spectral_signature({}, removal_fraction=1.0)


def _stdlens(window):
    return StdLensDefense(num_classes=1, window=window, omega=1, confidence=0.99,
                          normalize_blocks=False)


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
