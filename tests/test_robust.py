"""Two-population separability machinery and synthetic streams."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stdlens.robust import (DRIFT_SCALE, JITTER_SCALE, MixtureSpec, PopulationSpec,
                            random_premise_mixture, separability_check,
                            synth_two_population_stream, theorem1_premise_holds)
from stdlens.seeding import make_rng


def _mixture(gap, var=1.0, m=0.2, d=4):
    h = PopulationSpec(np.zeros(d), var * np.eye(d))
    mu = np.zeros(d)
    mu[0] = gap
    p = PopulationSpec(mu, var * np.eye(d))
    return MixtureSpec(h, p, m)


def test_population_rejects_asymmetric_cov():
    with pytest.raises(ValueError):
        PopulationSpec(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_population_rejects_indefinite_cov():
    with pytest.raises(ValueError):
        PopulationSpec(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_population_rejects_non_square_cov():
    with pytest.raises(ValueError):
        PopulationSpec(np.zeros(2), np.ones((2, 3)))
    with pytest.raises(ValueError):
        PopulationSpec(np.zeros(2), np.ones(2))


def test_population_rejects_mean_of_another_dimension():
    with pytest.raises(ValueError):
        PopulationSpec(np.zeros(1), np.eye(3))
    with pytest.raises(ValueError):
        PopulationSpec(np.zeros((3, 1)), np.eye(3))


def test_mixture_rejects_populations_of_different_dimensions():
    with pytest.raises(ValueError):
        MixtureSpec(PopulationSpec(np.zeros(3), np.eye(3)),
                    PopulationSpec(np.array([20.0]), np.eye(1)), 0.2)


def test_mixture_rejects_bad_rate():
    h = PopulationSpec(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        MixtureSpec(h, h, 0.5)


def test_premise_arithmetic():
    # ||Delta||^2 = gap^2 vs 6*var/m
    mix = _mixture(gap=10.0, var=1.0, m=0.2)
    holds, report = theorem1_premise_holds(mix)
    assert report["delta_norm_sq"] == pytest.approx(100.0)
    assert report["bound"] == pytest.approx(30.0)
    assert holds
    mix = _mixture(gap=5.0, var=1.0, m=0.2)
    holds, report = theorem1_premise_holds(mix)
    assert report["delta_norm_sq"] == pytest.approx(25.0)
    assert not holds


def test_separability_holds_for_wide_gap():
    mix = _mixture(gap=12.0)
    sep, tau, (hv, pv) = separability_check(mix, 2000, make_rng(1, "sep"))
    assert sep
    assert hv < mix.m and pv < mix.m
    assert tau > 0


def test_separability_fails_for_identical_populations():
    mix = _mixture(gap=0.0)
    sep, _, _ = separability_check(mix, 2000, make_rng(2, "sep"))
    assert not sep


def test_equal_projections_are_not_split_by_label():
    # zero covariance: every sample, honest or poisoned, is the same point
    same = PopulationSpec(np.full(3, 0.1), np.zeros((3, 3)))
    sep, _, violations = separability_check(MixtureSpec(same, same, 0.2), 1000,
                                            make_rng(0, "sep"))
    assert (sep, violations) == (False, (0.0, 1.0))


class _Rows:
    """A population that draws fixed rows."""

    def __init__(self, rows):
        self.rows, self.dim = rows, rows.shape[1]

    def sample(self, n, rng):
        return self.rows[:n]


def test_a_cut_never_falls_between_equal_projections():
    # every honest sample and half the poisoned ones coincide: only a cut
    # between equal values, which splits them by label, would separate them
    at = np.zeros((800, 2))
    poisoned = np.vstack([np.zeros((100, 2)), np.tile([50.0, 0.0], (100, 1))])
    sep, _, violations = separability_check(
        MixtureSpec(_Rows(at), _Rows(poisoned), 0.2), 1000, make_rng(0, "sep"))
    assert (sep, violations) == (False, (0.0, 0.5))


def test_separability_rejects_small_samples():
    with pytest.raises(ValueError):
        separability_check(_mixture(10.0), 100, make_rng(0, "x"))


def test_random_premise_mixture_satisfies_premise():
    rng = make_rng(3, "premise")
    for _ in range(20):
        mix = random_premise_mixture(rng, int(rng.integers(2, 17)),
                                     float(rng.uniform(0.05, 0.3)))
        holds, _ = theorem1_premise_holds(mix)
        assert holds


def test_synth_stream_shape_and_roles():
    mix = _mixture(gap=10.0)
    stream, roles = synth_two_population_stream(mix, 20, 15, seed=0)
    assert len(stream) == 15
    assert all(len(r) == 20 for r in stream)
    assert sum(1 for v in roles.values() if v == "malicious") == 4
    for r, contribs in enumerate(stream):
        assert all(g.round == r for g in contribs)


def test_synth_stream_malicious_replay_is_repetitive():
    mix = _mixture(gap=10.0)
    stream, roles = synth_two_population_stream(mix, 20, 15, seed=1)
    mal = [cid for cid, v in roles.items() if v == "malicious"]
    hon = [cid for cid, v in roles.items() if v == "honest"]
    def spread(cid):
        pts = np.stack([g.block for contribs in stream for g in contribs
                        if g.client_id == cid])
        return np.linalg.norm(pts - pts.mean(axis=0), axis=1).mean()
    assert max(spread(c) for c in mal) < min(spread(c) for c in hon)


def test_synth_stream_benign_mode():
    stream, roles = synth_two_population_stream(_mixture(10.0), 10, 5, seed=2,
                                                n_malicious=0)
    assert all(v == "honest" for v in roles.values())
    with pytest.raises(ValueError):
        synth_two_population_stream(_mixture(10.0), 10, 5, seed=2,
                                    n_malicious=10)


# -- the per-client stream loop, kept as the oracle ----------------------------

def _reference_sample(population, n, rng):
    """numpy's own sampler, with the covariance factored on every call."""
    try:
        np.linalg.cholesky(population.cov)
        method = "cholesky"
    except np.linalg.LinAlgError:
        method = "svd"
    return rng.multivariate_normal(population.mean, population.cov, size=n,
                                   method=method)


def _reference_stream(mixture, n_clients, rounds, seed, n_malicious=None):
    """Blocks of each round, one `multivariate_normal` call per client and round."""
    n_mal = (int(np.floor(mixture.m * n_clients))
             if n_malicious is None else n_malicious)
    rng = make_rng(seed, "synth-stream")
    delta_norm = float(np.linalg.norm(mixture.delta))
    if delta_norm <= 0:
        delta_norm = np.sqrt(mixture.phi_squared)
    d = len(mixture.honest.mean)
    drift_dir = rng.standard_normal(d)
    drift_dir /= np.linalg.norm(drift_dir)
    drift = DRIFT_SCALE * delta_norm * drift_dir
    jitter = JITTER_SCALE * delta_norm
    payloads = [_reference_sample(mixture.poisoned, 1, rng)[0] for _ in range(n_mal)]
    return [[payloads[i] + jitter * rng.standard_normal(d) if i < n_mal
             else _reference_sample(mixture.honest, 1, rng)[0] + r * drift
             for i in range(n_clients)]
            for r in range(rounds)]


@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 16),
       n_clients=st.integers(2, 30), rounds=st.integers(1, 6),
       n_malicious=st.sampled_from([None, 0]), singular=st.booleans())
@example(seed=5, d=6, n_clients=20, rounds=4, n_malicious=None, singular=True)
def test_synth_stream_equals_the_per_client_loop(seed, d, n_clients, rounds,
                                                 n_malicious, singular):
    rng = make_rng(seed, "oracle-mixture")
    mix = random_premise_mixture(rng, d, float(rng.uniform(0.05, 0.3)))
    if singular:   # a zero row and column: no Cholesky factor, numpy's SVD branch
        a = rng.standard_normal((d, d))
        a[-1] = 0.0
        mix = MixtureSpec(mix.honest, PopulationSpec(mix.poisoned.mean, a @ a.T), mix.m)
    stream, _ = synth_two_population_stream(mix, n_clients, rounds, seed,
                                            n_malicious=n_malicious)
    want = _reference_stream(mix, n_clients, rounds, seed, n_malicious)
    for contribs, blocks in zip(stream, want, strict=True):
        assert np.stack([g.block for g in contribs]).tobytes() == np.stack(blocks).tobytes()
    for pop in (mix.honest, mix.poisoned):
        got = pop.sample(7, make_rng(seed, "oracle-sample"))
        assert got.tobytes() == _reference_sample(pop, 7, make_rng(seed, "oracle-sample")).tobytes()
