"""Spatial/temporal signature machinery and the sigma-zone partition."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stdlens.detection import DetectorWeights
from stdlens.forensics import (GradientContribution, StdLensDefense, cluster_2d,
                               extract_class_gradient_block, flag_suspect_classes,
                               kmeans, round_class_blocks, sigma_zone_partition,
                               spatial_project, temporal_signature,
                               trajectory_signatures, two_means_1d, unit_norm)
from stdlens.seeding import make_rng
from tests.test_detection import _model


# -- gradient block extraction ----------------------------------------------

def test_block_dimension_matches_shape_arithmetic():
    A, C, d = 3, 4, 7
    delta = DetectorWeights.zeros(A, C, d)
    block = extract_class_gradient_block(delta, 0)
    # class row + 4 bbox rows + objn row per anchor
    assert block.shape == (6 * A * d,)


def test_zero_update_gives_zero_block():
    delta = DetectorWeights.zeros(2, 3, 5)
    assert not extract_class_gradient_block(delta, 1).any()


def test_block_locality_across_classes():
    A, C, d = 2, 3, 5
    rng = make_rng(0, "block")
    a = DetectorWeights(rng.standard_normal((A, C + 1, d)),
                        rng.standard_normal((A, C, 4, d)),
                        rng.standard_normal((A, C, d)))
    b = DetectorWeights.from_vector(a.to_vector(), A, C, d)
    b.w_class[:, 2, :] += 1.0
    b.w_bbox[:, 2, :, :] += 1.0
    b.w_objn[:, 2, :] += 1.0
    assert np.array_equal(extract_class_gradient_block(a, 0),
                          extract_class_gradient_block(b, 0))
    assert not np.array_equal(extract_class_gradient_block(a, 2),
                              extract_class_gradient_block(b, 2))


@settings(max_examples=40, deadline=None)
@given(P=st.integers(1, 4), A=st.integers(1, 4), C=st.integers(1, 5),
       d=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
# A, C, 4 and d pairwise distinct, so a swapped axis cannot line up
@example(P=4, A=2, C=3, d=5, seed=2)
def test_round_gather_equals_per_class_extraction(P, A, C, d, seed):
    rng = make_rng(seed, "gather")
    stack = DetectorWeights(rng.standard_normal((P, A, C + 1, d)),
                            rng.standard_normal((P, A, C, 4, d)),
                            rng.standard_normal((P, A, C, d)))
    blocks = round_class_blocks(stack)
    assert blocks.shape == (P, C, 6 * A * d)
    for i in range(P):
        model = _model(stack, i)
        for c in range(C):
            assert blocks[i, c].tobytes() == extract_class_gradient_block(model, c).tobytes()


def test_block_rejects_bad_class():
    with pytest.raises(ValueError):
        extract_class_gradient_block(DetectorWeights.zeros(1, 2, 4), 2)


# -- spatial projection ------------------------------------------------------

def _assert_axes_signed(ssc):
    # the largest-magnitude coordinate of each axis is positive
    for axis in range(2):
        assert ssc[np.argmax(np.abs(ssc[:, axis])), axis] >= 0


def test_projection_matches_dense_eigensolver():
    rng = make_rng(1, "proj")
    blocks = rng.standard_normal((20, 8))
    ssc = spatial_project(blocks)
    centered = blocks - blocks.mean(axis=0)
    cov = centered.T @ centered / 19
    vals = np.linalg.eigvalsh(cov)
    # the sample variance of SSC1 and SSC2 is the top and second eigenvalue
    assert ssc.shape == (20, 2)
    assert ssc[:, 0].var(ddof=1) == pytest.approx(vals[-1], rel=1e-9)
    assert ssc[:, 1].var(ddof=1) == pytest.approx(vals[-2], rel=1e-9)
    _assert_axes_signed(ssc)


def _unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("blocks", [
    make_rng(11, "gram").standard_normal((12, 40)),
    _unit_rows(make_rng(12, "gram"), 90, 288),
], ids=["12x40-gaussian", "90x288-unit"])
def test_projection_with_fewer_rows_than_dims_matches_dense_covariance(blocks):
    # n < dim takes the Gram branch; the oracle solves the dim x dim covariance
    n = len(blocks)
    centered = blocks - blocks.mean(axis=0)
    vals, vecs = np.linalg.eigh(centered.T @ centered / (n - 1))
    ssc = spatial_project(blocks)
    for axis in range(2):
        want_val, want = vals[-1 - axis], centered @ vecs[:, -1 - axis]
        assert ssc[:, axis].var(ddof=1) == pytest.approx(want_val, rel=1e-10)
        sign = np.sign(np.dot(ssc[:, axis], want))
        assert np.allclose(ssc[:, axis], sign * want, rtol=0, atol=1e-9)
    _assert_axes_signed(ssc)


@pytest.mark.parametrize("blocks", [
    np.linspace(-1, 1, 6)[:, None] * make_rng(13, "gram").standard_normal(30),
    np.tile(make_rng(14, "gram").standard_normal(30), (6, 1)),
], ids=["rank-1", "all-equal"])
def test_degenerate_projection_with_fewer_rows_than_dims(blocks):
    ssc = spatial_project(blocks)
    assert not ssc[:, 1].any()
    assert np.isfinite(ssc).all()


def test_projection_preserves_planar_distances():
    rng = make_rng(2, "plane")
    plane = rng.standard_normal((2, 10))
    coords = rng.standard_normal((15, 2))
    blocks = coords @ plane + rng.standard_normal(10)  # embedded 2D cloud
    ssc = spatial_project(blocks)
    d_orig = np.linalg.norm(blocks[:, None] - blocks[None, :], axis=2)
    d_proj = np.linalg.norm(ssc[:, None] - ssc[None, :], axis=2)
    assert np.allclose(d_orig, d_proj, atol=1e-9)


def test_projection_columns_are_uncorrelated():
    # orthonormal eigenvectors give SSC columns whose sample covariance is
    # diagonal, holding the two top eigenvalues
    rng = make_rng(3, "ortho")
    blocks = rng.standard_normal((12, 6))
    ssc = spatial_project(blocks)
    cov = np.cov(ssc, rowvar=False)
    assert abs(cov[0, 1]) < 1e-9
    vals = np.linalg.eigvalsh(np.cov(blocks, rowvar=False))
    assert np.diag(cov) == pytest.approx(vals[::-1][:2], rel=1e-9)


def test_projection_collinear_points_degenerate():
    t = np.linspace(0, 1, 8)[:, None]
    blocks = t * np.array([[1.0, 2.0, -1.0, 0.5]])
    ssc = spatial_project(blocks)
    assert not ssc[:, 1].any()
    # SSC1 keeps the whole spread along the line
    assert ssc[:, 0].var(ddof=1) == pytest.approx(
        np.var(t, ddof=1) * np.sum(blocks[-1] ** 2), rel=1e-9)


def test_projection_needs_three_rows():
    with pytest.raises(ValueError):
        spatial_project(np.zeros((2, 5)))


# -- clustering --------------------------------------------------------------

def _two_blobs(rng, gap=10.0, n=20):
    a = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 2)) + np.array([gap, 0.0])
    return np.vstack([a, b])


@pytest.mark.parametrize("algorithm", ["kmeans"])
def test_cluster_2d_separable_blobs(algorithm):
    pts = _two_blobs(make_rng(4, "blobs"))
    labels = cluster_2d(pts, algorithm, 2, seed=0)
    assert set(labels.tolist()) == {0, 1}
    assert len(set(labels[:20].tolist())) == 1
    assert len(set(labels[20:].tolist())) == 1
    assert labels[0] != labels[20]


@pytest.mark.parametrize("algorithm", ["kmeans"])
def test_cluster_2d_single_blob_still_partitions(algorithm):
    pts = make_rng(5, "blob").standard_normal((15, 2))
    labels = cluster_2d(pts, algorithm, 2, seed=1)
    assert len(labels) == 15
    assert set(labels.tolist()) == {0, 1}


def test_cluster_2d_duplicate_points_deterministic():
    pts = np.ones((6, 2))
    labels = cluster_2d(pts, "kmeans", 2, seed=2)
    assert set(labels.tolist()) == {0, 1}


def test_cluster_2d_unknown_algorithm():
    with pytest.raises(ValueError):
        cluster_2d(make_rng(0, "alg").standard_normal((5, 2)), "dbscan", 2)


def test_kmeans_is_seed_deterministic():
    pts = make_rng(6, "km").standard_normal((30, 2))
    assert np.array_equal(kmeans(pts, 2, seed=3), kmeans(pts, 2, seed=3))


def test_kmeans_needs_enough_points():
    with pytest.raises(ValueError):
        kmeans(np.zeros((1, 2)), 2, seed=0)


def _inertia(x, labels):
    return sum(((x[labels == c] - x[labels == c].mean()) ** 2).sum()
               for c in set(labels.tolist()))


# Seeded Lloyd's k-means with 10 restarts stops at inertia 386.35 here,
# {-15.8, 0.1, 1.5, 4.3, 4.5} against {8.6, 11.1, 22.0}, whose SSC1
# separation 1.12 does not flag the class. The optimum isolates -15.8.
LLOYD_TRAP = np.array([1.5, 4.5, 8.6, 4.3, 22.0, -15.8, 0.1, 11.1])


def test_two_means_1d_reaches_the_optimum_where_lloyd_stalls():
    labels = two_means_1d(LLOYD_TRAP)
    assert _inertia(LLOYD_TRAP, labels) == pytest.approx(334.3971428571428)
    assert labels.tolist() == [1, 1, 1, 1, 1, 0, 1, 1]


def test_flagging_uses_the_optimal_split():
    n = len(LLOYD_TRAP)
    flagged = flag_suspect_classes({0: np.c_[LLOYD_TRAP, np.zeros(n)]})
    assert flagged.keys() == {0}
    assert flagged[0].tolist() == two_means_1d(LLOYD_TRAP).tolist()


def test_two_means_1d_edge_cases():
    assert two_means_1d(np.full(5, 3.0)).tolist() == [0] * 5
    assert two_means_1d([2.0, -1.0]).tolist() == [1, 0]
    with pytest.raises(ValueError):
        two_means_1d([1.0])


# -- class flagging ----------------------------------------------------------

def test_flagging_separated_vs_single_gaussian():
    rng = make_rng(7, "flag")
    tight = rng.standard_normal((40, 6))
    split = np.vstack([rng.standard_normal((30, 6)),
                       rng.standard_normal((10, 6)) + 25.0])
    projections = {0: spatial_project(tight), 1: spatial_project(split)}
    flagged = flag_suspect_classes(projections)
    assert flagged.keys() == {1}
    assert flagged[1].tolist() == [0] * 30 + [1] * 10


def test_flagging_false_positive_rate():
    rng = make_rng(8, "ffr")
    flagged = 0
    for t in range(200):
        proj = spatial_project(rng.standard_normal((30, 5)))
        flagged += bool(flag_suspect_classes({0: proj}))
    assert flagged / 200 < 0.05


# -- temporal signature ------------------------------------------------------

def test_temporal_signature_frozen_examples():
    # consecutive scalar steps of size 1
    assert temporal_signature(np.array([[0.0], [1.0], [2.0]]), 1) == 1.0
    assert temporal_signature(np.array([[0.0], [1.0], [2.0], [3.0]]), 2) == 1.5
    # constant trajectory has zero dissimilarity
    assert temporal_signature(np.ones((5, 2)), 1) == 0.0


def test_temporal_signature_undefined_for_short_trajectories():
    assert temporal_signature(np.zeros((2, 2)), 2) is None
    assert temporal_signature(np.zeros((1, 2)), 1) is None


def test_temporal_signature_rejects_bad_args():
    with pytest.raises(ValueError):
        temporal_signature(np.zeros((4, 2)), 0)


def _reference_signature(traj, omega):
    """The formula's double sum as a loop, in j-major, k-minor order."""
    n = len(traj)
    if n <= omega:
        return None
    total = 0.0
    for j in range(omega, n):
        for k in range(1, omega + 1):
            total += np.abs(traj[j] - traj[j - k]).sum()
    return total / (omega * n - omega * omega)


def _reference_signatures(client_ids, rounds, points, omega):
    """One trajectory per client in stable round order, keyed by first round."""
    trajectories = {}
    for i in np.argsort(rounds, kind="stable"):
        trajectories.setdefault(int(client_ids[i]), []).append(points[i])
    return {cid: _reference_signature(np.array(t), omega)
            for cid, t in trajectories.items() if len(t) > omega}


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40),
       clients=st.integers(1, 6), n_rounds=st.integers(1, 10),
       dim=st.integers(1, 300), omega=st.integers(1, 3))
@example(seed=0, n=0, clients=3, n_rounds=4, dim=5, omega=1)       # empty window
@example(seed=1, n=12, clients=1, n_rounds=12, dim=7, omega=2)     # one client
@example(seed=2, n=30, clients=4, n_rounds=2, dim=130, omega=3)    # repeated rounds
def test_trajectory_signatures_equal_the_double_loop(seed, n, clients, n_rounds,
                                                     dim, omega):
    rng = make_rng(seed, "signature-oracle")
    ids = rng.integers(0, clients, n)
    rounds = rng.integers(0, n_rounds, n)    # unsorted, with repeats
    points = 10 * rng.standard_normal((n, dim))
    got = trajectory_signatures(ids, rounds, points, omega)
    want = _reference_signatures(ids, rounds, points, omega)
    assert list(got.items()) == list(want.items())
    for cid in set(ids.tolist()):
        traj = points[ids == cid][np.argsort(rounds[ids == cid], kind="stable")]
        assert temporal_signature(traj, omega) == _reference_signature(traj, omega)


def _analyze(trajectories):
    """`_analyze_class` of one flagged class given as client id -> (SSC1
    label, [(SSC1, SSC2) per round]); the SSC points stand in for the
    blocks too."""
    ids, rounds, labels, points = zip(*[
        (cid, r, label, point) for cid, (label, trajectory) in trajectories.items()
        for r, point in enumerate(trajectory)])
    ssc = np.array(points, dtype=float)
    defense = StdLensDefense(num_classes=1, window=10, omega=1, confidence=0.99)
    return defense._analyze_class(0, np.array(ids), np.array(rounds), ssc, ssc,
                                  np.array(labels))


def _wobble(x, step, n=3):
    """n points at SSC1 `x` whose SSC2 alternates by `step`: temporal
    signature `step` at omega 1."""
    return [(x, step * (r % 2)) for r in range(n)]


def test_suspicious_cluster_lower_mean_wins():
    # cluster 1 is the larger one, so only its lower mean makes it suspicious
    noisy = {cid: (0, _wobble(0.0, 1.0)) for cid in (0, 1, 2)}
    quiet = {cid: (1, _wobble(10.0, 0.01)) for cid in (3, 4, 5, 6)}
    assert _analyze(noisy | quiet) == ({3, 4, 5, 6}, set())
    swapped = ({cid: (0, _wobble(0.0, 0.01)) for cid in (0, 1, 2)}
               | {cid: (1, _wobble(10.0, 1.0)) for cid in (3, 4, 5, 6)})
    assert _analyze(swapped) == ({0, 1, 2}, set())


def test_suspicious_cluster_tie_prefers_smaller():
    # equal mean signatures; a client too short for a signature (one round)
    # is watchlisted only in a suspicious cluster no larger than the other
    small = {1: (1, _wobble(10.0, 0.5)), 2: (1, [(10.0, 0.0)])}           # 4 rows
    large = {3: (0, _wobble(0.0, 0.5)), 4: (0, _wobble(0.0, 0.5))}       # 6 rows
    assert _analyze(small | large) == (set(), {2})
    # equal sizes too: cluster 0 is suspicious
    first = {1: (0, _wobble(0.0, 0.5)), 2: (0, [(0.0, 0.0)])}
    second = {3: (1, _wobble(10.0, 0.5)), 4: (1, [(10.0, 0.0)])}
    assert _analyze(first | second) == (set(), {2})


def test_suspicious_cluster_defers_without_signatures():
    # cluster 1 has only one-round clients: deciding it suspicious would
    # watchlist them as confident clients without a signature
    signed = {cid: (0, _wobble(0.0, 1.0)) for cid in (0, 1, 2)}
    unsigned = {cid: (1, [(10.0, 0.0)]) for cid in (4, 5, 6)}
    assert _analyze(signed | unsigned) == (set(), set())


# -- sigma zones -------------------------------------------------------------

def test_sigma_zone_gap_between_clusters():
    values = np.array([0.0, 0.1, -0.1, 10.0, 10.1, 9.9, 5.0])
    labels = np.array([0, 0, 0, 1, 1, 1, 0])
    # intervals [-1.25, 3.75] and [9.9, 10.1]: only 5.0 is in the gap
    uncertain = sigma_zone_partition(values, labels, 0.68)
    assert uncertain.tolist() == [False] * 6 + [True]


def test_sigma_zone_overlapping_intervals_have_no_gap():
    values = np.array([0.0, 1.0, 2.0, 1.5, 2.5, 3.5])
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert not sigma_zone_partition(values, labels, 0.99).any()


def test_sigma_zone_confidence_maps_to_z():
    # 10 sits 2.85 sd above its cluster's mean 1 (sd 3.16), 94 sits 1.79 sd
    # below its cluster's mean 98.8 (sd 2.68): z = 1 leaves both in the gap,
    # z = 2 only 10, z = 3 neither
    values = np.array([0.0] * 9 + [10.0] + [100.0] * 4 + [94.0])
    labels = np.array([0] * 10 + [1] * 5)
    for conf, want in ((0.68, [9, 14]), (0.95, [9]), (0.99, [])):
        assert np.flatnonzero(sigma_zone_partition(values, labels, conf)).tolist() == want


def test_sigma_zone_rejects_unknown_confidence():
    with pytest.raises(ValueError):
        sigma_zone_partition(np.zeros(4), np.zeros(4, dtype=int), 0.9)


# -- unit-norm ingestion -----------------------------------------------------

def test_unit_norm_keeps_the_direction_of_an_overflowing_block():
    # 1e-170 is the mirror case: its norm underflows to 0
    out = unit_norm(np.array([[1e200], [1e-170]]) * np.ones(288))
    assert np.allclose(out, 1.0 / np.sqrt(288), rtol=1e-12)
    mixed = np.array([[1e200, -3e199, 0.0, 2e199], [1.0, 2.0, 0.0, 2.0]])
    assert np.allclose(unit_norm(mixed)[0],
                       mixed[0] / 1e200 / np.linalg.norm(mixed[0] / 1e200), rtol=1e-12)
    assert unit_norm(mixed)[1].tolist() == [1 / 3, 2 / 3, 0.0, 2 / 3]


def test_unit_norm_finite_norm_blocks_take_the_plain_path():
    blocks = make_rng(12, "unit").standard_normal((3, 288)) * 1e150
    blocks[1] = 0.0
    out = unit_norm(blocks)
    for i in (0, 2):
        assert np.array_equal(out[i], blocks[i] / float(np.linalg.norm(blocks[i])))
    assert not out[1].any()
    assert unit_norm(np.empty((0, 4))).shape == (0, 4)


class _CapturingStdLens(StdLensDefense):
    """StdLensDefense that keeps the last window its _decide receives."""

    def _decide(self, classes):
        self.decided = classes
        return super()._decide(classes)


def test_defense_admits_an_overflowing_block_as_a_unit_vector():
    defense = _CapturingStdLens(num_classes=1, window=10, omega=1, confidence=0.99)
    defense.observe_contributions(0, [GradientContribution(5, 0, 0, np.full(6, 1e200))])
    defense.window_step()
    ((ids, _, blocks),) = defense.decided.values()
    assert ids.tolist() == [5]
    assert np.linalg.norm(blocks[0]) == pytest.approx(1.0)


def _scalar_unit_norm(block):
    """Unit norm of one block, the reference for the row-wise `unit_norm`:
    a zero or non-finite block stays as it is, and a finite block whose
    norm overflows or underflows is first divided by its largest magnitude."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(block))
    if norm in (0.0, np.inf) and np.isfinite(block).all() and block.any():
        block = block / np.abs(block).max()
        norm = float(np.linalg.norm(block))
    if norm > 0:
        block = block / norm
    return block


def test_row_wise_admission_is_bitwise_unit_norm():
    rng = make_rng(13, "unit")
    blocks = rng.standard_normal((300, 288)) * np.exp(rng.uniform(-30, 30, (300, 1)))
    blocks[:6] = [np.full(288, 1e200), np.full(288, 1e-170), np.zeros(288),
                  np.r_[1e200, np.zeros(287)], np.full(288, 1e308),
                  np.r_[-5e-324, np.zeros(287)]]
    defense = StdLensDefense(num_classes=1, window=10, omega=1, confidence=0.99)
    admitted = defense._admit(blocks)
    for row, block in zip(admitted, blocks):
        assert row.tobytes() == _scalar_unit_norm(block).tobytes()


# -- the full defense on synthetic streams -----------------------------------

def _stream_from_blocks(honest, malicious, rounds, rng, class_id=0):
    """honest: dict cid -> sampler(); malicious: dict cid -> fixed block."""
    stream = []
    for r in range(rounds):
        contribs = [GradientContribution(cid, r, class_id, fn())
                    for cid, fn in honest.items()]
        contribs += [GradientContribution(cid, r, class_id,
                                          blk + 0.01 * rng.standard_normal(len(blk)))
                     for cid, blk in malicious.items()]
        stream.append(contribs)
    return stream


def test_defense_purges_replayed_payloads_and_spares_honest():
    rng = make_rng(9, "defense")
    d = 6
    honest = {cid: (lambda: rng.standard_normal(d)) for cid in range(12)}
    payload = np.full(d, 8.0)
    malicious = {cid: payload.copy() for cid in (20, 21, 22)}
    defense = StdLensDefense(num_classes=1, window=10, omega=1, confidence=0.99,
                             normalize_blocks=False, seed=0)
    revoked = set()
    for contribs in _stream_from_blocks(honest, malicious, 30, rng):
        out, _ = defense.observe_contributions(contribs[0].round, contribs)
        revoked |= set(out)
    assert revoked == {20, 21, 22}


def test_defense_benign_stream_no_revocations():
    rng = make_rng(10, "benign")
    honest = {cid: (lambda: rng.standard_normal(6)) for cid in range(15)}
    defense = StdLensDefense(num_classes=1, window=10, omega=1, confidence=0.99,
                             normalize_blocks=False, seed=0)
    for contribs in _stream_from_blocks(honest, {}, 30, rng):
        out, _ = defense.observe_contributions(contribs[0].round, contribs)
        assert out == []


def test_defense_revocation_is_terminal():
    rng = make_rng(11, "terminal")
    honest = {cid: (lambda: rng.standard_normal(6)) for cid in range(12)}
    malicious = {30: np.full(6, 9.0)}
    defense = StdLensDefense(num_classes=1, window=10, omega=1, confidence=0.99,
                             normalize_blocks=False, seed=0)
    events = []
    for contribs in _stream_from_blocks(honest, malicious, 50, rng):
        out, _ = defense.observe_contributions(contribs[0].round, contribs)
        events += out
    assert events.count(30) <= 1
    assert 30 in defense.revoked


def test_client_in_the_ssc1_gap_is_watchlisted_not_revoked():
    # tier 3: the gap client sits between the honest and the replayed
    # cluster on SSC1; it samples noise like the honest clients, so only
    # the spatial sigma-zone branch can put it on the watchlist
    rng = make_rng(12, "tier3")
    payload = np.full(6, 8.0)
    defense = StdLensDefense(num_classes=1, window=100, omega=1, confidence=0.99,
                             normalize_blocks=False)
    for r in range(10):
        contribs = [GradientContribution(cid, r, 0, rng.standard_normal(6))
                    for cid in range(12)]
        contribs += [GradientContribution(cid, r, 0,
                                          payload + 0.01 * rng.standard_normal(6))
                     for cid in (20, 21, 22)]
        contribs.append(GradientContribution(30, r, 0,
                                             0.4 * payload + rng.standard_normal(6)))
        defense.observe_contributions(r, contribs)
    revoked, watchlist_events = defense.window_step()
    assert revoked == [20, 21, 22]
    assert 30 in watchlist_events
    assert defense.strikes[30] == 1 and 30 not in defense.revoked


# -- guards of the local decision paths ---------------------------------------

def _class_window(rng, clients, rounds=3, replayer=None, d=6):
    """One class's (client ids, rounds, blocks): every client draws a fresh
    block each round, except `replayer`, which repeats one block."""
    ids = np.repeat(np.array(clients), rounds)
    rnds = np.tile(np.arange(rounds), len(clients))
    blocks = rng.standard_normal((len(ids), d))
    if replayer is not None:
        blocks[ids == replayer] = np.full(d, 0.5)
    return ids, rnds, blocks


@pytest.mark.filterwarnings("error")
def test_temporal_strikes_need_four_signatures():
    defense = StdLensDefense(num_classes=1, window=10, omega=1, confidence=0.99)
    rng = make_rng(14, "strikes")
    assert defense._temporal_strikes({0: _class_window(rng, [0, 1, 2], replayer=0)}) == set()
    assert defense._temporal_strikes({0: _class_window(rng, [0, 1, 2, 3], replayer=0)}) == {0}


@pytest.mark.filterwarnings("error")
def test_exemplars_need_three_rows_of_other_clients():
    defense = StdLensDefense(num_classes=3, window=10, omega=1, confidence=0.99)
    far = np.full((1, 6), 50.0)
    rng = make_rng(15, "record")
    classes = {
        # three rows in all, so two others: too few
        0: (np.array([0, 1, 9]), np.zeros(3, int), np.vstack([rng.standard_normal((2, 6)), far])),
        # four rows, two of them the revoked client's: two others are too few
        1: (np.array([0, 1, 9, 9]), np.zeros(4, int),
            np.vstack([rng.standard_normal((2, 6)), far, far])),
        # the revoked client has no row here
        2: (np.arange(5), np.zeros(5, int), rng.standard_normal((5, 6))),
    }
    defense._record_exemplars(classes, [9])
    assert defense._exemplars == {}
    classes[2] = (np.array([0, 1, 2, 9]), np.zeros(4, int),
                  np.vstack([rng.standard_normal((3, 6)), far]))
    defense._record_exemplars(classes, [9])
    assert list(defense._exemplars) == [2]
    assert np.array_equal(defense._exemplars[2][0], far[0])
