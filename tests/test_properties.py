"""Property-based invariants (hypothesis)."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stdlens.attacks import apply_poison
from stdlens.detection import ClientDataset, DetectorWeights
from stdlens.engine import fedavg_aggregate, run_federation
from stdlens.config import AttackSpec, CONFIDENCE_TO_Z
from stdlens.forensics import (GradientContribution, round_class_blocks,
                               sigma_zone_partition, temporal_signature, two_means_1d)
from stdlens.metrics import build_defense, vary
from stdlens.replay import replay_stream
from stdlens.seeding import derive_seed
from tests.conftest import make_tiny_config
from tests.test_detection import iou

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _trajectories():
    return arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(1, 4)),
                  elements=st.floats(-100, 100, allow_nan=False, width=32))


@given(_trajectories(), st.integers(1, 3))
def test_temporal_signature_translation_invariant(traj, omega):
    base = temporal_signature(traj, omega)
    shifted = temporal_signature(traj + 7.5, omega)
    if base is None:
        assert shifted is None
    else:
        assert abs(shifted - base) < 1e-6 * max(1.0, abs(base))


@given(_trajectories(), st.integers(1, 3),
       st.floats(0.0, 50.0, allow_nan=False))
def test_temporal_signature_positively_homogeneous(traj, omega, scale):
    base = temporal_signature(traj, omega)
    scaled = temporal_signature(scale * traj, omega)
    if base is None:
        assert scaled is None
    else:
        assert abs(scaled - scale * base) <= 1e-6 * max(1.0, scale * abs(base))


@given(_trajectories(), st.integers(1, 3))
def test_temporal_signature_nonnegative(traj, omega):
    v = temporal_signature(traj, omega)
    assert v is None or v >= 0.0


def _inertia(x, labels):
    return sum(((x[labels == c] - x[labels == c].mean()) ** 2).sum()
               for c in set(labels.tolist()))


@given(arrays(np.float64, st.integers(2, 9),
              elements=st.floats(-1e3, 1e3, allow_nan=False)), st.data())
def test_two_means_1d_exact_and_permutation_equivariant(x, data):
    labels = two_means_1d(x)
    n = len(x)
    brute = min(_inertia(x, np.array((0,) + split))
                for split in itertools.product((0, 1), repeat=n - 1) if any(split))
    scale = 1.0 + ((x - x.mean()) ** 2).sum()
    assert _inertia(x, labels) <= brute + 1e-9 * scale
    perm = np.array(data.draw(st.permutations(range(n))))
    assert np.array_equal(two_means_1d(x[perm]), labels[perm])


def _sigma_zone_labels(values, assignments, z):
    """The per-point zone labelling that the uncertainty mask replaced,
    kept as its oracle: "confident-<k>", "uncertain" or "outside"."""
    clusters = sorted(set(assignments.tolist()))
    means, stds, intervals = {}, {}, {}
    for c in clusters:
        pts = values[assignments == c]
        means[c] = float(pts.mean())
        stds[c] = float(pts.std(ddof=1)) if len(pts) >= 2 else 0.0
        intervals[c] = (means[c] - z * stds[c], means[c] + z * stds[c])
    gap = None
    if len(clusters) == 2:
        (l0, h0), (l1, h1) = intervals[clusters[0]], intervals[clusters[1]]
        lo, hi = (h0, l1) if means[clusters[0]] <= means[clusters[1]] else (h1, l0)
        if lo < hi:
            gap = (lo, hi)
    labels = []
    for v, c in zip(values, assignments):
        lo_c, hi_c = intervals[c]
        if stds[c] == 0.0 and v != means[c]:
            labels.append("uncertain")
        elif lo_c <= v <= hi_c:
            labels.append(f"confident-{c}")
        elif gap is not None and gap[0] < v < gap[1]:
            labels.append("uncertain")
        else:
            labels.append("outside")
    return labels


# small integers give ties, singletons and overlapping intervals; 3e-161
# repeated 7 times has a mean one ulp off and a standard deviation that
# underflows to 0, the zero-spread branch
_zone_values = st.one_of(st.integers(-3, 3).map(float),
                         st.floats(-1e3, 1e3, allow_nan=False),
                         st.sampled_from([3e-161, 7e-171]))


@given(st.lists(st.tuples(_zone_values, st.integers(0, 1)), min_size=1, max_size=12),
       st.sampled_from(sorted(CONFIDENCE_TO_Z)))
@example([(3e-161, 0)] * 7, 0.99)
@example([(3e-161, 0)] * 7 + [(5.0, 1), (6.0, 1)], 0.99)
@example([(0.0, 0), (1.0, 0), (2.0, 0), (1.5, 1), (2.5, 1), (3.5, 1)], 0.99)
@example([(0.0, 0), (0.1, 0), (-0.1, 0), (10.0, 1), (10.1, 1), (9.9, 1), (5.0, 0)], 0.68)
@example([(0.0, 1), (0.1, 1), (-0.1, 1), (10.0, 0), (10.1, 0), (9.9, 0), (5.0, 1)], 0.68)
def test_sigma_zone_mask_matches_the_labelling_oracle(points, confidence):
    values = np.array([v for v, _ in points])
    assignments = np.array([c for _, c in points])
    want = [lab == "uncertain" for lab in
            _sigma_zone_labels(values, assignments, CONFIDENCE_TO_Z[confidence])]
    assert sigma_zone_partition(values, assignments, confidence).tolist() == want


_boxes = st.tuples(st.floats(0, 1), st.floats(0, 1),
                   st.floats(0.01, 1), st.floats(0.01, 1))


@given(_boxes, _boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert v == iou(b, a)


@given(_boxes)
def test_iou_identity(a):
    assert abs(iou(a, a) - 1.0) < 1e-12


@given(st.lists(_boxes, min_size=1, max_size=5), st.lists(_boxes, min_size=1, max_size=5))
def test_iou_broadcast_equals_the_scalar_call_for_every_pair(a, b):
    pairwise = iou(np.array(a)[:, None], np.array(b)[None])
    assert pairwise.shape == (len(a), len(b))
    assert pairwise.tolist() == [[iou(x, y) for y in b] for x in a]


@given(st.lists(st.tuples(finite, st.integers(1, 100)), min_size=1, max_size=8))
def test_fedavg_bounded_by_update_range(values):
    size = len(DetectorWeights.zeros(1, 2, 4).to_vector())
    deltas = DetectorWeights.from_vector(
        np.array([[v] * size for v, _ in values]), 1, 2, 4)
    agg = fedavg_aggregate(deltas, [cnt for _, cnt in values]).to_vector()
    lo, hi = min(v for v, _ in values), max(v for v, _ in values)
    assert (agg >= lo - 1e-9 * max(1, abs(lo))).all()
    assert (agg <= hi + 1e-9 * max(1, abs(hi))).all()


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 10))
    A = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = rng.integers(0, 4, size=(n, A)).astype(np.int64)  # 3 fg + bg
    fg = classes < 3
    boxes = np.zeros((n, A, 4))
    boxes[..., :2] = rng.uniform(0.2, 0.8, size=(n, A, 2))
    boxes[..., 2:] = rng.uniform(0.05, 0.5, size=(n, A, 2))
    boxes[~fg] = 0.0
    return ClientDataset(rng.standard_normal((n, 5)), classes, boxes, fg)


@settings(max_examples=50)
@given(_datasets())
def test_class_poison_locality_and_conservation(ds):
    out = apply_poison(AttackSpec("class", source_class=0, target_class=1), ds,
                       np.ones(len(ds), dtype=bool), None, background_class=3)
    untouched = ds.classes != 0
    assert np.array_equal(out.classes[untouched], ds.classes[untouched])
    assert (out.classes[~untouched] == 1).all()
    assert int((out.classes < 3).sum()) == int((ds.classes < 3).sum())
    assert np.array_equal(out.objn, ds.objn)


@settings(max_examples=50)
@given(_datasets())
def test_objn_poison_only_removes(ds):
    out = apply_poison(AttackSpec("objn", source_class=0), ds,
                       np.ones(len(ds), dtype=bool), None, background_class=3)
    assert int((out.classes < 3).sum()) == int((ds.classes < 3).sum()) - int(
        (ds.classes == 0).sum())
    # never converts background to foreground or adds objects
    assert (~out.objn | ds.objn).all()


@given(st.integers(0, 2**64 - 1), st.text(max_size=20),
       st.lists(st.integers(-1000, 1000), max_size=4))
def test_seed_derivation_deterministic(master, tag, idx):
    assert derive_seed(master, tag, *idx) == derive_seed(master, tag, *idx)
    assert 0 <= derive_seed(master, tag, *idx) < 2**64


def test_seed_derivation_separates_streams():
    seen = {derive_seed(0, "a", i) for i in range(1000)}
    seen |= {derive_seed(0, "b", i) for i in range(1000)}
    assert len(seen) == 2000


# -- ordering invariants of the defenses ---------------------------------------

@functools.lru_cache(maxsize=3)
def _tiny_stream(seed):
    """The per-round contribution stream of an undefended tiny-config run."""
    cfg = vary(make_tiny_config(), defense="none", seed=seed)
    stream = []

    def hook(rnd, client_ids, deltas):
        blocks = round_class_blocks(deltas)
        stream.append([GradientContribution(cid, rnd, c, blocks[i, c])
                       for i, cid in enumerate(client_ids)
                       for c in range(cfg.task.num_classes)])

    run_federation(cfg, stream_hook=hook, eval_every=cfg.federation.rounds)
    return cfg, stream


def _revocations(seed, defense, stream):
    cfg, _ = _tiny_stream(seed)
    events, _ = replay_stream(build_defense(vary(cfg, defense=defense)), stream)
    return set(events)


def _reversed(contribs):
    return contribs[::-1]


def _rotated(contribs):
    return contribs[1:] + contribs[:1]


@pytest.mark.parametrize("defense", ["stdlens", "spatial", "spectral"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False).map(
    lambda rnd: lambda contribs: rnd.sample(contribs, len(contribs))))
@example(_reversed)
@example(_rotated)
def test_revocations_ignore_the_order_within_a_round(seed, defense, reorder):
    _, stream = _tiny_stream(seed)
    shuffled = [reorder(contribs) for contribs in stream]
    assert (_revocations(seed, defense, shuffled)
            == _revocations(seed, defense, stream))


@pytest.mark.parametrize("defense", ["stdlens", "spatial", "spectral"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@settings(max_examples=10, deadline=None)
@given(st.permutations(range(make_tiny_config().federation.num_clients)))
def test_revocations_follow_a_relabeling_of_client_ids(seed, defense, perm):
    _, stream = _tiny_stream(seed)
    relabeled = [[GradientContribution(perm[g.client_id], g.round, g.class_id, g.block)
                  for g in contribs] for contribs in stream]
    assert (_revocations(seed, defense, relabeled)
            == {(r, perm[c]) for r, c in _revocations(seed, defense, stream)})
