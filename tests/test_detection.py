"""Surrogate detection task: IoU, AP, data generation, gradients."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stdlens.detection import (BatchTargets, ClientDataset, DetectorWeights,
                               _class_average_precisions, _softmax, average_precision,
                               detector_grad, detector_loss_and_grad,
                               evaluate_per_class_ap, generate_client_dataset,
                               generate_client_datasets, generate_federation_data,
                               iou, predict)
from stdlens.engine import local_update
from stdlens.seeding import make_rng


# -- IoU ---------------------------------------------------------------------

def test_iou_identical_boxes():
    assert iou((0.5, 0.5, 0.2, 0.3), (0.5, 0.5, 0.2, 0.3)) == pytest.approx(1.0)


def test_iou_disjoint_boxes():
    assert iou((0.2, 0.2, 0.1, 0.1), (0.8, 0.8, 0.1, 0.1)) == 0.0


def test_iou_quarter_overlap_corner_boxes():
    # two half-extent boxes offset by half their size share a quarter of
    # each area: intersection 1/16, union 7/16
    a = (0.25, 0.25, 0.5, 0.5)
    b = (0.5, 0.5, 0.5, 0.5)
    assert iou(a, b) == pytest.approx(1.0 / 7.0, rel=1e-12)


def test_iou_rejects_degenerate_boxes():
    with pytest.raises(ValueError):
        iou((0.5, 0.5, 0.0, 0.1), (0.5, 0.5, 0.1, 0.1))
    # any degenerate box among broadcast ones, compared or not
    boxes = np.array([[0.5, 0.5, 0.1, 0.1], [0.5, 0.5, 0.1, -0.1]])
    with pytest.raises(ValueError):
        iou(boxes[:, None], boxes[None, :1])


def test_iou_contained_box():
    # inner box area fraction of outer = (0.1*0.1)/(0.4*0.4)
    assert iou((0.5, 0.5, 0.1, 0.1), (0.5, 0.5, 0.4, 0.4)) == pytest.approx(
        0.01 / 0.16, rel=1e-12)


# -- average precision -------------------------------------------------------

def _box():
    return (0.5, 0.5, 0.2, 0.2)


def _reference_average_precision(predictions, ground_truth, iou_threshold=0.5):
    """Reference: the greedy match as a loop over ranked predictions.

    predictions: list of (sample_id, confidence, bbox), ground_truth: list
    of (sample_id, bbox); each prediction, by confidence then index, takes
    the highest-IoU unmatched truth of its sample (strictly higher wins).
    """
    n_gt = len(ground_truth)
    if n_gt == 0:
        return None
    if not predictions:
        return 0.0
    gt_by_sample: dict = {}
    for gi, (sid, box) in enumerate(ground_truth):
        gt_by_sample.setdefault(sid, []).append((gi, box))
    order = sorted(range(len(predictions)),
                   key=lambda i: (-predictions[i][1], i))
    matched = np.zeros(n_gt, dtype=bool)
    tp = np.zeros(len(order))
    for rank, pi in enumerate(order):
        sid, _, box = predictions[pi]
        best_iou, best_gi = 0.0, -1
        for gi, gbox in gt_by_sample.get(sid, ()):
            if matched[gi]:
                continue
            v = iou(box, gbox)
            if v > best_iou:
                best_iou, best_gi = v, gi
        if best_gi >= 0 and best_iou >= iou_threshold:
            matched[best_gi] = True
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(order) + 1)
    recall = cum_tp / n_gt
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


def _ap_of_lists(predictions, ground_truth):
    """average_precision on the reference's lists, unzipped into arrays."""
    ps, pc, pb = (np.array(col) for col in zip(*predictions)) if predictions else ([],) * 3
    gs, gb = (np.array(col) for col in zip(*ground_truth)) if ground_truth else ([],) * 2
    return average_precision(ps, pc, pb, gs, gb)


_NAN_BOX = (float("nan"),) * 4
# dyadic grid boxes make exactly equal IoUs between different boxes
_match_boxes = (st.tuples(*[st.sampled_from([0.375, 0.5, 0.625])] * 2,
                          *[st.sampled_from([0.25, 0.5])] * 2)
                | st.tuples(st.floats(0.3, 0.7), st.floats(0.3, 0.7),
                            st.floats(0.05, 0.5), st.floats(0.05, 0.5)))


@st.composite
def _match_problems(draw):
    # few boxes, confidences and samples, so that boxes coincide, IoUs and
    # confidences tie, a sample holds several predictions, and some samples
    # hold only predictions or only truths
    pool = draw(st.lists(_match_boxes, min_size=1, max_size=4))
    box = st.sampled_from(pool) | st.just(_NAN_BOX)
    sample = st.integers(0, 3)
    preds = draw(st.lists(st.tuples(sample, st.sampled_from([0.25, 0.5, 0.75]), box),
                          max_size=12))
    truths = draw(st.lists(st.tuples(sample, box), max_size=8))
    return preds, truths


_LEFT, _MID, _RIGHT = (0.375, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5), (0.625, 0.5, 0.5, 0.5)


@settings(max_examples=400, deadline=None)
@given(_match_problems())
# _MID overlaps both truths at IoU 0.6: it must take the first, so that
# _RIGHT can take the second
@example(([(0, 0.75, _MID), (0, 0.25, _RIGHT)], [(0, _LEFT), (0, _RIGHT)]))
# a NaN IoU against the first truth must not block the second
@example(([(0, 0.5, _MID)], [(0, _NAN_BOX), (0, _MID)]))
def test_ap_equals_the_greedy_loop(problem):
    preds, truths = problem
    assert _ap_of_lists(preds, truths) == _reference_average_precision(preds, truths)


def test_ap_ranked_hit_miss_hit_hit():
    # ranks: TP, FP, TP, TP with 3 ground truths
    # precision at recall steps: 1/1, 2/3, 3/4 -> AP = (1 + 2/3 + 3/4)/3
    box, far = _box(), (0.05, 0.05, 0.05, 0.05)
    ap = average_precision(np.array([0, 1, 1, 2]), np.array([0.9, 0.8, 0.7, 0.6]),
                           np.array([box, far, box, box]),
                           np.array([0, 1, 2]), np.array([box, box, box]))
    assert ap == pytest.approx((1.0 + 2.0 / 3.0 + 3.0 / 4.0) / 3.0, rel=1e-12)
    assert ap == pytest.approx(0.805555555, rel=1e-8)


def test_ap_perfect_detector():
    ids, boxes = np.arange(5), np.array([_box()] * 5)
    assert average_precision(ids, np.full(5, 0.9), boxes, ids, boxes) == pytest.approx(1.0)


def test_ap_no_predictions_is_zero():
    none = np.zeros(0)
    assert average_precision(none, none, none.reshape(0, 4),
                             np.array([0]), np.array([_box()])) == 0.0


def test_ap_no_ground_truth_is_undefined():
    none = np.zeros(0)
    assert average_precision(np.array([0]), np.array([0.9]), np.array([_box()]),
                             none, none.reshape(0, 4)) is None
    assert average_precision(none, none, none.reshape(0, 4), none, none.reshape(0, 4)) is None


def test_ap_duplicate_predictions_on_one_truth():
    # second matching prediction of the same truth is a false positive
    ap = average_precision(np.array([0, 0]), np.array([0.9, 0.8]), np.array([_box()] * 2),
                           np.array([0]), np.array([_box()]))
    # PR points: (1, 1.0) then (1, 0.5); AP = 1.0
    assert ap == pytest.approx(1.0)


@st.composite
def _class_match_problems(draw):
    # as _match_problems, over 2-4 classes: one confidence grid for every
    # class, so that predictions of different classes tie
    C = draw(st.integers(2, 4))
    pool = draw(st.lists(_match_boxes, min_size=1, max_size=4))
    box = st.sampled_from(pool) | st.just(_NAN_BOX)
    cls, sample = st.integers(0, C - 1), st.integers(0, 3)
    preds = draw(st.lists(st.tuples(cls, sample, st.sampled_from([0.25, 0.5, 0.75]), box),
                          max_size=16))
    truths = draw(st.lists(st.tuples(cls, sample, box), max_size=10))
    return C, preds, truths


def _field(rows, j, dtype, *shape):
    """Field j of a list of tuples as a (len(rows), *shape) array."""
    return np.array([r[j] for r in rows], dtype=dtype).reshape(len(rows), *shape)


@settings(max_examples=300, deadline=None)
@given(_class_match_problems())
# class 0 ties class 2 on confidence in the same sample; class 1 has a truth
# and no prediction, class 2 predictions and no truth
@example((3, [(0, 0, 0.5, _MID), (2, 0, 0.5, _MID), (0, 1, 0.5, _LEFT)],
          [(0, 0, _MID), (1, 1, _LEFT), (0, 1, _RIGHT)]))
def test_all_class_matcher_equals_average_precision_per_class(problem):
    C, preds, truths = problem
    pc, ps, pconf = (_field(preds, j, t) for j, t in enumerate((np.int64, np.int64, float)))
    pb = _field(preds, 3, float, 4)
    tc, ts = (_field(truths, j, np.int64) for j in (0, 1))
    tb = _field(truths, 2, float, 4)
    expected = {c: average_precision(ps[pc == c], pconf[pc == c], pb[pc == c],
                                     ts[tc == c], tb[tc == c]) for c in range(C)}
    assert _class_average_precisions(C, pc, ps, pconf, pb, tc, ts, tb) == expected
    assert expected == {c: _reference_average_precision(
        [p[1:] for p in preds if p[0] == c], [t[1:] for t in truths if t[0] == c])
        for c in range(C)}


# -- data generation ---------------------------------------------------------

def _client_datasets(seed, N, n, C, d, A, **kw):
    """Round-0 data of N clients, drawn as the federation loop draws it."""
    _, geom, offsets = generate_federation_data(seed, N, C, d, A, **kw)
    return [generate_client_dataset(geom, make_rng(seed, "data", i, 0), n, C, d, A,
                                    feature_noise=kw.get("feature_noise", 0.6),
                                    offset=offsets[i])
            for i in range(N)]


def _reference_client_dataset(geom, rng, n, C, d, A, *, feature_noise, offset=None):
    """Reference: one client's draws and arithmetic, client by client."""
    fg = rng.random((n, A)) >= 0.25
    classes = np.where(fg, rng.integers(0, C, size=(n, A)), C)
    x = feature_noise * rng.standard_normal((n, d))
    s = geom.slice_size
    for a in range(A):
        x[:, a * s:(a + 1) * s] += geom.prototypes[a, classes[:, a]]
    x[:, -1] = 1.0
    if offset is not None:
        x[:, :-1] += offset[:-1]
    sizes = np.where(fg, geom.base_sizes[np.minimum(classes, C - 1)], 0.0)
    sizes = sizes * np.exp(0.08 * rng.standard_normal((n, A)))
    centers = 0.5 + rng.uniform(-0.04, 0.04, size=(n, A, 2))
    bboxes = np.zeros((n, A, 4))
    bboxes[..., 0] = centers[..., 0]
    bboxes[..., 1] = centers[..., 1]
    bboxes[..., 2] = np.clip(sizes, 1e-3, 1.0)
    bboxes[..., 3] = np.clip(sizes * np.exp(0.02 * rng.standard_normal((n, A))), 1e-3, 1.0)
    bboxes[~fg] = 0.0
    return ClientDataset(x, classes.astype(np.int64), bboxes, fg.copy())


@settings(max_examples=80, deadline=None)
@given(P=st.integers(1, 4), n=st.integers(1, 6), C=st.integers(2, 5),
       d=st.integers(4, 12), A=st.integers(1, 5), with_offsets=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_one_pass_round_matches_per_client_draws(P, n, C, d, A, with_offsets, seed):
    # A up to 5 with d from 4: feature slices also overlap the bias column
    _, geom, offsets = generate_federation_data(seed, P, C, d, A, test_samples=1)
    offsets = offsets if with_offsets else None
    rngs = [make_rng(seed, "data", i, 3) for i in range(P)]
    batch = generate_client_datasets(geom, rngs, n, C, d, A, feature_noise=0.6,
                                     offsets=offsets)
    for i, rng in enumerate(rngs):
        for one in (generate_client_dataset, _reference_client_dataset):
            own = make_rng(seed, "data", i, 3)
            ds = one(geom, own, n, C, d, A, feature_noise=0.6,
                     offset=None if offsets is None else offsets[i])
            for f in ("x", "classes", "bboxes", "objn"):
                got, want = getattr(batch, f)[i], getattr(ds, f)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            assert own.bit_generator.state == rng.bit_generator.state


def test_generate_federation_data_shapes():
    test, geom, offsets = generate_federation_data(0, 5, C=3, d=10, A=2, test_samples=20)
    assert test.x.shape == (20, 10)
    assert test.classes.shape == (20, 2)
    assert test.bboxes.shape == (20, 2, 4)
    assert test.objn.shape == (20, 2)
    assert geom.prototypes.shape == (2, 4, geom.slice_size)
    assert offsets.shape == (5, 10)
    for ds in _client_datasets(0, 5, 8, C=3, d=10, A=2, test_samples=20):
        assert ds.x.shape == (8, 10)
        assert ds.classes.shape == (8, 2)
        assert ds.bboxes.shape == (8, 2, 4)
        assert ds.objn.shape == (8, 2)


def test_generated_labels_consistent():
    for ds in _client_datasets(3, 4, 30, C=3, d=10, A=2):
        fg = ds.classes < 3
        assert (ds.objn == fg).all()
        assert (ds.classes >= 0).all() and (ds.classes <= 3).all()
        # foreground boxes have positive extent, background boxes are zeroed
        assert (ds.bboxes[fg][:, 2:] > 0).all()
        assert (ds.bboxes[~fg] == 0).all()


def test_generation_is_deterministic():
    a, b = (generate_federation_data(11, 3, C=2, d=8, A=1) for _ in range(2))
    for da, db in zip([a[0]] + _client_datasets(11, 3, 10, C=2, d=8, A=1),
                      [b[0]] + _client_datasets(11, 3, 10, C=2, d=8, A=1)):
        assert np.array_equal(da.x, db.x)
        assert np.array_equal(da.classes, db.classes)
        assert np.array_equal(da.bboxes, db.bboxes)
    assert np.array_equal(a[2], b[2])


def test_generation_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        generate_federation_data(0, 2, C=1, d=10, A=1)
    with pytest.raises(ValueError):
        generate_federation_data(0, 2, C=2, d=3, A=1)


# -- loss and gradients ------------------------------------------------------

def _random_pair(seed, n=5, A=2, C=2, d=5):
    rng = make_rng(seed, "fd-pair")
    w = DetectorWeights(0.3 * rng.standard_normal((A, C + 1, d)),
                        0.3 * rng.standard_normal((A, C, 4, d)),
                        0.3 * rng.standard_normal((A, C, d)))
    classes = rng.integers(0, C + 1, size=(n, A))
    fg = classes < C
    boxes = np.zeros((n, A, 4))
    boxes[..., :2] = rng.uniform(0.3, 0.7, size=(n, A, 2))
    boxes[..., 2:] = rng.uniform(0.1, 0.4, size=(n, A, 2))
    boxes[~fg] = 0.0
    batch = ClientDataset(rng.standard_normal((n, d)), classes, boxes, fg)
    return w, batch


def _empty(batch):
    return ClientDataset(batch.x[:0], batch.classes[:0], batch.bboxes[:0],
                         batch.objn[:0])


def test_gradient_matches_finite_differences():
    A, C, d = 2, 2, 5
    w, batch = _random_pair(0)
    loss, grad = detector_loss_and_grad(w, batch)
    vec = w.to_vector()
    gvec = grad.to_vector()
    eps = 1e-6
    for i in range(0, len(vec), 7):          # spot-check every 7th coordinate
        vp, vm = vec.copy(), vec.copy()
        vp[i] += eps
        vm[i] -= eps
        lp, _ = detector_loss_and_grad(DetectorWeights.from_vector(vp, A, C, d), batch)
        lm, _ = detector_loss_and_grad(DetectorWeights.from_vector(vm, A, C, d), batch)
        fd = (lp - lm) / (2 * eps)
        assert fd == pytest.approx(gvec[i], rel=1e-5, abs=1e-8)


def _per_anchor_loss_and_grad(w, batch):
    """Reference: the loss and gradient with one loop per anchor."""
    n, A = batch.classes.shape
    C = w.w_objn.shape[1]
    norm = 1.0 / (n * A)
    logits = np.einsum("acd,nd->nac", w.w_class, batch.x)
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    onehot = np.eye(C + 1)[batch.classes]
    loss = -norm * np.sum(np.log(np.sum(probs * onehot, axis=-1)))
    g_class = norm * np.einsum("nac,nd->acd", probs - onehot, batch.x)
    g_bbox, g_objn = np.zeros_like(w.w_bbox), np.zeros_like(w.w_objn)
    targets = batch.bboxes.copy()
    targets[..., 2:] = np.log(np.maximum(targets[..., 2:], 1e-9))
    for a in range(A):
        for i in np.nonzero(batch.classes[:, a] < C)[0]:
            c, x = batch.classes[i, a], batch.x[i]
            resid = w.w_bbox[a, c] @ x - targets[i, a]
            loss += norm * 0.5 * resid @ resid
            g_bbox[a, c] += norm * np.outer(resid, x)
            z, t = w.w_objn[a, c] @ x, float(batch.objn[i, a])
            loss += norm * (np.log1p(np.exp(-abs(z))) + max(z, 0.0) - t * z)
            g_objn[a, c] += norm * (1 / (1 + np.exp(-z)) - t) * x
    return loss, DetectorWeights(g_class, g_bbox, g_objn)


# (A, C, d): A, C, 4 and d pairwise distinct, so a head axis read in the
# wrong place gives a wrong shape; then the smallest task the generators allow
TASK_SHAPES = [(2, 3, 5), (3, 2, 7), (5, 6, 9), (1, 2, 4)]
_task_shapes = pytest.mark.parametrize("A, C, d", TASK_SHAPES,
                                       ids=[f"A{A}-C{C}-d{d}" for A, C, d in TASK_SHAPES])


@_task_shapes
def test_gradient_matches_the_per_anchor_reference(A, C, d):
    for seed in range(10):
        w, batch = _random_pair(50 + seed, n=8, A=A, C=C, d=d)
        loss, grad = detector_loss_and_grad(w, batch)
        ref_loss, ref_grad = _per_anchor_loss_and_grad(w, batch)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert np.allclose(grad.to_vector(), ref_grad.to_vector(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", range(2, 13))
def test_softmax_equals_the_reduce_reference_bit_for_bit(k):
    rng = make_rng(k, "softmax")
    z = rng.standard_normal((8, 5, k)) * rng.choice([1.0, 40.0, 700.0, 1e300],
                                                    size=(8, 5, 1))
    z[0] = 0.0                                   # all tied
    z[1, :, ::2] = z[1, :, :1]                   # a tied maximum
    z[2, :, 0] = -0.0                            # signed zeros tie
    z[2, :, 1:] = rng.choice([0.0, -0.0, -1.0], size=(5, k - 1))
    z[3, :, : k // 2] = 1e300                    # large tied logits
    ref = z - z.max(axis=-1, keepdims=True)
    ref = np.exp(ref)
    ref = ref / ref.sum(axis=-1, keepdims=True)
    assert _softmax(z).tobytes() == ref.tobytes()


@_task_shapes
def test_training_gradient_core_equals_the_loss_gradient(A, C, d):
    pairs = [_random_pair(seed, n=6, A=A, C=C, d=d) for seed in (60, 61, 62)]
    batch = ClientDataset.stack([b for _, b in pairs])
    targets = BatchTargets.of(batch, C)
    # shared weights, as in a round's first epoch, then per-client weights
    for w in (pairs[0][0], _stack_weights([w for w, _ in pairs])):
        grad, _ = detector_grad(w, batch.x, targets)
        _, ref = detector_loss_and_grad(w, batch)
        assert grad.to_vector().tobytes() == ref.to_vector().tobytes()
    # local training takes exactly these steps
    w = pairs[0][0]
    stepped = w
    for _ in range(3):
        stepped = stepped.sub(detector_loss_and_grad(stepped, batch)[1].scaled(0.7))
    assert (local_update(batch, w, 3, 0.7).to_vector().tobytes()
            == stepped.sub(w).to_vector().tobytes())


def _stack_weights(ws):
    return DetectorWeights(np.stack([w.w_class for w in ws]),
                           np.stack([w.w_bbox for w in ws]),
                           np.stack([w.w_objn for w in ws]))


@_task_shapes
def test_stacked_call_matches_per_client_calls(A, C, d):
    # P = 3 clients, each with its own weights, as after a round's first step
    pairs = [_random_pair(seed, n=6, A=A, C=C, d=d) for seed in (30, 31, 32)]
    weights = _stack_weights([w for w, _ in pairs])
    batch = ClientDataset.stack([b for _, b in pairs])
    losses, grads = detector_loss_and_grad(weights, batch)
    assert losses.shape == (3,)
    for i, (w, b) in enumerate(pairs):
        loss, grad = detector_loss_and_grad(w, b)
        assert abs(losses[i] - loss) <= 1e-12
        assert np.abs(grads[i].to_vector() - grad.to_vector()).max() <= 1e-12
    # shared (unstacked) weights broadcast over the clients, as in a round's
    # first step
    w0 = pairs[0][0]
    losses, grads = detector_loss_and_grad(w0, batch)
    for i, (_, b) in enumerate(pairs):
        loss, grad = detector_loss_and_grad(w0, b)
        assert abs(losses[i] - loss) <= 1e-12
        assert np.abs(grads[i].to_vector() - grad.to_vector()).max() <= 1e-12


def test_stacked_gradient_matches_finite_differences():
    # each client's loss depends on its own weights only, so the gradient of
    # the summed losses is the stacked gradient
    pairs = [_random_pair(seed, n=6) for seed in (40, 41, 42)]
    weights = _stack_weights([w for w, _ in pairs])
    batch = ClientDataset.stack([b for _, b in pairs])
    _, grad = detector_loss_and_grad(weights, batch)
    eps = 1e-6
    for field in ("w_class", "w_bbox", "w_objn"):
        base, g = getattr(weights, field), getattr(grad, field)
        for i in range(0, base.size, 5):     # spot-check every 5th coordinate
            idx = np.unravel_index(i, base.shape)
            sums = []
            for step in (eps, -eps):
                moved = dataclasses.replace(weights, **{field: base.copy()})
                getattr(moved, field)[idx] += step
                sums.append(detector_loss_and_grad(moved, batch)[0].sum())
            fd = (sums[0] - sums[1]) / (2 * eps)
            assert fd == pytest.approx(g[idx], rel=1e-5, abs=1e-8)


def test_loss_batch_duplication_invariant():
    w, batch = _random_pair(5)
    doubled = ClientDataset(np.vstack([batch.x, batch.x]),
                            np.vstack([batch.classes, batch.classes]),
                            np.vstack([batch.bboxes, batch.bboxes]),
                            np.vstack([batch.objn, batch.objn]))
    l1, g1 = detector_loss_and_grad(w, batch)
    l2, g2 = detector_loss_and_grad(w, doubled)
    assert l1 == pytest.approx(l2, rel=1e-12)
    assert np.allclose(g1.to_vector(), g2.to_vector(), atol=1e-14)


def test_loss_rejects_empty_batch():
    w, batch = _random_pair(1)
    with pytest.raises(ValueError):
        detector_loss_and_grad(w, _empty(batch))


def test_zero_weights_class_loss_is_uniform_entropy():
    # all-background batch: only the classification term contributes and
    # softmax over C+1 logits of 0 gives log(C+1) per anchor
    A, C, d = 2, 2, 5
    w = DetectorWeights.zeros(A, C, d)
    rng = make_rng(9, "bg")
    n = 4
    batch = ClientDataset(rng.standard_normal((n, d)),
                          np.full((n, A), C, dtype=np.int64),
                          np.zeros((n, A, 4)),
                          np.zeros((n, A), dtype=bool))
    loss, _ = detector_loss_and_grad(w, batch)
    assert loss == pytest.approx(np.log(C + 1), rel=1e-12)


@_task_shapes
def test_predict_shapes_and_background_boxes(A, C, d):
    n = 20
    w, batch = _random_pair(2, n=n, A=A, C=C, d=d)
    probs, pred_class, boxes, objn = predict(w, batch.x)
    assert probs.shape == (n, A, C + 1)
    assert pred_class.shape == objn.shape == (n, A)
    assert boxes.shape == (n, A, 4)
    assert np.allclose(probs.sum(axis=-1), 1.0)
    # the class head as a per-anchor product
    logits = np.stack([batch.x @ w.w_class[a].T for a in range(A)], axis=1)
    assert np.allclose(np.log(probs) - np.log(probs[..., -1:]),
                       logits - logits[..., -1:], rtol=0, atol=1e-9)
    bg = pred_class == C
    assert (boxes[bg] == 0).all()
    assert (objn[bg] == 0).all()
    # a foreground anchor reads the head rows of its predicted class
    for i, a in zip(*np.nonzero(~bg)):
        c = pred_class[i, a]
        t = w.w_bbox[a, c] @ batch.x[i]
        assert np.allclose(boxes[i, a], [t[0], t[1], np.exp(t[2]), np.exp(t[3])])
        assert objn[i, a] == pytest.approx(1 / (1 + np.exp(-w.w_objn[a, c] @ batch.x[i])))


def test_evaluate_per_class_ap_matches_the_per_anchor_reference():
    A, C, d = 2, 3, 10
    for seed in range(3):
        # a briefly trained detector, so that some predictions match
        test, _, _ = generate_federation_data(seed, 1, C=C, d=d, A=A, test_samples=60)
        (train,) = _client_datasets(seed, 1, 200, C=C, d=d, A=A, test_samples=60)
        w = local_update(train, DetectorWeights.zeros(A, C, d), 40, 1.0)
        probs, pred_class, boxes, objn = predict(w, test.x)
        preds, gts = [[] for _ in range(C)], [[] for _ in range(C)]
        for i in range(len(test)):
            for a in range(A):
                c, tc = pred_class[i, a], test.classes[i, a]
                if c < C:
                    preds[c].append((i, float(probs[i, a, c] * objn[i, a]), boxes[i, a]))
                if tc < C:
                    gts[tc].append((i, test.bboxes[i, a]))
        ap = evaluate_per_class_ap(w, test)
        assert ap == {c: _reference_average_precision(preds[c], gts[c]) for c in range(C)}
        assert all(0.0 < v < 1.0 for v in ap.values())


def test_evaluate_per_class_ap_keys():
    w, batch = _random_pair(3, n=20)
    ap = evaluate_per_class_ap(w, batch)
    assert set(ap) == {0, 1}
    for v in ap.values():
        assert v is None or 0.0 <= v <= 1.0
