"""Surrogate detection task: IoU, AP, data generation, gradients."""

import numpy as np
import pytest

from stdlens.detection import (ClientDataset, DetectorWeights, average_precision,
                               detector_loss_and_grad, evaluate_per_class_ap,
                               generate_client_dataset, generate_federation_data,
                               iou, predict)
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


def test_iou_contained_box():
    # inner box area fraction of outer = (0.1*0.1)/(0.4*0.4)
    assert iou((0.5, 0.5, 0.1, 0.1), (0.5, 0.5, 0.4, 0.4)) == pytest.approx(
        0.01 / 0.16, rel=1e-12)


# -- average precision -------------------------------------------------------

def _box():
    return (0.5, 0.5, 0.2, 0.2)


def test_ap_ranked_hit_miss_hit_hit():
    # ranks: TP, FP, TP, TP with 3 ground truths
    # precision at recall steps: 1/1, 2/3, 3/4 -> AP = (1 + 2/3 + 3/4)/3
    far = (0.05, 0.05, 0.05, 0.05)
    preds = [
        (0, 0.9, _box()),
        (1, 0.8, far),
        (1, 0.7, _box()),
        (2, 0.6, _box()),
    ]
    gts = [(0, _box()), (1, _box()), (2, _box())]
    assert average_precision(preds, gts) == pytest.approx(
        (1.0 + 2.0 / 3.0 + 3.0 / 4.0) / 3.0, rel=1e-12)
    assert average_precision(preds, gts) == pytest.approx(0.805555555, rel=1e-8)


def test_ap_perfect_detector():
    preds = [(i, 0.9, _box()) for i in range(5)]
    gts = [(i, _box()) for i in range(5)]
    assert average_precision(preds, gts) == pytest.approx(1.0)


def test_ap_no_predictions_is_zero():
    assert average_precision([], [(0, _box())]) == 0.0


def test_ap_no_ground_truth_is_undefined():
    assert average_precision([(0, 0.9, _box())], []) is None
    assert average_precision([], []) is None


def test_ap_duplicate_predictions_on_one_truth():
    # second matching prediction of the same truth is a false positive
    preds = [(0, 0.9, _box()), (0, 0.8, _box())]
    gts = [(0, _box())]
    # PR points: (1, 1.0) then (1, 0.5); AP = 1.0
    assert average_precision(preds, gts) == pytest.approx(1.0)


def test_ap_rejects_bad_threshold():
    with pytest.raises(ValueError):
        average_precision([], [(0, _box())], iou_threshold=0.0)


# -- data generation ---------------------------------------------------------

def test_generate_federation_data_shapes():
    datasets, test, geom, offsets = generate_federation_data(
        0, 5, 8, C=3, d=10, A=2, test_samples=20)
    assert len(datasets) == 5
    for ds in datasets:
        assert ds.x.shape == (8, 10)
        assert ds.classes.shape == (8, 2)
        assert ds.bboxes.shape == (8, 2, 4)
        assert ds.objn.shape == (8, 2)
    assert len(test) == 20
    assert offsets.shape == (5, 10)


def test_generated_labels_consistent():
    datasets, _, _, _ = generate_federation_data(3, 4, 30, C=3, d=10, A=2)
    for ds in datasets:
        fg = ds.classes < 3
        assert (ds.objn == fg).all()
        assert (ds.classes >= 0).all() and (ds.classes <= 3).all()
        # foreground boxes have positive extent, background boxes are zeroed
        assert (ds.bboxes[fg][:, 2:] > 0).all()
        assert (ds.bboxes[~fg] == 0).all()


def test_generation_is_deterministic():
    a, _, _, _ = generate_federation_data(11, 3, 10, C=2, d=8, A=1)
    b, _, _, _ = generate_federation_data(11, 3, 10, C=2, d=8, A=1)
    for da, db in zip(a, b):
        assert np.array_equal(da.x, db.x)
        assert np.array_equal(da.classes, db.classes)
        assert np.array_equal(da.bboxes, db.bboxes)


def test_generation_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        generate_federation_data(0, 2, 5, C=1, d=10, A=1)
    with pytest.raises(ValueError):
        generate_federation_data(0, 2, 5, C=2, d=3, A=1)


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


def test_predict_shapes_and_background_boxes():
    w, batch = _random_pair(2)
    probs, pred_class, boxes, objn = predict(w, batch.x)
    n, A = batch.classes.shape
    assert probs.shape == (n, A, 3)
    assert np.allclose(probs.sum(axis=-1), 1.0)
    bg = pred_class == 2
    assert (boxes[bg] == 0).all()
    assert (objn[bg] == 0).all()


def test_evaluate_per_class_ap_keys():
    w, batch = _random_pair(3, n=20)
    ap = evaluate_per_class_ap(w, batch)
    assert set(ap) == {0, 1}
    for v in ap.values():
        assert v is None or 0.0 <= v <= 1.0
