"""Label-space poisons and their adaptive wrappers."""

import numpy as np
import pytest

from stdlens.attacks import (apply_poison, effective_poison_for_round,
                             poison_bbox, poison_class, poison_objn)
from stdlens.config import AttackSpec
from stdlens.detection import ClientDataset, iou
from stdlens.seeding import make_rng

C, BG = 3, 3  # foreground classes 0..2, background index 3


def _dataset(seed=0, n=20, A=2):
    rng = make_rng(seed, "attack-data")
    classes = rng.integers(0, C + 1, size=(n, A)).astype(np.int64)
    fg = classes < C
    boxes = np.zeros((n, A, 4))
    boxes[..., :2] = rng.uniform(0.3, 0.7, size=(n, A, 2))
    boxes[..., 2:] = rng.uniform(0.2, 0.5, size=(n, A, 2))
    boxes[~fg] = 0.0
    return ClientDataset(rng.standard_normal((n, 6)), classes, boxes, fg)


# -- class poison ------------------------------------------------------------

def test_class_poison_moves_all_source_anchors():
    ds = _dataset()
    n_src = int((ds.classes == 0).sum())
    n_tgt = int((ds.classes == 1).sum())
    assert n_src > 0
    out = poison_class(ds, 0, 1)
    assert int((out.classes == 0).sum()) == 0
    assert int((out.classes == 1).sum()) == n_tgt + n_src
    # total foreground count conserved
    assert int((out.classes < C).sum()) == int((ds.classes < C).sum())


def test_class_poison_leaves_other_classes_untouched():
    ds = _dataset()
    out = poison_class(ds, 0, 1)
    other = ds.classes == 2
    assert np.array_equal(out.classes[other], ds.classes[other])
    assert np.allclose(out.bboxes, ds.bboxes)
    assert np.array_equal(out.objn, ds.objn)
    assert np.allclose(out.x, ds.x)


def test_class_poison_is_idempotent():
    ds = _dataset()
    once = poison_class(ds, 0, 1)
    twice = poison_class(once, 0, 1)
    assert np.array_equal(once.classes, twice.classes)


def test_class_poison_does_not_mutate_input():
    ds = _dataset()
    before = ds.classes.copy()
    poison_class(ds, 0, 1)
    assert np.array_equal(ds.classes, before)


def test_class_poison_rejects_equal_classes():
    with pytest.raises(ValueError):
        poison_class(_dataset(), 1, 1)


# -- bbox poison -------------------------------------------------------------

def test_bbox_poison_shrinks_by_factor():
    ds = _dataset()
    out = poison_bbox(ds, 0, make_rng(1, "bbox"))
    hit = ds.classes == 0
    assert np.allclose(out.bboxes[hit][:, 2], ds.bboxes[hit][:, 2] * 0.10)
    assert np.allclose(out.bboxes[hit][:, 3], ds.bboxes[hit][:, 3] * 0.10)
    assert np.allclose(out.bboxes[~hit], ds.bboxes[~hit])
    assert np.array_equal(out.classes, ds.classes)


def test_bbox_poison_center_jitter_bounds():
    # shrinking (0.5, 0.5, 0.4, 0.4) by 0.10 gives a 0.04 x 0.04 box whose
    # center moves at most (1-0.1)*0.4/2 = 0.18 per axis
    n = 200
    boxes = np.tile(np.array([0.5, 0.5, 0.4, 0.4]), (n, 1, 1))
    ds = ClientDataset(np.zeros((n, 6)), np.zeros((n, 1), dtype=np.int64),
                       boxes, np.ones((n, 1), dtype=bool))
    out = poison_bbox(ds, 0, make_rng(2, "bbox"))
    assert np.allclose(out.bboxes[..., 2], 0.04)
    assert np.allclose(out.bboxes[..., 3], 0.04)
    assert (np.abs(out.bboxes[..., 0] - 0.5) <= 0.18 + 1e-12).all()
    assert (np.abs(out.bboxes[..., 1] - 0.5) <= 0.18 + 1e-12).all()


def test_bbox_poison_concentric_iou():
    # a concentric 10%-shrunk box has IoU = 0.01 with the original
    assert iou((0.5, 0.5, 0.4, 0.4), (0.5, 0.5, 0.04, 0.04)) == pytest.approx(
        0.01, rel=1e-12)


# -- objn poison -------------------------------------------------------------

def test_objn_poison_erases_source_objects():
    ds = _dataset()
    n_src = int((ds.classes == 0).sum())
    assert n_src > 0
    out = poison_objn(ds, 0, BG)
    assert int((out.classes == 0).sum()) == 0
    assert int((out.classes < C).sum()) == int((ds.classes < C).sum()) - n_src
    hit = ds.classes == 0
    assert not out.objn[hit].any()
    assert (out.bboxes[hit] == 0).all()


def test_objn_poison_noop_without_source_objects():
    ds = _dataset()
    ds.classes[ds.classes == 0] = 2
    out = poison_objn(ds, 0, BG)
    assert np.array_equal(out.classes, ds.classes)
    assert np.array_equal(out.objn, ds.objn)


def test_objn_poison_is_idempotent():
    ds = _dataset()
    once = poison_objn(ds, 0, BG)
    twice = poison_objn(once, 0, BG)
    assert np.array_equal(once.classes, twice.classes)
    assert np.array_equal(once.objn, twice.objn)


# -- adaptive wrapper --------------------------------------------------------

def _spec(**kw):
    base = dict(poison_type="class", source_class=0, target_class=1)
    base.update(kw)
    return AttackSpec(**base)


def test_degenerate_adaptive_equals_base_attack():
    ds = _dataset()
    out, poisoned, idx = effective_poison_for_round(
        _spec(beta=0.0, gamma=1.0, onset_round=0), 3, 5, ds, 42,
        background_class=BG)
    assert poisoned
    assert len(idx) == len(ds)
    assert np.array_equal(out.classes, poison_class(ds, 0, 1).classes)


def test_before_onset_is_clean():
    ds = _dataset()
    out, poisoned, idx = effective_poison_for_round(
        _spec(onset_round=100), 3, 50, ds, 42, background_class=BG)
    assert not poisoned
    assert len(idx) == 0
    assert out is ds


def test_gamma_poisons_exact_sample_count():
    ds = _dataset(n=20)
    out, poisoned, idx = effective_poison_for_round(
        _spec(gamma=0.6), 3, 5, ds, 42, background_class=BG)
    assert poisoned
    assert len(idx) == 12
    untouched = np.setdiff1d(np.arange(len(ds)), idx)
    assert np.array_equal(out.classes[untouched], ds.classes[untouched])
    assert int((out.classes[idx] == 0).sum()) == 0


def test_gamma_payload_replays_identically_across_rounds():
    ds = _dataset(n=20)
    _, _, idx5 = effective_poison_for_round(_spec(gamma=0.5), 3, 5, ds, 42,
                                            background_class=BG)
    _, _, idx9 = effective_poison_for_round(_spec(gamma=0.5), 3, 9, ds, 42,
                                            background_class=BG)
    assert np.array_equal(idx5, idx9)


def test_beta_skip_rate_in_binomial_band():
    ds = _dataset(n=4)
    spec = _spec(beta=0.10)
    clean = sum(
        not effective_poison_for_round(spec, cid, rnd, ds, 42,
                                       background_class=BG)[1]
        for cid in range(10) for rnd in range(100))
    # 1000 Bernoulli(0.1) draws: mean 100, 3-sigma band +/- 28.5
    assert 100 - 30 <= clean <= 100 + 30


def test_apply_poison_rejects_unknown_type():
    spec = AttackSpec(poison_type="class")
    object.__setattr__(spec, "poison_type", "pixel")
    with pytest.raises(ValueError):
        apply_poison(spec, _dataset(), make_rng(0, "x"), background_class=BG)
