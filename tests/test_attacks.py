"""Label-space poisons, the payload and the per-round send decision."""

import dataclasses

import numpy as np
import pytest

from stdlens import engine
from stdlens.attacks import (SHRINK_FACTOR, apply_poison, effective_poison_for_round,
                             poison_payload)
from stdlens.config import AttackSpec
from stdlens.detection import (ClientDataset, generate_client_dataset,
                               generate_federation_data, iou)
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


def _spec(**kw):
    base = dict(poison_type="class", source_class=0, target_class=1)
    base.update(kw)
    return AttackSpec(**base)


def _poison(ds, poison_type="class", mask=None, rng=None, **kw):
    """The poison on every sample (or the masked ones), source class 0."""
    mask = np.ones(len(ds), dtype=bool) if mask is None else mask
    return apply_poison(_spec(poison_type=poison_type, **kw), ds, mask, rng,
                        background_class=BG)


# -- class poison ------------------------------------------------------------

def test_class_poison_moves_all_source_anchors():
    ds = _dataset()
    n_src = int((ds.classes == 0).sum())
    n_tgt = int((ds.classes == 1).sum())
    assert n_src > 0
    out = _poison(ds)
    assert int((out.classes == 0).sum()) == 0
    assert int((out.classes == 1).sum()) == n_tgt + n_src
    # total foreground count conserved
    assert int((out.classes < C).sum()) == int((ds.classes < C).sum())


def test_class_poison_leaves_other_classes_untouched():
    ds = _dataset()
    out = _poison(ds)
    other = ds.classes == 2
    assert np.array_equal(out.classes[other], ds.classes[other])
    assert np.allclose(out.bboxes, ds.bboxes)
    assert np.array_equal(out.objn, ds.objn)
    assert np.allclose(out.x, ds.x)


def test_class_poison_is_idempotent():
    ds = _dataset()
    once = _poison(ds)
    twice = _poison(once)
    assert np.array_equal(once.classes, twice.classes)


def test_class_poison_does_not_mutate_input():
    ds = _dataset()
    before = ds.classes.copy()
    _poison(ds)
    assert np.array_equal(ds.classes, before)


def test_class_poison_rejects_equal_classes():
    with pytest.raises(ValueError):
        _poison(_dataset(), source_class=1, target_class=1)


# -- bbox poison -------------------------------------------------------------

def test_bbox_poison_shrinks_by_factor():
    ds = _dataset()
    out = _poison(ds, "bbox", rng=make_rng(1, "bbox"))
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
    out = _poison(ds, "bbox", rng=make_rng(2, "bbox"))
    assert np.allclose(out.bboxes[..., 2], 0.04)
    assert np.allclose(out.bboxes[..., 3], 0.04)
    assert (np.abs(out.bboxes[..., 0] - 0.5) <= 0.18 + 1e-12).all()
    assert (np.abs(out.bboxes[..., 1] - 0.5) <= 0.18 + 1e-12).all()


def test_bbox_poison_concentric_iou():
    # a concentric 10%-shrunk box has IoU = 0.01 with the original
    assert iou((0.5, 0.5, 0.4, 0.4), (0.5, 0.5, 0.04, 0.04)) == pytest.approx(
        0.01, rel=1e-12)


def _per_anchor_bbox_poison(ds, source, rng, mask):
    """Reference: the bbox poison one anchor at a time, x then y draw."""
    out = ds.copy()
    for i, a in np.argwhere((out.classes == source) & mask[:, None]):
        cx, cy, w, h = out.bboxes[i, a]
        jx = (1.0 - SHRINK_FACTOR) * w / 2.0
        jy = (1.0 - SHRINK_FACTOR) * h / 2.0
        out.bboxes[i, a, 0] = np.clip(cx + rng.uniform(-jx, jx), 0.0, 1.0)
        out.bboxes[i, a, 1] = np.clip(cy + rng.uniform(-jy, jy), 0.0, 1.0)
        out.bboxes[i, a, 2] = max(w * SHRINK_FACTOR, 1e-3)
        out.bboxes[i, a, 3] = max(h * SHRINK_FACTOR, 1e-3)
    return out


def test_bbox_poison_matches_the_per_anchor_reference():
    # bit for bit, and the generator ends in the same state: same draws in
    # the same order; boxes near the border exercise the clip
    masks = [np.zeros(30, dtype=bool), np.ones(30, dtype=bool)]
    masks += [make_rng(s, "bbox-mask").random(30) < 0.5 for s in range(20)]
    for s, mask in enumerate(masks):
        ds = _dataset(seed=s, n=30, A=3)
        ds.bboxes[::4, :, :2] = 0.02
        ref_rng, rng = make_rng(s, "bbox-ref"), make_rng(s, "bbox-ref")
        ref = _per_anchor_bbox_poison(ds, 0, ref_rng, mask)
        out = _poison(ds, "bbox", mask=mask, rng=rng)
        assert out.bboxes.tobytes() == ref.bboxes.tobytes()
        assert rng.random() == ref_rng.random()


# -- objn poison -------------------------------------------------------------

def test_objn_poison_erases_source_objects():
    ds = _dataset()
    n_src = int((ds.classes == 0).sum())
    assert n_src > 0
    out = _poison(ds, "objn")
    assert int((out.classes == 0).sum()) == 0
    assert int((out.classes < C).sum()) == int((ds.classes < C).sum()) - n_src
    hit = ds.classes == 0
    assert not out.objn[hit].any()
    assert (out.bboxes[hit] == 0).all()


def test_objn_poison_noop_without_source_objects():
    ds = _dataset()
    ds.classes[ds.classes == 0] = 2
    out = _poison(ds, "objn")
    assert np.array_equal(out.classes, ds.classes)
    assert np.array_equal(out.objn, ds.objn)


def test_objn_poison_is_idempotent():
    ds = _dataset()
    once = _poison(ds, "objn")
    twice = _poison(once, "objn")
    assert np.array_equal(once.classes, twice.classes)
    assert np.array_equal(once.objn, twice.objn)


# -- payload and per-round decision -----------------------------------------

def test_degenerate_adaptive_equals_base_attack():
    ds = _dataset()
    spec = _spec(beta=0.0, gamma=1.0, onset_round=0)
    assert effective_poison_for_round(spec, 3, 5, 42)
    out = poison_payload(spec, 3, ds, 42, background_class=BG)
    assert np.array_equal(out.classes, _poison(ds).classes)


def test_before_onset_is_clean():
    spec = _spec(onset_round=100)
    assert not effective_poison_for_round(spec, 3, 50, 42)
    assert not effective_poison_for_round(spec, 3, 99, 42)
    assert effective_poison_for_round(spec, 3, 100, 42)


def _source_in_every_sample(n=20):
    ds = _dataset(n=n)
    ds.classes[:, 0] = 0                      # a source-class object in every sample
    ds.objn[:, 0] = True
    ds.bboxes[:, 0] = [0.5, 0.5, 0.3, 0.3]
    return ds


def _changed_samples(out, ds):
    return [i for i in range(len(ds))
            if any(getattr(out, f)[i].tobytes() != getattr(ds, f)[i].tobytes()
                   for f in ("x", "classes", "bboxes", "objn"))]


def test_gamma_poisons_exact_sample_count():
    ds = _source_in_every_sample()
    out = poison_payload(_spec(gamma=0.6), 3, ds, 42, background_class=BG)
    changed = _changed_samples(out, ds)
    assert len(changed) == 12
    assert int((out.classes[changed] == 0).sum()) == 0


@pytest.mark.parametrize("poison", ["bbox", "objn"])
def test_gamma_changes_exactly_the_chosen_samples(poison):
    # the chosen samples are keyed by (seed, client) alone: every poison
    # type edits the same ones
    ds = _source_in_every_sample()
    chosen = _changed_samples(poison_payload(_spec(gamma=0.6), 3, ds, 42, BG), ds)
    out = poison_payload(_spec(poison_type=poison, gamma=0.6), 3, ds, 42, BG)
    assert _changed_samples(out, ds) == chosen
    assert len(chosen) == 12


def test_gamma_payload_replays_identically_across_rounds(tiny_config, monkeypatch):
    # a malicious client's rows in every round it poisons are its round-0
    # payload, byte for byte, for each poison type
    batches = []
    train = engine.local_update
    monkeypatch.setattr(engine, "local_update",
                        lambda ds, *a: batches.append(ds) or train(ds, *a))
    for poison in ("class", "bbox", "objn"):
        cfg = dataclasses.replace(tiny_config,
                                  attack=_spec(poison_type=poison, gamma=0.5))
        fed, task = cfg.federation, cfg.task
        seed, C, d, A = fed.master_seed, task.num_classes, task.feature_dim, task.num_anchors
        batches.clear()
        order = []
        _, log = engine.run_federation(cfg, stream_hook=lambda rnd, ups: order.append(
            [u.client_id for u in ups]))
        _, geom, offsets = generate_federation_data(seed, fed.num_clients, C, d, A,
                                                    test_samples=task.test_samples,
                                                    feature_noise=task.feature_noise)
        replays = 0
        for cid, role in log.roles.items():
            if role != "malicious":
                continue
            round0 = generate_client_dataset(
                geom, make_rng(seed, "data", cid, 0), task.samples_per_client, C, d, A,
                feature_noise=task.feature_noise, offset=offsets[cid])
            payload = poison_payload(cfg.attack, cid, round0, seed, background_class=C)
            for rec, batch, ids in zip(log.records, batches, order):
                if rec.poisoned.get(cid):
                    replays += 1
                    i = ids.index(cid)
                    for f in ("x", "classes", "bboxes", "objn"):
                        assert getattr(batch, f)[i].tobytes() == getattr(payload, f).tobytes()
        assert replays >= 4
        assert len(batches) == len(log.records) == len(order)


def test_beta_skip_rate_in_binomial_band():
    spec = _spec(beta=0.10)
    clean = sum(not effective_poison_for_round(spec, cid, rnd, 42)
                for cid in range(10) for rnd in range(100))
    # 1000 Bernoulli(0.1) draws: mean 100, 3-sigma band +/- 28.5
    assert 100 - 30 <= clean <= 100 + 30


def test_apply_poison_rejects_unknown_type():
    spec = AttackSpec(poison_type="class")
    object.__setattr__(spec, "poison_type", "pixel")
    with pytest.raises(ValueError):
        apply_poison(spec, _dataset(), np.ones(20, dtype=bool), make_rng(0, "x"),
                     background_class=BG)
