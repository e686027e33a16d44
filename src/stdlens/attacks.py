"""Perception-poisoning attacks.

Three label-space poisons against the surrogate detection task plus the
adaptive wrappers (per-round skip probability beta, per-sample fraction
gamma, delayed onset). All operations return a poisoned copy; the clean
dataset is never mutated.
"""

from __future__ import annotations

import numpy as np

from .config import AttackSpec
from .detection import ClientDataset
from .seeding import make_rng

__all__ = [
    "poison_class",
    "poison_bbox",
    "poison_objn",
    "apply_poison",
    "effective_poison_for_round",
]

SHRINK_FACTOR = 0.10   # box scale of the bbox poison in `apply_poison`


def poison_class(dataset: ClientDataset, source: int, target: int,
                 sample_mask=None) -> ClientDataset:
    """Relabel every source-class anchor as the target class."""
    if source == target:
        raise ValueError("source and target class must differ")
    out = dataset.copy()
    hit = out.classes == source
    if sample_mask is not None:
        hit &= np.asarray(sample_mask)[:, None]
    out.classes[hit] = target
    return out


def poison_bbox(dataset: ClientDataset, source: int, shrink_factor: float,
                rng: np.random.Generator, sample_mask=None) -> ClientDataset:
    """Shrink source-class boxes and jitter their centers.

    Width/height scale by shrink_factor; the center moves uniformly within
    the extent freed by the shrink, clipped to [0,1].
    """
    if not (0.0 < shrink_factor <= 1.0):
        raise ValueError("shrink_factor must be in (0,1]")
    out = dataset.copy()
    hit = out.classes == source
    if sample_mask is not None:
        hit &= np.asarray(sample_mask)[:, None]
    idx = np.argwhere(hit)
    for i, a in idx:
        cx, cy, w, h = out.bboxes[i, a]
        jx = (1.0 - shrink_factor) * w / 2.0
        jy = (1.0 - shrink_factor) * h / 2.0
        out.bboxes[i, a, 0] = np.clip(cx + rng.uniform(-jx, jx), 0.0, 1.0)
        out.bboxes[i, a, 1] = np.clip(cy + rng.uniform(-jy, jy), 0.0, 1.0)
        out.bboxes[i, a, 2] = max(w * shrink_factor, 1e-3)
        out.bboxes[i, a, 3] = max(h * shrink_factor, 1e-3)
    return out


def poison_objn(dataset: ClientDataset, source: int, background_class: int,
                sample_mask=None) -> ClientDataset:
    """Erase source-class objects: anchors become background, objn false."""
    out = dataset.copy()
    hit = out.classes == source
    if sample_mask is not None:
        hit &= np.asarray(sample_mask)[:, None]
    out.classes[hit] = background_class
    out.objn[hit] = False
    out.bboxes[hit] = 0.0
    return out


def apply_poison(spec: AttackSpec, dataset: ClientDataset, rng: np.random.Generator,
                 background_class: int, sample_mask=None) -> ClientDataset:
    if spec.poison_type == "class":
        return poison_class(dataset, spec.source_class, spec.target_class, sample_mask)
    if spec.poison_type == "bbox":
        return poison_bbox(dataset, spec.source_class, SHRINK_FACTOR, rng, sample_mask)
    if spec.poison_type == "objn":
        return poison_objn(dataset, spec.source_class, background_class, sample_mask)
    raise ValueError(f"unknown poison type {spec.poison_type!r}")


def effective_poison_for_round(spec: AttackSpec, client_id: int, round_idx: int,
                               dataset: ClientDataset, master_seed: int,
                               background_class: int):
    """Per-round poisoning decision for one malicious client.

    Returns (dataset, poisoned_this_round, poisoned_sample_indices).
    Before onset_round, and with probability beta per round, the clean
    dataset passes through untouched. Otherwise exactly round(gamma*n)
    samples (a fixed, client-keyed choice so the payload replays
    identically across rounds) are poisoned.
    """
    n = len(dataset)
    if round_idx < spec.onset_round:
        return dataset, False, np.array([], dtype=int)
    if spec.beta > 0.0:
        skip_rng = make_rng(master_seed, "beta-skip", client_id, round_idx)
        if skip_rng.random() < spec.beta:
            return dataset, False, np.array([], dtype=int)
    k = int(np.floor(spec.gamma * n + 0.5))
    payload_rng = make_rng(master_seed, "poison-payload", client_id)
    chosen = np.sort(payload_rng.choice(n, size=k, replace=False))
    mask = np.zeros(n, dtype=bool)
    mask[chosen] = True
    poisoned = apply_poison(spec, dataset, payload_rng,
                            background_class=background_class, sample_mask=mask)
    return poisoned, True, chosen
