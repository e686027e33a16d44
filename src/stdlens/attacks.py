"""Perception-poisoning attacks.

Three label-space poisons, each one masked edit of the source-class anchors
of a copy, and the adaptive knobs: per-sample fraction gamma, delayed onset
and per-round skip probability beta. A malicious client's payload is built
once, from its round-0 data; each round only decides whether it is sent.
"""

from __future__ import annotations

import numpy as np

from .config import AttackSpec
from .detection import ClientDataset
from .seeding import make_rng

__all__ = ["apply_poison", "poison_payload", "effective_poison_for_round"]

SHRINK_FACTOR = 0.10   # box scale of the bbox poison


def apply_poison(spec: AttackSpec, dataset: ClientDataset, mask: np.ndarray,
                 rng: np.random.Generator, background_class: int) -> ClientDataset:
    """A copy whose source-class anchors in the masked samples get the edit
    of spec.poison_type. class relabels them as the target class. bbox scales
    width and height by SHRINK_FACTOR and moves the center uniformly within
    the freed extent, clipped to [0,1] (x then y per anchor, anchors in
    row-major order). objn erases them: background, objn false, zero box."""
    out = dataset.copy()
    hit = (out.classes == spec.source_class) & mask[:, None]
    if spec.poison_type == "class":
        if spec.source_class == spec.target_class:
            raise ValueError("source and target class must differ")
        out.classes[hit] = spec.target_class
    elif spec.poison_type == "bbox":
        boxes = out.bboxes[hit]                                   # (hits, 4)
        half = (1.0 - SHRINK_FACTOR) * boxes[:, 2:] / 2.0
        boxes[:, :2] = np.clip(boxes[:, :2] + rng.uniform(-half, half), 0.0, 1.0)
        boxes[:, 2:] = np.maximum(boxes[:, 2:] * SHRINK_FACTOR, 1e-3)
        out.bboxes[hit] = boxes
    elif spec.poison_type == "objn":
        out.classes[hit] = background_class
        out.objn[hit] = False
        out.bboxes[hit] = 0.0
    else:
        raise ValueError(f"unknown poison type {spec.poison_type!r}")
    return out


def poison_payload(spec: AttackSpec, client_id: int, dataset: ClientDataset,
                   master_seed: int, background_class: int) -> ClientDataset:
    """The dataset a malicious client sends whenever it poisons: exactly
    round(gamma*n) samples, a fixed client-keyed choice, edited."""
    n = len(dataset)
    rng = make_rng(master_seed, "poison-payload", client_id)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=spec.poisoned_sample_count(n), replace=False)] = True
    return apply_poison(spec, dataset, mask, rng, background_class)


def effective_poison_for_round(spec: AttackSpec, client_id: int, round_idx: int,
                               master_seed: int) -> bool:
    """Whether a malicious client sends its payload this round: never before
    onset_round, then unless a (client, round)-keyed draw skips it with
    probability beta."""
    if round_idx < spec.onset_round:
        return False
    return (spec.beta == 0.0
            or make_rng(master_seed, "beta-skip", client_id, round_idx).random() >= spec.beta)
