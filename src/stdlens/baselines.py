"""Comparison defenses.

Two stateless per-window decision rules that draw no random number:
revoke the smaller side of the SSC1 split that flags a class (the split
`stdlens` analyses), and spectral outlier removal by top singular-vector
scores. Both run in the same windowing shell as the main defense.
"""

from __future__ import annotations

import numpy as np

from .forensics import (WindowedDefense, covariance_top_eigh, flag_suspect_classes,
                        spatial_project)

__all__ = [
    "defense_spatial_smaller_cluster",
    "defense_spectral_signature",
    "SpatialClusterDefense",
    "SpectralSignatureDefense",
]


def defense_spatial_smaller_cluster(classes: dict) -> list[int]:
    """Revoke every client contributing to the smaller spatial cluster.

    `classes` maps a class id to its window's (client ids, rounds, blocks)
    arrays. Runs per flagged class, on the SSC1 split that flagged it; an
    exact size tie means no revocation for that class this window.
    """
    revoked: set[int] = set()
    projections = {c: spatial_project(blocks)
                   for c, (ids, _, blocks) in classes.items() if len(ids) >= 3}
    for c, labels in flag_suspect_classes(projections).items():
        n0, n1 = int((labels == 0).sum()), int((labels == 1).sum())
        if n0 == n1:
            continue
        revoked.update(classes[c][0][labels == (0 if n0 < n1 else 1)].tolist())
    return sorted(revoked)


def defense_spectral_signature(classes: dict, removal_fraction: float) -> list[int]:
    """Spectral outlier removal.

    Per class of `classes` (class id -> (client ids, rounds, blocks))
    arrays: mean-center the blocks, score each row by
    |<block - mean, top covariance eigenvector>| (the top right-singular
    vector of the centered blocks), and revoke the clients owning the top
    removal_fraction of scores (stable index tie-breaking). No flagging
    gate; this is the baseline's documented aggressiveness.
    """
    if not (0.0 < removal_fraction < 1.0):
        raise ValueError("removal_fraction must be in (0,1)")
    revoked: set[int] = set()
    for ids, _, blocks in classes.values():
        if len(ids) < 3:
            continue
        centered, _, vecs = covariance_top_eigh(blocks, 1)
        scores = np.abs(centered @ vecs[:, 0])
        k = int(np.floor(removal_fraction * len(ids) + 0.5))
        if k < 1:
            continue
        revoked.update(ids[np.argsort(-scores, kind="stable")[:k]].tolist())
    return sorted(revoked)


class SpatialClusterDefense(WindowedDefense):
    def _decide(self, window):
        return defense_spatial_smaller_cluster(window), []


class SpectralSignatureDefense(WindowedDefense):
    def __init__(self, num_classes: int, window: int, removal_fraction: float,
                 block_dim: int | None = None):
        super().__init__(num_classes, window, block_dim)
        self.removal_fraction = removal_fraction

    def _decide(self, window):
        return defense_spectral_signature(window, self.removal_fraction), []
