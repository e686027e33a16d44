"""Comparison defenses.

Two stateless per-window decision rules: revoke the smaller spatial
cluster, and spectral outlier removal by top singular-vector scores.
Both run in the same windowing shell as the main defense.
"""

from __future__ import annotations

import numpy as np

from .forensics import (WindowedDefense, cluster_2d, covariance_top_eigh,
                        flag_suspect_classes, spatial_project)
from .seeding import derive_seed

__all__ = [
    "defense_spatial_smaller_cluster",
    "defense_spectral_signature",
    "SpatialClusterDefense",
    "SpectralSignatureDefense",
]


def defense_spatial_smaller_cluster(contributions_per_class: dict,
                                    seed: int = 0) -> list[int]:
    """Revoke every client contributing to the smaller spatial cluster.

    Runs per flagged class; an exact size tie means no revocation for
    that class this window.
    """
    revoked: set[int] = set()
    projections = {
        c: spatial_project(np.stack([g.block for g in contribs]),
                           client_ids=[g.client_id for g in contribs],
                           rounds=[g.round for g in contribs], class_id=c)
        for c, contribs in contributions_per_class.items() if len(contribs) >= 3}
    flagged = flag_suspect_classes(projections)
    for c in flagged:
        proj = projections[c]
        labels = cluster_2d(proj.ssc, "kmeans", 2, derive_seed(seed, "spatial-bl", c))
        n0, n1 = int((labels == 0).sum()), int((labels == 1).sum())
        if n0 == n1:
            continue
        smaller = 0 if n0 < n1 else 1
        revoked |= {int(cid) for cid, lab in zip(proj.client_ids, labels)
                    if lab == smaller}
    return sorted(revoked)


def defense_spectral_signature(contributions_per_class: dict,
                               removal_fraction: float) -> list[int]:
    """Spectral outlier removal.

    Per class: mean-center the blocks, score each contribution by
    |<block - mean, top covariance eigenvector>| (the top right-singular
    vector of the centered blocks), and revoke the clients
    owning the top removal_fraction of scores (stable index
    tie-breaking). No flagging gate; this is the baseline's documented
    aggressiveness.
    """
    if not (0.0 < removal_fraction < 1.0):
        raise ValueError("removal_fraction must be in (0,1)")
    revoked: set[int] = set()
    for c, contribs in contributions_per_class.items():
        if len(contribs) < 3:
            continue
        centered, _, vecs = covariance_top_eigh(np.stack([g.block for g in contribs]), 1)
        scores = np.abs(centered @ vecs[:, 0])
        k = int(np.floor(removal_fraction * len(contribs) + 0.5))
        if k < 1:
            continue
        order = sorted(range(len(contribs)), key=lambda i: (-scores[i], i))
        revoked |= {int(contribs[i].client_id) for i in order[:k]}
    return sorted(revoked)


class SpatialClusterDefense(WindowedDefense):
    def __init__(self, num_classes: int, window: int, seed: int = 0,
                 block_dim: int | None = None):
        super().__init__(num_classes, window, block_dim)
        self.seed = seed
        self._windows = 0

    def _decide(self, window):
        self._windows += 1
        return defense_spatial_smaller_cluster(
            window, derive_seed(self.seed, "spatial-window", self._windows)), []


class SpectralSignatureDefense(WindowedDefense):
    def __init__(self, num_classes: int, window: int, removal_fraction: float,
                 block_dim: int | None = None):
        super().__init__(num_classes, window, block_dim)
        self.removal_fraction = removal_fraction

    def _decide(self, window):
        return defense_spectral_signature(window, self.removal_fraction), []
