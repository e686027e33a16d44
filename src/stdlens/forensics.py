"""Spatio-temporal gradient forensics.

Three-tier pipeline run at every forensic window boundary:

1. spatial signatures: per-class output-layer gradient blocks projected
   onto the top-2 eigenvectors of their covariance; a class whose
   projection splits into two well-separated 1D clusters is flagged.
2. temporal signatures: per client and per cluster, the windowed average
   pairwise dissimilarity of the client's trajectory; the cluster with
   the lower mean score is the suspicious one.
3. sigma-density uncertainty: empirical-rule confidence intervals per
   cluster on the first spatial component and on the temporal scores;
   points between the two intervals are uncertain and only feed a
   watchlist instead of triggering immediate revocation.

Five local decision paths ride on the tiers. Removing any one of them
fails an acceptance criterion or drops it to its floor:
- exemplar-instant revocation (criterion 8, delayed onset);
- temporal strikes (criterion 7, bbox; criterion 8, dilution gamma);
- no-signature watchlist (criterion 8, delayed onset);
- exemplar veto and contrast gate (criteria 7 and 8, skip rate beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import CONFIDENCE_TO_Z
from .detection import DetectorWeights
from .seeding import derive_seed

__all__ = [
    "GradientContribution",
    "SpatialProjection",
    "SigmaZones",
    "ClientDossier",
    "extract_class_gradient_block",
    "update_contributions",
    "covariance_top_eigh",
    "spatial_project",
    "flag_suspect_classes",
    "two_means_1d",
    "kmeans",
    "cluster_2d",
    "temporal_signature",
    "identify_suspicious_cluster",
    "sigma_zone_partition",
    "unit_norm",
    "WindowedDefense",
    "StdLensDefense",
]

SEPARATION_THRESHOLD = 2.0  # least SSC1 2-means separation score that flags a class
TEMPORAL_CONTRAST = 0.5     # most suspicious/benign temporal-signature ratio that
                            # revokes outright (a weaker contrast only watchlists)
MAX_BLOCK_ENTRY = 1e100     # larger admitted entries could overflow a covariance


@dataclass
class GradientContribution:
    """One client's per-class output-layer gradient block for one round."""

    client_id: int
    round: int
    class_id: int
    block: np.ndarray


def extract_class_gradient_block(delta: DetectorWeights, class_id: int) -> np.ndarray:
    """Deterministic flattening of the per-class slice of each head.

    Class-head row c, then bbox-head rows for c in offset order, then the
    objn row, each across all anchors: 6*A*d entries.
    """
    A, C, d = delta.shape_params
    if not (0 <= class_id < C):
        raise ValueError("class_id out of range")
    return np.concatenate([
        delta.w_class[:, class_id, :].ravel(),
        delta.w_bbox[:, class_id, :, :].ravel(),
        delta.w_objn[:, class_id, :].ravel(),
    ])


def update_contributions(update, num_classes: int) -> list[GradientContribution]:
    """One client update as per-class contributions, in class order."""
    return [GradientContribution(update.client_id, update.round, c,
                                 extract_class_gradient_block(update.delta, c))
            for c in range(num_classes)]


@dataclass
class SpatialProjection:
    class_id: int
    client_ids: np.ndarray      # (n,)
    rounds: np.ndarray          # (n,)
    ssc: np.ndarray             # (n, 2) coordinates on (SSC1, SSC2)
    eigenvalues: np.ndarray     # (2,) descending
    eigenvectors: np.ndarray    # (2, dim) rows = v1, v2
    degenerate: bool = False


def covariance_top_eigh(samples: np.ndarray, k: int):
    """(centered rows, top-k eigenvalues ascending, unit eigenvector
    columns) of the sample covariance, unsigned as eigh returns them.

    With fewer rows than dimensions the n x n Gram matrix C C^T/(n-1) is
    solved instead of the dim x dim covariance C^T C/(n-1): both share
    their nonzero eigenvalues, and a Gram eigenvector u maps to the
    covariance eigenvector C^T u/|C^T u| (the snapshot method: Sirovich
    1987; Turk & Pentland 1991). A zero C^T u stays a zero column.
    """
    centered = samples - samples.mean(axis=0)
    n, d = centered.shape
    if n < d:
        vals, u = np.linalg.eigh(centered @ centered.T / (n - 1))
        vecs = centered.T @ u[:, n - k:]
        norms = np.linalg.norm(vecs, axis=0)
        vecs = np.divide(vecs, norms, out=np.zeros_like(vecs), where=norms > 0)
        return centered, vals[n - k:], vecs
    vals, vecs = np.linalg.eigh(centered.T @ centered / (n - 1))
    return centered, vals[d - k:], vecs[:, d - k:]


def spatial_project(blocks: np.ndarray, client_ids=None, rounds=None,
                    class_id: int = -1) -> SpatialProjection:
    """Project gradient blocks onto their top-2 covariance eigenvectors.

    Signs are canonicalized so the coordinate of largest magnitude on
    each axis is positive. Rank-1 input yields zero SSC2 with a
    degenerate flag rather than an error.
    """
    blocks = np.asarray(blocks, dtype=float)
    n, dim = blocks.shape
    if n < 3:
        raise ValueError("need at least 3 contributions")
    if dim < 2:
        raise ValueError("block dimension must be >= 2")
    centered, vals, vecs = covariance_top_eigh(blocks, 2)
    order = np.argsort(vals)[::-1]
    vals = np.maximum(vals[order], 0.0)
    vecs = vecs[:, order].T                       # rows v1, v2
    ssc = centered @ vecs.T
    degenerate = vals[1] <= 1e-12 * max(vals[0], 1.0)
    if degenerate:
        ssc[:, 1] = 0.0
        vals[1] = 0.0
    for axis in range(2):
        i = np.argmax(np.abs(ssc[:, axis]))
        if ssc[i, axis] < 0:
            ssc[:, axis] = -ssc[:, axis]
            vecs[axis] = -vecs[axis]
    return SpatialProjection(
        class_id=class_id,
        client_ids=np.asarray(client_ids if client_ids is not None else np.zeros(n, int)),
        rounds=np.asarray(rounds if rounds is not None else np.arange(n)),
        ssc=ssc, eigenvalues=vals, eigenvectors=vecs, degenerate=degenerate)


def two_means_1d(values) -> np.ndarray:
    """Exact 2-means of 1D values; label 0 is the lower cluster.

    One scan over the split points of the sorted values (Wang & Song,
    "Ckmeans.1d.dp", The R Journal 2011) keeps the split with the largest
    between-cluster sum of squares n*S^2/(n_l*n_r), S the prefix sum of the
    centered values: the least within-cluster sum of squares. Equal values
    are never split, so labels follow any permutation of the input;
    constant input is all 0.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 points")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    labels = np.zeros(n, dtype=int)
    distinct = xs[1:] > xs[:-1]              # split i puts xs[:i] left
    if distinct.any():
        left = np.cumsum(xs - xs.mean())[:-1]
        sizes = np.arange(1, n)
        between = left * left / (sizes * (n - sizes))
        labels[order[int(np.argmax(np.where(distinct, between, -np.inf))) + 1:]] = 1
    return labels


def kmeans(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm, best of 10 seeded inits by inertia."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < k:
        raise ValueError("need at least k points")
    if np.allclose(pts, pts[0]):
        # all-duplicate degenerate input: deterministic split by index
        labels = np.zeros(len(pts), dtype=int)
        labels[:k - 1] = np.arange(1, k)
        return labels
    best_labels, best_inertia = None, np.inf
    for r in range(10):
        rng = np.random.default_rng(derive_seed(seed, "kmeans-restart", r))
        centers = pts[rng.choice(len(pts), size=k, replace=False)]
        labels = np.zeros(len(pts), dtype=int)
        for _ in range(100):
            dist = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = dist.argmin(axis=1)
            for c in range(k):
                if not (new_labels == c).any():
                    far = dist.min(axis=1).argmax()
                    new_labels[far] = c
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for c in range(k):
                centers[c] = pts[labels == c].mean(axis=0)
        inertia = ((pts - centers[labels]) ** 2).sum()
        if inertia < best_inertia - 1e-12:
            best_inertia, best_labels = inertia, labels
    return best_labels


def cluster_2d(points: np.ndarray, algorithm: str = "kmeans", k: int = 2,
               seed: int = 0) -> np.ndarray:
    """Partition 2D points into k nonempty clusters with seeded k-means,
    the only supported `algorithm`."""
    if algorithm != "kmeans":
        raise ValueError(f"unknown clustering algorithm {algorithm!r}")
    return kmeans(points, k, seed)


def flag_suspect_classes(projections: dict) -> set:
    """Classes whose SSC1 projection splits into two separated clusters.

    Separation score s = |mu0 - mu1| / (sd0 + sd1 + eps) of the exact
    2-means split of the SSC1 coordinates; flag iff s >= SEPARATION_THRESHOLD.
    """
    flagged = set()
    for class_id, proj in projections.items():
        x = proj.ssc[:, 0]
        if len(x) < 3:
            continue
        labels = two_means_1d(x)
        lo, hi = x[labels == 0], x[labels == 1]
        if len(hi) and (abs(lo.mean() - hi.mean()) / (lo.std() + hi.std() + 1e-12)
                        >= SEPARATION_THRESHOLD):
            flagged.add(class_id)
    return flagged


def temporal_signature(trajectory: np.ndarray, omega: int):
    """Windowed average pairwise L1 dissimilarity of a trajectory.

    sum_{j=omega+1..n} sum_{k=1..omega} |G[j] - G[j-k]|_1 / (omega*n - omega^2)
    with 1-based indexing; None when n <= omega (denominator would not be
    positive).
    """
    if omega < 1:
        raise ValueError("omega must be >= 1")
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    n = traj.shape[0]
    if n <= omega:
        return None
    total = 0.0
    for j in range(omega, n):                    # 0-based j = paper's j-1
        for k in range(1, omega + 1):
            total += np.abs(traj[j] - traj[j - k]).sum()
    return total / (omega * n - omega * omega)


def identify_suspicious_cluster(per_cluster_signatures: dict, cluster_sizes: dict):
    """Cluster with the lower mean temporal signature; ties go to the
    smaller cluster. Returns None (defer) if either cluster has no client
    with a defined signature."""
    means = {}
    for c, sigs in per_cluster_signatures.items():
        defined = [v for v in sigs.values() if v is not None]
        if not defined:
            return None
        means[c] = float(np.mean(defined))
    clusters = sorted(means)
    if len(clusters) < 2:
        return None
    a, b = clusters[0], clusters[1]
    if abs(means[a] - means[b]) <= 1e-12:
        return a if cluster_sizes[a] <= cluster_sizes[b] else b
    return a if means[a] < means[b] else b


@dataclass
class SigmaZones:
    z: float
    means: dict
    stds: dict
    intervals: dict                      # cluster -> (lo, hi)
    uncertain: Optional[tuple] = None    # (lo, hi) open interval, or None


def sigma_zone_partition(values: np.ndarray, assignments: np.ndarray,
                         confidence: float):
    """Empirical-rule confidence zones on a 1D coordinate.

    Returns (SigmaZones, labels) with per-point labels in
    {"confident-<k>", "uncertain", "outside"}. The uncertain zone is the
    open gap between the two clusters' intervals; overlapping intervals
    leave it empty.
    """
    if confidence not in CONFIDENCE_TO_Z:
        raise ValueError("confidence must be one of 0.68, 0.95, 0.99")
    z = CONFIDENCE_TO_Z[confidence]
    values = np.asarray(values, dtype=float)
    assignments = np.asarray(assignments)
    clusters = sorted(set(assignments.tolist()))
    means, stds, intervals = {}, {}, {}
    for c in clusters:
        pts = values[assignments == c]
        means[c] = float(pts.mean())
        stds[c] = float(pts.std(ddof=1)) if len(pts) >= 2 else 0.0
        intervals[c] = (means[c] - z * stds[c], means[c] + z * stds[c])
    uncertain = None
    if len(clusters) == 2:
        (l0, h0), (l1, h1) = intervals[clusters[0]], intervals[clusters[1]]
        lo, hi = (h0, l1) if means[clusters[0]] <= means[clusters[1]] else (h1, l0)
        if lo < hi:
            uncertain = (lo, hi)
    labels = []
    for v, c in zip(values, assignments):
        lo_c, hi_c = intervals[c]
        if stds[c] == 0.0 and v != means[c]:
            labels.append("uncertain")
        elif lo_c <= v <= hi_c:
            labels.append(f"confident-{c}")
        elif uncertain is not None and uncertain[0] < v < uncertain[1]:
            labels.append("uncertain")
        else:
            labels.append("outside")
    return SigmaZones(z, means, stds, intervals, uncertain), labels


def _population_radius(rest: np.ndarray, z: float):
    """Center of `rest` and its confidence radius, mean + z*sd of the
    distances to that center."""
    center = rest.mean(axis=0)
    dist = np.linalg.norm(rest - center, axis=1)
    return center, dist.mean() + z * dist.std(ddof=1)


def _near_exemplar(pts: np.ndarray, exemplars, center: np.ndarray,
                   factor: float) -> np.ndarray:
    """Per point: closer to some exemplar than `factor` times that
    exemplar's distance to the population center."""
    near = np.zeros(len(pts), dtype=bool)
    for e in exemplars:
        near |= np.linalg.norm(pts - e, axis=1) < factor * np.linalg.norm(e - center)
    return near


@dataclass
class ClientDossier:
    client_id: int
    watchlist_count: int = 0
    verdict: str = "active"              # active | watchlisted | revoked


def unit_norm(block: np.ndarray) -> np.ndarray:
    """The block at unit L2 norm; zero and non-finite blocks stay as they
    are. A finite nonzero block whose norm overflows or underflows is first
    divided by its largest magnitude, so it keeps its direction."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(block))
    if norm in (0.0, np.inf) and np.isfinite(block).all() and block.any():
        block = block / np.abs(block).max()
        norm = float(np.linalg.norm(block))
    if norm > 0:
        block = block / norm
    return block


class WindowedDefense:
    """Ingestion shell shared by every windowed defense: extracts per-class
    blocks, drops revoked clients and malformed contributions (a block not
    of shape `(block_dim,)` when `block_dim` is given, non-finite block,
    class id out of range, an admitted entry above MAX_BLOCK_ENTRY in
    magnitude), buffers per class, counts rounds and every `window` rounds
    hands the buffer to `_decide`, which returns (clients to revoke,
    watchlist events). No client is revoked twice."""

    def __init__(self, num_classes: int, window: int,
                 block_dim: Optional[int] = None):
        self.num_classes = num_classes
        self.window = window
        self.block_dim = block_dim
        self.revoked: set[int] = set()
        self._current: dict[int, list[GradientContribution]] = {
            c: [] for c in range(num_classes)}
        self._rounds_seen = 0

    def observe_round(self, round_idx: int, updates) -> tuple[list[int], list[int]]:
        """Engine hook: consume raw client updates for one round."""
        contribs = [g for u in updates if u.client_id not in self.revoked
                    for g in update_contributions(u, self.num_classes)]
        return self.observe_contributions(round_idx, contribs)

    def observe_contributions(self, round_idx: int, contributions
                              ) -> tuple[list[int], list[int]]:
        """Replay-mode hook: consume pre-extracted gradient contributions."""
        for g in contributions:
            if (g.client_id in self.revoked
                    or not 0 <= g.class_id < self.num_classes
                    or (self.block_dim is not None
                        and np.shape(g.block) != (self.block_dim,))
                    or not np.isfinite(g.block).all()):
                continue
            g = self._admit(g)
            if np.abs(g.block).max(initial=0.0) <= MAX_BLOCK_ENTRY:
                self._current[g.class_id].append(g)
        self._rounds_seen += 1
        if self._rounds_seen % self.window == 0:
            return self.window_step()
        return [], []

    def window_step(self) -> tuple[list[int], list[int]]:
        """Close the window: decide on the buffered contributions."""
        window = self._current
        self._current = {c: [] for c in range(self.num_classes)}
        revocations, watchlist_events = self._decide(window)
        revocations = sorted(set(revocations) - self.revoked)
        self.revoked.update(revocations)
        return revocations, watchlist_events

    def _admit(self, g: GradientContribution) -> GradientContribution:
        return g

    def _decide(self, window) -> tuple[list[int], list[int]]:
        raise NotImplementedError


class StdLensDefense(WindowedDefense):
    """Stateful three-tier defense driven once per FL round.

    Accumulates per-class gradient contributions over a forensic window;
    at each window boundary runs the full pipeline and returns clients to
    revoke. `seed` is accepted and unused: the defense draws no random
    numbers.
    """

    def __init__(self, num_classes: int, window: int, omega: int,
                 confidence: float, watchlist_threshold: int = 2,
                 normalize_blocks: bool = True, seed: int = 0,
                 block_dim: Optional[int] = None):
        super().__init__(num_classes, window, block_dim)
        self.normalize_blocks = normalize_blocks
        self.omega = omega
        self.confidence = confidence
        self.watchlist_threshold = watchlist_threshold
        self.dossiers: dict[int, ClientDossier] = {}
        self._exemplars: dict[int, list] = {}      # class_id -> revoked block means

    def _admit(self, g: GradientContribution) -> GradientContribution:
        if not self.normalize_blocks:
            return g
        # direction forensics: a replayed poison payload keeps its gradient
        # direction even while the magnitude tracks the moving global
        # model, so unit-norm blocks make temporal repetitiveness visible
        # in any training phase
        return GradientContribution(g.client_id, g.round, g.class_id,
                                    unit_norm(g.block))

    # -- the forensic window ----------------------------------------------

    def _decide(self, window) -> tuple[list[int], list[int]]:
        """Run the three-tier pipeline on the window."""
        projections = {
            c: spatial_project(np.stack([g.block for g in contribs]),
                               client_ids=[g.client_id for g in contribs],
                               rounds=[g.round for g in contribs], class_id=c)
            for c, contribs in window.items() if len(contribs) >= 3}
        flagged = flag_suspect_classes(projections)

        to_revoke: set[int] = self._exemplar_matches(window)
        uncertain_clients: set[int] = self._temporal_strikes(window)
        for c in sorted(flagged):
            revoked_c, uncertain_c = self._analyze_class(projections[c], window[c])
            to_revoke |= revoked_c
            uncertain_clients |= uncertain_c

        watchlist_events = []
        for cid in sorted(uncertain_clients - self.revoked):
            dossier = self.dossiers.setdefault(cid, ClientDossier(cid))
            dossier.watchlist_count += 1
            dossier.verdict = "watchlisted"
            watchlist_events.append(cid)
            if dossier.watchlist_count >= self.watchlist_threshold:
                to_revoke.add(cid)

        revocations = sorted(to_revoke - self.revoked)
        for cid in revocations:
            self.dossiers.setdefault(cid, ClientDossier(cid)).verdict = "revoked"
        if revocations:
            # an attacker's blocks in classes its poison does not touch look
            # honest; the outside-the-population-radius requirement inside
            # _record_exemplars keeps those out of the archive, so every
            # class may contribute exemplars
            self._record_exemplars(window, revocations)
        return revocations, watchlist_events

    def _exemplar_matches(self, window) -> set[int]:
        """Clients sitting practically on a confirmed poison direction.

        One or two lingering attackers cannot drive a class flag or the
        top-2 eigenprojection on their own, so the check runs in full
        block space: a client whose contributions in some class all lie
        outside the remaining population's confidence radius AND closer
        to an archived exemplar than 0.75 times that exemplar's distance
        to the population center is revoked outright.
        """
        watched = {cid for cid, d in self.dossiers.items()
                   if d.verdict == "watchlisted"}
        z = CONFIDENCE_TO_Z[self.confidence]
        matches: set[int] = set()
        for c, contribs in window.items():
            exemplars = self._exemplars.get(c)
            if not exemplars or len(contribs) < 4:
                continue
            ids = np.array([g.client_id for g in contribs])
            blocks = np.stack([g.block for g in contribs])
            on_list = np.array([cid in watched for cid in ids])
            for cid in set(ids.tolist()):
                mine = ids == cid
                rest = blocks[~mine & ~on_list]
                if len(rest) < 3:
                    continue
                center, radius = _population_radius(rest, z)
                pts = blocks[mine]
                outside = np.linalg.norm(pts - center, axis=1) > radius
                if (outside & _near_exemplar(pts, exemplars, center, 0.75)).all():
                    matches.add(cid)
        return matches

    def _temporal_strikes(self, window) -> set[int]:
        """Per-client repetitiveness scrutiny, independent of clustering.

        A replayed poison payload produces a far more repetitive block
        trajectory than honest per-round sampling, even when dilution
        keeps the direction inside the population's spatial spread. A
        client whose own-trajectory signature in some class drops below
        half the population median collects a watchlist strike.
        """
        strikes: set[int] = set()
        for contribs in window.values():
            by_client: dict[int, list] = {}
            for g in sorted(contribs, key=lambda g: g.round):
                by_client.setdefault(g.client_id, []).append(g.block)
            sigs = {cid: temporal_signature(np.array(t), self.omega)
                    for cid, t in by_client.items() if len(t) > self.omega}
            defined = {cid: v for cid, v in sigs.items() if v is not None}
            if len(defined) < 4:
                continue
            med = float(np.median(list(defined.values())))
            if med <= 0:
                continue
            for cid, v in defined.items():
                if v <= TEMPORAL_CONTRAST * med:
                    strikes.add(cid)
        return strikes

    def _record_exemplars(self, window, revoked) -> None:
        """Archive the mean block direction of each freshly revoked client
        for the classes where it actually stood apart from the population."""
        z = CONFIDENCE_TO_Z[self.confidence]
        for c, contribs in window.items():
            if len(contribs) < 4:
                continue
            ids = np.array([g.client_id for g in contribs])
            blocks = np.stack([g.block for g in contribs])
            rev_mask = np.array([cid in revoked for cid in ids])
            rest = blocks[~rev_mask]
            if len(rest) < 3:
                continue
            center, radius = _population_radius(rest, z)
            for cid in revoked:
                pts = blocks[ids == cid]
                if not len(pts):
                    continue
                mean = pts.mean(axis=0)
                if np.linalg.norm(mean - center) > radius:
                    self._exemplars.setdefault(c, []).append(mean)

    def _analyze_class(self, proj: SpatialProjection, contribs):
        """Tiers 2 and 3 for one flagged class, on the SSC1 2-means split
        that flagged it. Returns (revoked client ids, uncertain client
        ids), both empty when a cluster has no defined temporal signature."""
        x = proj.ssc[:, 0]
        labels = two_means_1d(x)
        clusters = sorted(set(labels.tolist()))

        # per-client, per-cluster time-ordered trajectories
        order = np.argsort(proj.rounds, kind="stable")
        traj: dict[int, dict[int, list]] = {c: {} for c in clusters}
        for i in order:
            cid = int(proj.client_ids[i])
            traj[labels[i]].setdefault(cid, []).append(proj.ssc[i])

        sigs = {c: {cid: temporal_signature(np.array(t), self.omega)
                    for cid, t in traj[c].items()}
                for c in clusters}
        sizes = {c: int((labels == c).sum()) for c in clusters}
        suspicious = identify_suspicious_cluster(sigs, sizes)
        if suspicious is None:
            return set(), set()

        _, point_labels = sigma_zone_partition(x, labels, self.confidence)
        # a decided suspicious cluster means both clusters have a signature
        mean_sig = {c: float(np.mean([v for v in sigs[c].values() if v is not None]))
                    for c in clusters}
        other = next(c for c in clusters if c != suspicious)
        strong_contrast = (mean_sig[suspicious]
                           <= TEMPORAL_CONTRAST * mean_sig[other])

        client_sig, client_cluster = {}, {}
        for cid in set(int(c) for c in proj.client_ids):
            defined = {c: sigs[c][cid] for c in clusters
                       if cid in sigs[c] and sigs[c][cid] is not None}
            if not defined:
                continue
            best = min(defined, key=lambda c: (defined[c], sizes[c]))
            client_sig[cid] = defined[best]
            client_cluster[cid] = best

        # temporal sigma zones over the client-level signatures
        temporal_uncertain: set[int] = set()
        sig_clients = sorted(client_sig)
        if len(sig_clients) >= 4 and len(set(client_sig.values())) >= 2:
            vals = np.array([client_sig[cid] for cid in sig_clients])
            _, t_zone_labels = sigma_zone_partition(vals, two_means_1d(vals),
                                                    self.confidence)
            temporal_uncertain = {cid for cid, lab in zip(sig_clients, t_zone_labels)
                                  if lab == "uncertain"}

        spatially_uncertain: set[int] = set()
        client_points_ok: dict[int, bool] = {}
        for i, lab in enumerate(point_labels):
            cid = int(proj.client_ids[i])
            if lab == "uncertain":
                spatially_uncertain.add(cid)
            if labels[i] == suspicious:
                ok = client_points_ok.get(cid, True) and lab != "uncertain"
                client_points_ok[cid] = ok

        # the cluster-level contrast can hide one honest client whose own
        # trajectory is no more repetitive than the benign cluster's
        # average; cluster membership alone is not enough evidence there
        revoked = {cid for cid, cl in client_cluster.items()
                   if cl == suspicious and client_points_ok.get(cid, False)
                   and cid not in temporal_uncertain
                   and client_sig[cid] <= TEMPORAL_CONTRAST * mean_sig[other]}

        # weak-evidence paths below only make sense when the suspicious
        # cluster is the minority: attackers are < half the population, so
        # a "suspicious" majority cluster is an unreliable identification
        minority_suspect = sizes[suspicious] <= sizes[other]

        # clients sitting confidently in the suspicious cluster whose
        # trajectory is too short for a temporal signature: not enough
        # evidence to revoke, enough to watchlist
        no_signature_suspects = ({cid for cid, ok in client_points_ok.items()
                                  if ok and cid not in client_cluster}
                                 if minority_suspect else set())
        uncertain = spatially_uncertain | temporal_uncertain | no_signature_suspects
        if not strong_contrast:
            # a replayed poison is much more repetitive than honest
            # sampling noise; without that contrast the suspicious cluster
            # may just be the quieter half of an honest split
            uncertain |= revoked if minority_suspect else set()
            revoked = set()

        # once this class has confirmed poison directions, an honest
        # outlier that merely drifted into the suspicious cluster should
        # not be revoked on cluster membership alone
        exemplars = self._exemplars.get(proj.class_id)
        if exemplars and revoked:
            blocks = np.stack([g.block for g in contribs])
            ids = np.array([g.client_id for g in contribs])
            center = blocks[labels != suspicious].mean(axis=0)
            for cid in sorted(revoked):
                if not _near_exemplar(blocks[ids == cid], exemplars, center, 0.9).all():
                    # failing to match any confirmed poison direction is
                    # evidence in the client's favor: no revocation and no
                    # watchlist strike from this class
                    revoked.discard(cid)
                    uncertain.discard(cid)
        return revoked, uncertain
