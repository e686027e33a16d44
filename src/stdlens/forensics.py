"""Spatio-temporal gradient forensics.

Three-tier pipeline run at every forensic window boundary:

1. spatial signatures: per-class output-layer gradient blocks projected
   onto the top-2 eigenvectors of their covariance; a class whose
   projection splits into two well-separated 1D clusters is flagged.
2. temporal signatures: per client and per cluster, the windowed average
   pairwise dissimilarity of the client's round-ordered trajectory; the
   cluster with the lower mean score is the suspicious one. Means within
   1e-12 of each other make the smaller cluster suspicious, and cluster 0
   at equal sizes; a cluster without any signature defers the class.
3. sigma-density uncertainty: empirical-rule intervals mean +- z*sd per
   cluster, on the first spatial component and on the client-level
   temporal scores; a point in the open gap between the two intervals,
   or off the mean of a zero-spread cluster, is uncertain and only feeds
   a watchlist instead of triggering immediate revocation.

Five local decision paths ride on the tiers. Removing any one of them
fails an acceptance criterion or drops it to its floor:
- exemplar-instant revocation (criterion 8, delayed onset);
- temporal strikes (criterion 7, bbox; criterion 8, dilution gamma);
- no-signature watchlist (criterion 8, delayed onset);
- exemplar veto and contrast gate (criteria 7 and 8, skip rate beta).

The minority gate is the exception: no acceptance criterion needs it. It
lets the no-signature watchlist and the weak-contrast watchlist fire only
when the suspicious cluster is the smaller one. Forcing it open changes no
gate count. Its only evidence is the 100 runs at seeds 11-30 outside the
gate, where forcing it open raises false positives from 6 to 9.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import confidence_z
from .detection import DetectorWeights
from .seeding import derive_seed

__all__ = [
    "GradientContribution",
    "extract_class_gradient_block",
    "round_class_blocks",
    "covariance_top_eigh",
    "spatial_project",
    "flag_suspect_classes",
    "two_means_1d",
    "kmeans",
    "cluster_2d",
    "temporal_signature",
    "trajectory_signatures",
    "sigma_zone_partition",
    "unit_norm",
    "WindowedDefense",
    "StdLensDefense",
]

SEPARATION_THRESHOLD = 2.0  # least SSC1 2-means separation score that flags a class
TEMPORAL_CONTRAST = 0.5     # most suspicious/benign temporal-signature ratio that
                            # revokes outright (a weaker contrast only watchlists)
MAX_BLOCK_ENTRY = 1e100     # larger admitted entries could overflow a covariance


@dataclass(slots=True)
class GradientContribution:
    """One client's per-class output-layer gradient block for one round."""

    client_id: int
    round: int
    class_id: int
    block: np.ndarray


def extract_class_gradient_block(delta: DetectorWeights, class_id: int) -> np.ndarray:
    """The flat per-class block of one model: round_class_blocks(delta)[class_id]."""
    if not (0 <= class_id < delta.shape_params[1]):
        raise ValueError("class_id out of range")
    return round_class_blocks(delta)[class_id]


def round_class_blocks(deltas: DetectorWeights) -> np.ndarray:
    """(..., C, 6*A*d) per-class blocks of a model or a (P, ...) stack of them.

    The deterministic flattening of each head's per-class slice: class-head
    row c, then bbox-head rows for c in offset order, then the objn row,
    each across all anchors.
    """
    C = deltas.shape_params[1]
    k = deltas.w_class.ndim - 3        # the anchor axis, after any leading axes
    lead = deltas.w_class.shape[:k]
    return np.concatenate([np.moveaxis(w, k, k + 1).reshape(*lead, C, -1)
                           for w in (deltas.w_class[..., :C, :], deltas.w_bbox,
                                     deltas.w_objn)], axis=-1)


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


def spatial_project(blocks: np.ndarray) -> np.ndarray:
    """(n, 2) coordinates (SSC1, SSC2) of gradient blocks on their top-2
    covariance eigenvectors.

    Each axis is flipped so its coordinate of largest magnitude is
    positive. Rank-1 input yields an all-zero SSC2 rather than an error.
    """
    blocks = np.asarray(blocks, dtype=float)
    n, dim = blocks.shape
    if n < 3:
        raise ValueError("need at least 3 contributions")
    if dim < 2:
        raise ValueError("block dimension must be >= 2")
    centered, vals, vecs = covariance_top_eigh(blocks, 2)      # ascending
    ssc = centered @ vecs[:, [1, 0]]
    if vals[0] <= 1e-12 * max(vals[1], 1.0):
        ssc[:, 1] = 0.0
    for axis in range(2):
        if ssc[np.argmax(np.abs(ssc[:, axis])), axis] < 0:
            ssc[:, axis] = -ssc[:, axis]
    return ssc


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


# no defense calls kmeans or cluster_2d; they remain for the benchmark's traces
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


def flag_suspect_classes(projections: dict) -> dict:
    """Classes whose SSC1 coordinates split into two separated clusters,
    given class id -> `spatial_project` coordinates, each flagged class
    mapped to the `two_means_1d` labels of that split.

    Separation score s = |mu0 - mu1| / (sd0 + sd1 + eps) of the exact
    2-means split of the SSC1 coordinates; flag iff s >= SEPARATION_THRESHOLD.
    """
    flagged = {}
    for class_id, ssc in projections.items():
        x = ssc[:, 0]
        labels = two_means_1d(x)
        lo, hi = x[labels == 0], x[labels == 1]
        if len(hi) and (abs(lo.mean() - hi.mean()) / (lo.std() + hi.std() + 1e-12)
                        >= SEPARATION_THRESHOLD):
            flagged[class_id] = labels
    return flagged


def temporal_signature(trajectory: np.ndarray, omega: int):
    """Windowed average pairwise L1 dissimilarity of a trajectory.

    sum_{j=omega+1..n} sum_{k=1..omega} |G[j] - G[j-k]|_1 / (omega*n - omega^2)
    with 1-based indexing; None when n <= omega (denominator would not be
    positive).
    """
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    n = traj.shape[0]
    return trajectory_signatures(np.zeros(n, dtype=int), np.arange(n), traj, omega).get(0)


def trajectory_signatures(client_ids, rounds, points, omega: int) -> dict:
    """Temporal signature of each client's trajectory of points in round
    order (a stable sort), for the clients with more than `omega` points,
    keyed in order of each client's first round.

    One pass over all clients: every (j, j-k) pair of every trajectory
    gets its L1 distance, and each client's distances are totalled in
    j-major, k-minor order from 0.0, the order of the formula's double sum.
    """
    if omega < 1:
        raise ValueError("omega must be >= 1")
    ids = np.asarray(client_ids)
    by_round = np.argsort(rounds, kind="stable")
    by_client = np.argsort(ids[by_round], kind="stable")
    order = by_round[by_client]
    ids, pts = ids[order], np.asarray(points, dtype=float)[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(first)
    owner = np.cumsum(first) - 1
    sizes = np.diff(np.append(starts, len(ids)))
    # j-major, k-minor pairs at positions j >= omega of each trajectory
    late = np.flatnonzero(np.arange(len(ids)) - starts[owner] >= omega)
    j = np.repeat(late, omega)
    k = np.tile(np.arange(1, omega + 1), len(late))
    totals = np.bincount(owner[j], weights=np.abs(pts[j] - pts[j - k]).sum(axis=1),
                         minlength=len(starts))
    g = np.argsort(by_client[starts])
    g = g[sizes[g] > omega]
    return dict(zip(ids[starts[g]].tolist(),
                    (totals[g] / (omega * sizes[g] - omega * omega)).tolist()))


def sigma_zone_partition(values: np.ndarray, assignments: np.ndarray,
                         confidence: float) -> np.ndarray:
    """Per-point uncertainty under empirical-rule zones on a 1D coordinate.

    Each cluster's interval is mean +- z*sd. A point is uncertain when it
    lies in the open gap between the two clusters' intervals (overlapping
    intervals leave none), or when its cluster has zero spread and the
    point is off that cluster's mean. A point inside its own interval can
    never lie in the gap.
    """
    z = confidence_z(confidence)
    values = np.asarray(values, dtype=float)
    assignments = np.asarray(assignments)
    uncertain = np.zeros(len(values), dtype=bool)
    intervals = []                       # (mean, lo, hi) per cluster, sorted
    for c in sorted(set(assignments.tolist())):
        mine = assignments == c
        pts = values[mine]
        mean = float(pts.mean())
        sd = float(pts.std(ddof=1)) if len(pts) >= 2 else 0.0
        if sd == 0.0:
            uncertain[mine] = pts != mean
        intervals.append((mean, mean - z * sd, mean + z * sd))
    if len(intervals) == 2:
        (m0, l0, h0), (m1, l1, h1) = intervals
        lo, hi = (h0, l1) if m0 <= m1 else (h1, l0)
        uncertain |= (lo < values) & (values < hi)
    return uncertain


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


def _exemplar_candidates(ids: np.ndarray, blocks: np.ndarray, on_list: np.ndarray,
                         exemplars, factor: float) -> list[int]:
    """The clients that may pass `_near_exemplar` against the center of the
    off-watchlist rows of the other clients, by a bound that never drops a
    client the exact test accepts (it may keep one the exact test rejects).

    Each client's leave-one-out center is taken in one step as
    c' = (off-watchlist total - the client's own off-watchlist sum) / n_rest.
    The exact test computes c = rest.mean(axis=0) instead; both round the
    same exact mean m. Per coordinate, a float sum of n terms is within
    (n-1)*u*sum|x| of the true one in any summation order (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, sec. 4.2), so
    |c - m| and |c' - m| are each at most ~2n*u*S/n_rest, S the summed row
    norms of all off-watchlist rows (the client's own rows cancel in c');
    `gap` = 8n*eps*S/n_rest (eps = 2u) bounds |c - c'| with room to spare.
    By the triangle inequality |e - c| <= |e - c'| + gap, so a row p with
    |p - e| >= factor*(|e - c'| + gap) for every exemplar e fails the exact
    test. Its norms are within a relative (dim + 4)*u of their true values,
    which the factor (1 + `rel`) covers with room to spare. Here all squared
    distances, of rows and centers to exemplars, come from one product as
    |x|^2 + |e|^2 - 2 x.e, within (dim + 2)*u*(|x| + |e|)^2 of |x - e|^2 by
    the bound above: `err` adds rel*(|x| + |e|)^2, and dim*tiny (tiny the
    least normal) for gradual underflow in either test's squares, so an
    underflowed square keeps its client. Admitted entries are at most
    MAX_BLOCK_ENTRY: no square overflows. A client stays a candidate iff
    each of its rows passes for some exemplar and n_rest >= 3, the rows a
    confidence radius needs.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    n, dim = blocks.shape
    clients, inverse = np.unique(ids, return_inverse=True)
    off = ~on_list
    own = (inverse == np.arange(len(clients))[:, None]) & off     # (clients, rows)
    n_rest = off.sum() - own.sum(axis=1)
    valid = n_rest >= 3
    n_rest = np.maximum(n_rest, 1)
    center = (blocks[off].sum(axis=0) - own @ blocks) / n_rest[:, None]
    rel = 4 * (dim + 4) * eps
    x, e = np.concatenate([blocks, center]), np.array(exemplars)
    x2, e2 = np.vecdot(x, x), np.vecdot(e, e)
    sq = x2[:, None] + e2 - 2 * (x @ e.T)                         # |x - e|^2 within err
    err = rel * (np.sqrt(x2)[:, None] + np.sqrt(e2)) ** 2 + dim * tiny
    gap = 8 * n * eps * np.sqrt(x2[:n][off]).sum() / n_rest
    limit = factor * (1 + rel) * (np.sqrt(np.maximum(sq[n:] + err[n:], 0)) + gap[:, None])
    near = (sq[:n] - err[:n] < limit[inverse] ** 2).any(axis=1)
    far = np.bincount(inverse[~near], minlength=len(clients))
    return clients[valid & (far == 0)].tolist()


def unit_norm(blocks: np.ndarray) -> np.ndarray:
    """Each row of the finite (n, dim) `blocks` at unit L2 norm; a zero row
    stays zero. A nonzero row whose norm overflows or underflows is first
    divided by its largest magnitude, so it keeps its direction. vecdot sums
    each row as np.linalg.norm sums one block."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(blocks, blocks))
    out = blocks / np.where(norms > 0, norms, 1.0)[:, None]
    odd = ((norms == 0) | (norms == np.inf)) & blocks.any(axis=1)
    if odd.any():
        scaled = blocks[odd] / np.abs(blocks[odd]).max(axis=1, keepdims=True)
        out[odd] = scaled / np.sqrt(np.vecdot(scaled, scaled))[:, None]
    return out


def _is_id_type(t: type) -> bool:
    """The id rule: an id is an int or a numpy integer, never a bool."""
    return issubclass(t, (int, np.integer)) and t is not bool


def _round_columns(contributions, dim: Optional[int]) -> Optional[tuple]:
    """(client ids, rounds, class ids, blocks) of a round, each built by one
    np.array call, or None unless every id follows the id rule within
    int64 (a larger one overflows the int64 build) and the blocks form one
    (n, dim) matrix, or with no `dim` one of any width >= 2. No row is
    judged here."""
    columns = ([g.client_id for g in contributions], [g.round for g in contributions],
               [g.class_id for g in contributions])
    if not all(map(_is_id_type, set(map(type, itertools.chain(*columns))))):
        return None
    try:
        ids, rounds, class_ids = (np.array(col, dtype=np.int64) for col in columns)
        blocks = np.array([g.block for g in contributions], dtype=float)
    except (ValueError, TypeError, OverflowError):
        return None
    width = dim or blocks.shape[-1]
    if blocks.shape != (len(contributions), width) or width < 2:
        return None
    return ids, rounds, class_ids, blocks


class WindowedDefense:
    """Ingestion shell shared by every windowed defense.

    Both hooks feed one `_ingest` of a round as columns: client ids, rounds,
    class ids and a block matrix. A call is only held until its window
    closes: `_ingest` drops a round before the open window, closes the open
    window first on a round of a later window, and fixes `block_dim` if it
    is unset. Every held call is judged once, in whole-window array passes,
    when the window closes (`window_step`) or when `clients` is read. Each
    drop rule is one boolean mask: a length other than `block_dim` (if
    unset, the first call with a row that passes the next four masks fixes
    it), a round other than the one observed, a revoked client, a class id
    out of range, a non-finite block, an entry above MAX_BLOCK_ENTRY in
    magnitude after `_admit`, and a repeated (client, round, class) triple:
    the earliest call that holds a triple keeps its row only if it holds
    one copy, and every later call's copy is dropped.
    `observe_contributions` builds a round as columns with one
    `_round_columns` call, and a round that does not build with one call
    per record, so one rule judges both. A record is kept if its ids are
    ints or numpy integers (bools excluded) within int64, so no id is
    truncated into another client's, and its block is a row of `block_dim`
    floats or, if unset, of the length that most such rows of at least 2
    entries share, the longer on a tie. Each window of `window` rounds,
    keyed on `round // window`, goes to `_decide` as per-class arrays in
    call order, none of a revoked client; it returns (clients to revoke,
    watchlist events). No client is revoked twice. `clients` holds every
    client with an admitted row, so far."""

    def __init__(self, num_classes: int, window: int,
                 block_dim: Optional[int] = None):
        if block_dim is not None and block_dim < 2:
            raise ValueError("block_dim must be >= 2")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.num_classes = num_classes
        self.window = window
        self.block_dim = block_dim
        self.revoked: set[int] = set()
        self._pending: list[tuple] = []    # (round, ids, rounds, class ids, blocks) per call
        self._judged: list[tuple] = []     # (ids, rounds, class ids, blocks) admitted rows
        self._seen: set[tuple] = set()     # (client, round, class) triples met
        self._open = 0                     # index of the open window
        self._clients: set[int] = set()

    @property
    def clients(self) -> set[int]:
        """Clients with an admitted contribution, the held calls judged."""
        self._judge()
        return self._clients

    def observe_round(self, round_idx: int, client_ids, deltas: DetectorWeights
                      ) -> tuple[list[int], list[int]]:
        """Engine hook: consume one round's (P, ...) stack of deltas, row i
        from client_ids[i], all their per-class blocks gathered at once."""
        C = self.num_classes
        blocks = round_class_blocks(deltas)[:, :C]
        P, _, dim = blocks.shape
        return self._ingest(round_idx, np.array(client_ids, np.int64).repeat(C),
                            np.full(P * C, round_idx, np.int64),
                            np.tile(np.arange(C), P), blocks.reshape(P * C, dim))

    def observe_contributions(self, round_idx: int, contributions
                              ) -> tuple[list[int], list[int]]:
        """Replay-mode hook: consume the contributions of round `round_idx`,
        a list of GradientContribution."""
        columns = _round_columns(contributions, self.block_dim)
        if columns is None:
            checked = [c for g in contributions if (c := _round_columns([g], None)) is not None]
            lengths = Counter(c[3].shape[1] for c in checked)
            dim = self.block_dim or max(lengths, key=lambda n: (lengths[n], n), default=0)
            empty = (*[np.empty(0, np.int64)] * 3, np.empty((0, dim)))
            columns = tuple(map(np.concatenate, zip(
                empty, *(c for c in checked if c[3].shape[1] == dim))))
        return self._ingest(round_idx, *columns)

    def _ingest(self, round_idx: int, ids: np.ndarray, rounds: np.ndarray,
                class_ids: np.ndarray, blocks: np.ndarray) -> tuple[list[int], list[int]]:
        """Hold one round's call until its window closes. A round before the
        open window is dropped, and a round of a later window first closes
        the open one."""
        index = round_idx // self.window
        if index < self._open:
            return [], []
        verdicts = self.window_step() if index > self._open else ([], [])
        self._open = index
        if self.block_dim is None and self._passes(
                rounds == round_idx, ids, class_ids, blocks).any():
            self.block_dim = blocks.shape[1]
        self._pending.append((round_idx, ids, rounds, class_ids, blocks))
        if round_idx % self.window == self.window - 1:   # the window's last round
            revocations, watchlist_events = self.window_step()
            self._open = index + 1
            verdicts = (verdicts[0] + revocations, verdicts[1] + watchlist_events)
        return verdicts

    def _passes(self, on_round: np.ndarray, ids: np.ndarray, class_ids: np.ndarray,
                blocks: np.ndarray) -> np.ndarray:
        """The rows on their call's round, of an unrevoked client and a
        class in range, with finite blocks."""
        revoked = np.fromiter(map(self.revoked.__contains__, ids.tolist()), bool, len(ids))
        return (on_round & ~revoked & (class_ids >= 0) & (class_ids < self.num_classes)
                & np.isfinite(blocks).all(axis=1))

    def _judge(self) -> None:
        """Admit the held calls' rows in one pass, in call order."""
        calls = [p for p in self._pending if p[4].shape[1] == self.block_dim]
        self._pending = []
        if not calls:
            return
        on_round = np.concatenate([rounds == k for k, _, rounds, _, _ in calls])
        call = np.repeat(np.arange(len(calls)), [len(p[1]) for p in calls])
        ids, rounds, class_ids, blocks = (np.concatenate(c) for c in list(zip(*calls))[1:])
        del calls                          # no call's blocks outlive the concatenation
        keep = self._passes(on_round, ids, class_ids, blocks)
        if not keep.all():
            ids, rounds, class_ids, blocks, call = (
                a[keep] for a in (ids, rounds, class_ids, blocks, call))
        blocks = self._admit(blocks)
        fits = np.abs(blocks).max(axis=1, initial=0.0) <= MAX_BLOCK_ENTRY
        if not fits.all():
            ids, rounds, class_ids, blocks, call = (
                a[fits] for a in (ids, rounds, class_ids, blocks, call))
        triples = list(zip(ids.tolist(), rounds.tolist(), class_ids.tolist()))
        met, seen = set(triples), self._seen
        if len(met) < len(triples) or not met.isdisjoint(seen):
            # a triple's earliest call keeps its row only if it holds one
            # copy, so a copy cannot frame the client it names; every later
            # call's copy is dropped. A window without repeats, as every
            # live one is, skips this pass.
            owner, copies = {}, {}
            for t, k in zip(triples, call.tolist()):
                if owner.setdefault(t, k) == k:
                    copies[t] = copies.get(t, 0) + 1
            once = np.fromiter((owner[t] == k and copies[t] == 1 and t not in seen
                                for t, k in zip(triples, call.tolist())), bool, len(triples))
            ids, rounds, class_ids, blocks = (a[once] for a in (ids, rounds, class_ids, blocks))
        seen |= met
        self._clients.update(ids.tolist())
        self._judged.append((ids, rounds, class_ids, blocks))

    def window_step(self) -> tuple[list[int], list[int]]:
        """Close the window: judge the held calls, and decide on the
        admitted rows, each class as one (client ids, rounds, blocks) triple
        of arrays."""
        self._judge()
        judged, self._judged, self._seen = self._judged, [], set()
        window = {}
        if judged:
            ids, rounds, class_ids, blocks = (judged[0] if len(judged) == 1
                                              else map(np.concatenate, zip(*judged)))
            del judged
            if (class_ids[1:] < class_ids[:-1]).any():
                order = np.argsort(class_ids, kind="stable")
                ids, rounds, class_ids, blocks = (a[order] for a in (ids, rounds, class_ids, blocks))
            ends = np.cumsum(np.bincount(class_ids, minlength=self.num_classes)).tolist()
            window = {c: (ids[s:e], rounds[s:e], blocks[s:e])
                      for c, (s, e) in enumerate(zip([0] + ends, ends)) if e > s}
        revocations, watchlist_events = self._decide(window)
        revocations = sorted(set(revocations) - self.revoked)
        self.revoked.update(revocations)
        return revocations, watchlist_events

    def _admit(self, blocks: np.ndarray) -> np.ndarray:
        return blocks

    def _decide(self, window) -> tuple[list[int], list[int]]:
        raise NotImplementedError


class StdLensDefense(WindowedDefense):
    """Stateful three-tier defense driven once per FL round.

    Admission scales each round's admitted rows to unit norm in one step
    (`normalize_blocks`); the shell buffers them per class over a forensic
    window, and at each window boundary the full pipeline runs on the
    per-class arrays and returns clients to revoke. `seed` is accepted and
    unused: the defense draws no random numbers.
    """

    def __init__(self, num_classes: int, window: int, omega: int,
                 confidence: float, watchlist_threshold: int = 2,
                 normalize_blocks: bool = True, seed: int = 0,
                 block_dim: Optional[int] = None):
        self.z = confidence_z(confidence)
        super().__init__(num_classes, window, block_dim)
        self.normalize_blocks = normalize_blocks
        self.omega = omega
        self.confidence = confidence
        self.watchlist_threshold = watchlist_threshold
        self.strikes: dict[int, int] = {}          # client id -> watchlist strikes
        self._exemplars: dict[int, list] = {}      # class_id -> revoked block means

    def _admit(self, blocks: np.ndarray) -> np.ndarray:
        # direction forensics: a replayed poison payload keeps its gradient
        # direction even while the magnitude tracks the moving global
        # model, so unit-norm blocks make temporal repetitiveness visible
        # in any training phase
        return unit_norm(blocks) if self.normalize_blocks else blocks

    # -- the forensic window ----------------------------------------------

    def _decide(self, classes) -> tuple[list[int], list[int]]:
        """Run the three-tier pipeline on the window, given as class id ->
        (client ids, rounds, blocks) arrays."""
        projections = {c: spatial_project(blocks)
                       for c, (ids, _, blocks) in classes.items() if len(ids) >= 3}
        flagged = flag_suspect_classes(projections)

        to_revoke: set[int] = self._exemplar_matches(classes)
        uncertain_clients: set[int] = self._temporal_strikes(classes)
        for c, labels in sorted(flagged.items()):
            revoked_c, uncertain_c = self._analyze_class(
                c, *classes[c], projections[c], labels)
            to_revoke |= revoked_c
            uncertain_clients |= uncertain_c

        watchlist_events = sorted(uncertain_clients)
        for cid in watchlist_events:
            self.strikes[cid] = self.strikes.get(cid, 0) + 1
            if self.strikes[cid] >= self.watchlist_threshold:
                to_revoke.add(cid)

        revocations = sorted(to_revoke)
        if revocations:
            # an attacker's blocks in classes its poison does not touch look
            # honest; the outside-the-population-radius requirement inside
            # _record_exemplars keeps those out of the archive, so every
            # class may contribute exemplars
            self._record_exemplars(classes, revocations)
        return revocations, watchlist_events

    def _exemplar_matches(self, classes) -> set[int]:
        """Clients sitting practically on a confirmed poison direction.

        One or two lingering attackers cannot drive a class flag or the
        top-2 eigenprojection on their own, so the check runs in full
        block space: a client whose contributions in some class all lie
        outside the remaining population's confidence radius AND closer
        to an archived exemplar than 0.75 times that exemplar's distance
        to the population center is revoked outright. A conservative
        whole-array bound (`_exemplar_candidates`) rules out almost every
        client first; only the rest take the exact per-client test.
        """
        watched = list(self.strikes)
        matches: set[int] = set()
        for c, (ids, _, blocks) in classes.items():
            exemplars = self._exemplars.get(c)
            if not exemplars:
                continue
            on_list = np.isin(ids, watched)
            for cid in _exemplar_candidates(ids, blocks, on_list, exemplars, 0.75):
                mine = ids == cid
                center, radius = _population_radius(blocks[~mine & ~on_list], self.z)
                pts = blocks[mine]
                outside = np.linalg.norm(pts - center, axis=1) > radius
                if (outside & _near_exemplar(pts, exemplars, center, 0.75)).all():
                    matches.add(cid)
        return matches

    def _temporal_strikes(self, classes) -> set[int]:
        """Per-client repetitiveness scrutiny, independent of clustering.

        A replayed poison payload produces a far more repetitive block
        trajectory than honest per-round sampling, even when dilution
        keeps the direction inside the population's spatial spread. A
        client whose own-trajectory signature in some class drops below
        half the population median collects a watchlist strike.
        """
        strikes: set[int] = set()
        for ids, rounds, blocks in classes.values():
            sigs = trajectory_signatures(ids, rounds, blocks, self.omega)
            if len(sigs) < 4:
                continue
            med = float(np.median(list(sigs.values())))
            if med > 0:
                strikes |= {cid for cid, v in sigs.items()
                            if v <= TEMPORAL_CONTRAST * med}
        return strikes

    def _record_exemplars(self, classes, revoked) -> None:
        """Archive the mean block direction of each freshly revoked client
        for the classes where it actually stood apart from the population."""
        for c, (ids, _, blocks) in classes.items():
            rest = blocks[~np.isin(ids, revoked)]
            if len(rest) < 3:
                continue
            center, radius = _population_radius(rest, self.z)
            for cid in revoked:
                pts = blocks[ids == cid]
                if not len(pts):
                    continue
                mean = pts.mean(axis=0)
                if np.linalg.norm(mean - center) > radius:
                    self._exemplars.setdefault(c, []).append(mean)

    def _analyze_class(self, class_id: int, ids: np.ndarray, rounds: np.ndarray,
                       blocks: np.ndarray, ssc: np.ndarray, labels: np.ndarray):
        """Tiers 2 and 3 for one flagged class, on the SSC1 2-means `labels`
        that flagged it. Returns (revoked client ids, uncertain client ids),
        both empty when a cluster has no temporal signature."""
        x = ssc[:, 0]
        clusters = (0, 1)
        sigs = {c: trajectory_signatures(ids[labels == c], rounds[labels == c],
                                         ssc[labels == c], self.omega)
                for c in clusters}
        if not (sigs[0] and sigs[1]):
            return set(), set()
        sizes = {c: int((labels == c).sum()) for c in clusters}
        mean_sig = {c: float(np.mean(list(sigs[c].values()))) for c in clusters}
        # the more repetitive cluster is suspicious; a tie goes to the
        # smaller cluster, and to cluster 0 at equal sizes
        if abs(mean_sig[0] - mean_sig[1]) <= 1e-12:
            suspicious = 0 if sizes[0] <= sizes[1] else 1
        else:
            suspicious = 0 if mean_sig[0] < mean_sig[1] else 1
        other = 1 - suspicious

        point_uncertain = sigma_zone_partition(x, labels, self.confidence)
        strong_contrast = (mean_sig[suspicious]
                           <= TEMPORAL_CONTRAST * mean_sig[other])

        client_sig, client_cluster = {}, {}
        for cid in sigs[0].keys() | sigs[1].keys():
            defined = {c: sigs[c][cid] for c in clusters if cid in sigs[c]}
            best = min(defined, key=lambda c: (defined[c], sizes[c]))
            client_sig[cid] = defined[best]
            client_cluster[cid] = best

        # temporal sigma zones over the client-level signatures
        temporal_uncertain: set[int] = set()
        sig_clients = sorted(client_sig)
        if len(sig_clients) >= 4 and len(set(client_sig.values())) >= 2:
            vals = np.array([client_sig[cid] for cid in sig_clients])
            t_uncertain = sigma_zone_partition(vals, two_means_1d(vals),
                                               self.confidence)
            temporal_uncertain = {cid for cid, u in zip(sig_clients, t_uncertain) if u}

        # clients whose every point in the suspicious cluster is confident
        in_suspicious = labels == suspicious
        spatially_uncertain = set(ids[point_uncertain].tolist())
        points_ok = (set(ids[in_suspicious].tolist())
                     - set(ids[in_suspicious & point_uncertain].tolist()))

        # the cluster-level contrast can hide one honest client whose own
        # trajectory is no more repetitive than the benign cluster's
        # average; cluster membership alone is not enough evidence there
        revoked = {cid for cid, cl in client_cluster.items()
                   if cl == suspicious and cid in points_ok
                   and cid not in temporal_uncertain
                   and client_sig[cid] <= TEMPORAL_CONTRAST * mean_sig[other]}

        # weak-evidence paths below only make sense when the suspicious
        # cluster is the minority: attackers are < half the population, so
        # a "suspicious" majority cluster is an unreliable identification
        minority_suspect = sizes[suspicious] <= sizes[other]

        # clients sitting confidently in the suspicious cluster whose
        # trajectory is too short for a temporal signature: not enough
        # evidence to revoke, enough to watchlist
        no_signature_suspects = (points_ok - client_cluster.keys()
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
        exemplars = self._exemplars.get(class_id)
        if exemplars and revoked:
            center = blocks[~in_suspicious].mean(axis=0)
            for cid in sorted(revoked):
                if not _near_exemplar(blocks[ids == cid], exemplars, center, 0.9).all():
                    # failing to match any confirmed poison direction is
                    # evidence in the client's favor: no revocation and no
                    # watchlist strike from this class
                    revoked.discard(cid)
                    uncertain.discard(cid)
        return revoked, uncertain
