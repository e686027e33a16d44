"""Surrogate object-detection task.

A desk-scale stand-in for FL object detection: samples carry a feature
vector plus per-anchor object triplets (class, bbox, objectness), and the
model is a linear multi-head detector with analytic gradients. Box sizes
are regressed in log space so shrink-style label corruption leaves a
geometric footprint that survives averaging.

Each step works on whole arrays: a round's client datasets are drawn in
one pass, training computes a batch's label arrays once and then only
the gradient, and one greedy matcher ranks every class's predictions for
average precision.

Conventions:
  - classes 0..C-1 are foreground, C is background
  - bboxes are (cx, cy, w, h) in [0,1]
  - regression targets are (cx, cy, log w, log h)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

__all__ = [
    "ClientDataset",
    "DetectorWeights",
    "TaskGeometry",
    "generate_client_dataset",
    "generate_client_datasets",
    "generate_federation_data",
    "BatchTargets",
    "detector_grad",
    "detector_loss_and_grad",
    "predict",
    "iou",
    "average_precision",
    "evaluate_per_class_ap",
]

# Fixed constants of the class-conditional generators.
BACKGROUND_PROB = 0.25   # chance that an anchor holds no object
PROTOTYPE_SCALE = 2.0    # norm of each class prototype
CLIENT_SPREAD = 0.3      # std of the per-client feature offset (non-IID)
CENTER_JITTER = 0.04     # half-width of the uniform box-center jitter
SIZE_JITTER = 0.08       # std of the log-normal box-size jitter
IOU_THRESHOLD = 0.5      # least IoU of a prediction that hits its truth


@dataclass
class ClientDataset:
    """Vectorized batch of detection samples.

    x: (n, d) features; classes: (n, A) int with C = background;
    bboxes: (n, A, 4) as (cx, cy, w, h); objn: (n, A) bool.
    """

    x: np.ndarray
    classes: np.ndarray
    bboxes: np.ndarray
    objn: np.ndarray

    def __len__(self):
        return self.x.shape[0]

    def __getitem__(self, i) -> "ClientDataset":
        """Dataset i of a stack, as a view."""
        return ClientDataset(self.x[i], self.classes[i], self.bboxes[i], self.objn[i])

    def copy(self) -> "ClientDataset":
        return ClientDataset(self.x.copy(), self.classes.copy(),
                             self.bboxes.copy(), self.objn.copy())

    @staticmethod
    def stack(datasets) -> "ClientDataset":
        """One (P, n, ...) batch from P datasets of the same size."""
        return ClientDataset(*(np.stack([getattr(ds, f) for ds in datasets])
                               for f in ("x", "classes", "bboxes", "objn")))


@dataclass
class DetectorWeights:
    """Linear detector head.

    w_class: (A, C+1, d); w_bbox: (A, C, 4, d); w_objn: (A, C, d); leading
    axes, if any, index a stack of models (e.g. the P clients of a round).
    The whole model is one output layer, so per-class gradient blocks are
    well defined for forensics.
    """

    w_class: np.ndarray
    w_bbox: np.ndarray
    w_objn: np.ndarray

    @staticmethod
    def zeros(A: int, C: int, d: int) -> "DetectorWeights":
        return DetectorWeights(
            np.zeros((A, C + 1, d)), np.zeros((A, C, 4, d)), np.zeros((A, C, d))
        )

    @property
    def shape_params(self):
        A, Cp1, d = self.w_class.shape[-3:]
        return A, Cp1 - 1, d

    def __getitem__(self, i) -> "DetectorWeights":
        """Model i of a stack, as a view."""
        return DetectorWeights(self.w_class[i], self.w_bbox[i], self.w_objn[i])

    def scaled(self, a: float) -> "DetectorWeights":
        return DetectorWeights(a * self.w_class, a * self.w_bbox, a * self.w_objn)

    def add(self, other: "DetectorWeights") -> "DetectorWeights":
        return DetectorWeights(self.w_class + other.w_class,
                               self.w_bbox + other.w_bbox,
                               self.w_objn + other.w_objn)

    def sub(self, other: "DetectorWeights") -> "DetectorWeights":
        return DetectorWeights(self.w_class - other.w_class,
                               self.w_bbox - other.w_bbox,
                               self.w_objn - other.w_objn)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w_class.ravel(), self.w_bbox.ravel(),
                               self.w_objn.ravel()])

    @staticmethod
    def from_vector(vec: np.ndarray, A: int, C: int, d: int) -> "DetectorWeights":
        n1 = A * (C + 1) * d
        n2 = A * C * 4 * d
        return DetectorWeights(
            vec[:n1].reshape(A, C + 1, d),
            vec[n1:n1 + n2].reshape(A, C, 4, d),
            vec[n1 + n2:].reshape(A, C, d),
        )


@dataclass(frozen=True)
class TaskGeometry:
    """Fixed class-conditional generators shared by all clients.

    Features are built per anchor from a class prototype placed in that
    anchor's feature slice; boxes come from class-dependent base sizes
    with small jitter, so both heads are linearly learnable.
    """

    prototypes: np.ndarray   # (A, C+1, slice)
    slice_size: int
    base_sizes: np.ndarray   # (C,)


def _make_geometry(seed: int, C: int, d: int, A: int) -> TaskGeometry:
    rng = make_rng(seed, "task-geometry")
    slice_size = max(1, (d - 1) // A)
    protos = rng.standard_normal((A, C + 1, slice_size))
    norms = np.linalg.norm(protos, axis=-1, keepdims=True)
    protos *= PROTOTYPE_SCALE / np.maximum(norms, 1e-12)
    base = 0.22 + 0.10 * np.arange(C)
    return TaskGeometry(protos, slice_size, base)


def generate_client_datasets(geom: TaskGeometry, rngs, n: int, C: int, d: int, A: int,
                             *, feature_noise: float,
                             offsets: np.ndarray | None = None) -> ClientDataset:
    """Draw n samples for each of P clients as one (P, n, ...) batch.

    Client i draws from rngs[i] alone, in the order of a one-client call,
    and offsets[i], if given, displaces its features; the arithmetic then
    runs once over the stacked draws, element for element as it would per
    client.
    """
    P = len(rngs)
    u, noise = np.empty((P, n, A)), np.empty((P, n, d))
    labels = np.empty((P, n, A), dtype=np.int64)
    size_z, aspect_z = np.empty((P, n, A)), np.empty((P, n, A))
    jitter = np.empty((P, n, A, 2))
    for i, rng in enumerate(rngs):
        rng.random(out=u[i])
        labels[i] = rng.integers(0, C, size=(n, A))
        rng.standard_normal(out=noise[i])
        rng.standard_normal(out=size_z[i])
        jitter[i] = rng.uniform(-CENTER_JITTER, CENTER_JITTER, size=(n, A, 2))
        rng.standard_normal(out=aspect_z[i])
    fg = u >= BACKGROUND_PROB
    classes = np.where(fg, labels, C)
    x = feature_noise * noise
    s = geom.slice_size
    for a in range(A):
        x[..., a * s:(a + 1) * s] += geom.prototypes[a, classes[..., a]]
    x[..., -1] = 1.0  # bias feature
    if offsets is not None:
        x[..., :-1] += offsets[:, None, :-1]
    sizes = np.where(fg, geom.base_sizes[np.minimum(classes, C - 1)], 0.0)
    sizes = sizes * np.exp(SIZE_JITTER * size_z)
    centers = 0.5 + jitter
    bboxes = np.zeros((P, n, A, 4))
    bboxes[..., 0] = centers[..., 0]
    bboxes[..., 1] = centers[..., 1]
    bboxes[..., 2] = np.clip(sizes, 1e-3, 1.0)
    bboxes[..., 3] = np.clip(sizes * np.exp(0.02 * aspect_z), 1e-3, 1.0)
    bboxes[~fg] = 0.0
    return ClientDataset(x, classes, bboxes, fg)


def generate_client_dataset(geom: TaskGeometry, rng: np.random.Generator, n: int,
                            C: int, d: int, A: int, *, feature_noise: float,
                            offset: np.ndarray | None = None) -> ClientDataset:
    """Draw n samples from the class-conditional generators: the one-client
    case of generate_client_datasets."""
    return generate_client_datasets(
        geom, [rng], n, C, d, A, feature_noise=feature_noise,
        offsets=None if offset is None else offset[None])[0]


def generate_federation_data(seed: int, N: int, C: int, d: int, A: int, *,
                             test_samples: int = 400, feature_noise: float = 0.6):
    """(held-out test set, task geometry, offsets): the federation's fixed
    parts; offsets are the N per-client feature displacements (non-IID)
    that every draw of a client's data adds."""
    if C < 2 or d < 4 or A < 1:
        raise ValueError("invalid task dimensions: need C >= 2, d >= 4, A >= 1")
    geom = _make_geometry(seed, C, d, A)
    offsets = CLIENT_SPREAD * make_rng(seed, "client-offsets").standard_normal((N, d))
    test = generate_client_dataset(geom, make_rng(seed, "test-data"), test_samples,
                                   C, d, A, feature_noise=feature_noise)
    return test, geom, offsets


def _encode_boxes(bboxes: np.ndarray) -> np.ndarray:
    t = bboxes.copy()
    t[..., 2:] = np.log(np.maximum(bboxes[..., 2:], 1e-9))
    return t


def _softmax(z: np.ndarray) -> np.ndarray:
    # the class-axis max as a chain of np.maximum over the class slices: a
    # max is exact in any order, and the short chain beats a reduce
    m = z[..., 0]
    for k in range(1, z.shape[-1]):
        m = np.maximum(m, z[..., k])
    e = np.exp(z - m[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def _forward(x: np.ndarray, w: np.ndarray, head: tuple) -> np.ndarray:
    """x (..., n, d) @ rows(w)ᵀ: the head w (..., *head, d) viewed as a
    (..., rows, d) matrix, one output per sample and head row, (..., n, *head)."""
    rows = w.reshape(*w.shape[:w.ndim - len(head) - 1], -1, w.shape[-1])
    out = x @ rows.swapaxes(-1, -2)
    return out.reshape(*out.shape[:-1], *head)


def _backward(g: np.ndarray, x: np.ndarray, head: tuple) -> np.ndarray:
    """Gᵀ @ x: the gradient (..., *head, d) of a head whose outputs, as
    _forward lays them out, have gradient g (..., n, *head)."""
    G = g.reshape(*g.shape[:g.ndim - len(head)], -1)
    out = G.swapaxes(-1, -2) @ x
    return out.reshape(*out.shape[:-2], *head, x.shape[-1])


def _head_rows(classes: np.ndarray, C: int) -> np.ndarray:
    """The flat head row, (sample*A + anchor)*C + class, of each anchor's
    class in an (..., n, A, C) head output raveled whole; background reads
    row C-1, which the callers mask."""
    return np.arange(classes.size).reshape(classes.shape) * C + np.minimum(classes, C - 1)


def _heads(weights: DetectorWeights, x: np.ndarray, rows: np.ndarray):
    """Box regression (..., n, A, 4) and objectness logit (..., n, A) of the
    head rows that _head_rows picked, unmasked."""
    A, C, _ = weights.shape_params
    box = _forward(x, weights.w_bbox, (A, C, 4)).reshape(rows.size * C, 4)
    z = _forward(x, weights.w_objn, (A, C)).reshape(rows.size * C)
    return box[rows], z[rows]


@dataclass(frozen=True)
class BatchTargets:
    """The label-derived arrays of a batch, built once per local round:
    onehot (..., n, A, C+1), foreground mask fg and objectness targets t
    (..., n, A), encoded boxes (..., n, A, 4) and head rows (_head_rows)."""

    onehot: np.ndarray
    fg: np.ndarray
    boxes: np.ndarray
    t: np.ndarray
    rows: np.ndarray

    @staticmethod
    def of(batch: ClientDataset, C: int) -> "BatchTargets":
        return BatchTargets(np.eye(C + 1)[batch.classes], batch.classes < C,
                            _encode_boxes(batch.bboxes), batch.objn.astype(float),
                            _head_rows(batch.classes, C))


def detector_grad(weights: DetectorWeights, x: np.ndarray, targets: BatchTargets):
    """The exact gradient of detector_loss_and_grad's loss, computing no loss.

    Returns (gradient, (probs, resid, z)): the forward intermediates the
    loss reads, so the gradient that training takes is the one the loss
    checks.
    """
    A, C, _ = weights.shape_params
    norm = 1.0 / (x.shape[-2] * A)
    probs = _softmax(_forward(x, weights.w_class, (A, C + 1)))
    g_class = norm * _backward(probs - targets.onehot, x, (A, C + 1))

    # bbox and objn: only the true class's row of a foreground anchor
    # trains, so each output gradient is nonzero in that row alone
    sel = targets.onehot[..., :C]
    box, z = _heads(weights, x, targets.rows)
    resid = np.where(targets.fg[..., None], box - targets.boxes, 0.0)
    g_bbox = norm * _backward(sel[..., None] * resid[..., None, :], x, (A, C, 4))
    p = 1.0 / (1.0 + np.exp(-z))
    g_objn = norm * _backward(sel * (p - targets.t)[..., None], x, (A, C))
    return DetectorWeights(g_class, g_bbox, g_objn), (probs, resid, z)


def detector_loss_and_grad(weights: DetectorWeights, batch: ClientDataset):
    """Mean loss and its exact analytic gradient.

    Per (sample, anchor): cross-entropy over C+1 classes; for foreground
    anchors, squared error on the encoded box of the true class plus
    binary cross-entropy on that class's objectness logit. Normalized by
    n*A so duplicating the batch changes nothing. Leading axes of the batch
    (..., n, .) and of the weights broadcast: one loss and gradient each.
    The gradient is detector_grad's; the loss is read from its intermediates.
    """
    if batch.x.size == 0:
        raise ValueError("empty batch")
    A, C, _ = weights.shape_params
    targets = BatchTargets.of(batch, C)
    grad, (probs, resid, z) = detector_grad(weights, batch.x, targets)
    norm = 1.0 / (batch.x.shape[-2] * A)
    p_true = np.take_along_axis(probs, batch.classes[..., None], axis=-1)[..., 0]
    bce = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0) - targets.t * z
    loss = -norm * np.sum(np.log(np.maximum(p_true, 1e-300)), axis=(-2, -1))
    loss = loss + norm * (0.5 * np.sum(resid ** 2, axis=(-3, -2, -1))
                          + np.sum(np.where(targets.fg, bce, 0.0), axis=(-2, -1)))
    return loss, grad


def predict(weights: DetectorWeights, x: np.ndarray):
    """Per-anchor predictions for a feature matrix.

    Returns (probs (n,A,C+1), pred_class (n,A), bboxes (n,A,4), objn_prob
    (n,A)); background predictions carry zero boxes and objn 0.
    """
    A, C, d = weights.shape_params
    probs = _softmax(_forward(x, weights.w_class, (A, C + 1)))
    pred_class = probs.argmax(axis=-1)
    fg = pred_class < C
    bboxes, z = _heads(weights, x, _head_rows(pred_class, C))
    bboxes[..., 2:] = np.exp(np.clip(bboxes[..., 2:], -20, 3))
    bboxes[~fg] = 0.0
    objn_p = np.where(fg, 1.0 / (1.0 + np.exp(-z)), 0.0)
    return probs, pred_class, bboxes, objn_p


def iou(box_a, box_b):
    """Intersection-over-union of (cx, cy, w, h) boxes.

    Broadcasts over leading axes of (..., 4) arrays, so two 4-tuples give
    one float and iou(A[:, None], B[None]) gives every pair.
    """
    a = np.asarray(box_a, dtype=float)
    b = np.asarray(box_b, dtype=float)
    if (a[..., 2:] <= 0).any() or (b[..., 2:] <= 0).any():
        raise ValueError("boxes must have positive width and height")
    ax, ay, aw, ah = (a[..., j] for j in range(4))
    bx, by, bw, bh = (b[..., j] for j in range(4))
    ix = np.maximum(0.0, np.minimum(ax + aw / 2, bx + bw / 2)
                    - np.maximum(ax - aw / 2, bx - bw / 2))
    iy = np.maximum(0.0, np.minimum(ay + ah / 2, by + bh / 2)
                    - np.maximum(ay - ah / 2, by - bh / 2))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union


def _rank_within_group(keys: np.ndarray) -> np.ndarray:
    """Position of each element among the elements with its key, in input order."""
    order = np.argsort(keys, kind="stable")
    run_start = np.zeros(len(keys), dtype=np.int64)
    new = np.flatnonzero(keys[order][1:] != keys[order][:-1]) + 1
    run_start[new] = new
    rank = np.empty_like(run_start)
    rank[order] = np.arange(len(keys)) - np.maximum.accumulate(run_start)
    return rank


def _class_average_precisions(C, pred_class, pred_samples, pred_conf, pred_boxes,
                              gt_class, gt_samples, gt_boxes):
    """AP of each class 0..C-1 with greedy IoU matching, all classes in one
    matcher. Each class's predictions and truths match only each other, as
    in average_precision; {class: AP or None}."""
    n_gt = np.bincount(gt_class, minlength=C)
    ap = {c: (None if n_gt[c] == 0 else 0.0) for c in range(C)}
    keep = n_gt[pred_class] > 0          # a class without truth has no AP
    if not keep.any():
        return ap
    # ranked by (class, -confidence), ties by index
    order = np.flatnonzero(keep)
    conf = np.asarray(pred_conf, dtype=float)[order]
    order = order[np.lexsort((-conf, pred_class[order]))]
    cls, samples = pred_class[order], np.asarray(pred_samples)[order]

    # truths as a (groups, slots) table, one row per (class, sample) with its
    # truths in insertion order; slots without a truth (all of a
    # prediction-only group's) hold a unit box and start matched, so they
    # never win
    _, sample = np.unique(np.concatenate([gt_samples, samples]), return_inverse=True)
    groups, group = np.unique(np.concatenate([gt_class, cls]) * (sample.max() + 1) + sample,
                              return_inverse=True)
    gt_group, group = group[:len(gt_class)], group[len(gt_class):]
    slot = _rank_within_group(gt_group)
    table = np.ones((len(groups), slot.max() + 1, 4))
    table[gt_group, slot] = gt_boxes
    matched = np.ones(table.shape[:2], dtype=bool)
    matched[gt_group, slot] = False

    overlap = iou(np.asarray(pred_boxes, dtype=float)[order, None], table[group])
    overlap = np.where(np.isnan(overlap), -1.0, overlap)
    # the k-th prediction of every group matches at once: groups share no truth
    rank = _rank_within_group(group)
    tp = np.zeros(len(order))
    for k in range(rank.max() + 1):
        rows = np.flatnonzero(rank == k)
        cand = np.where(matched[group[rows]], -1.0, overlap[rows])
        best = cand.argmax(axis=1)
        hit = cand[np.arange(len(rows)), best] >= IOU_THRESHOLD
        matched[group[rows[hit]], best[hit]] = True
        tp[rows[hit]] = 1.0
    bounds = np.searchsorted(cls, np.arange(C + 1))
    for c in range(C):
        if bounds[c] == bounds[c + 1]:
            continue
        cum_tp = np.cumsum(tp[bounds[c]:bounds[c + 1]])
        precision = cum_tp / np.arange(1, len(cum_tp) + 1)
        recall = cum_tp / n_gt[c]
        prev = np.concatenate([[0.0], recall[:-1]])
        ap[c] = float(np.sum((recall - prev) * precision))
    return ap


def average_precision(pred_samples, pred_conf, pred_boxes, gt_samples, gt_boxes):
    """Single-class AP with greedy IoU matching.

    Predictions are (sample id, confidence, (cx, cy, w, h) box) arrays,
    truths (sample id, box) arrays. Ranked by confidence (ties by index),
    each prediction takes the highest-IoU unmatched truth of its sample
    (the first truth on a tie; a NaN IoU never matches) and is a hit if
    that IoU reaches IOU_THRESHOLD. AP is the step-integrated area under
    the PR curve.

    Returns None when there is no ground truth (AP undefined, never 0).
    """
    return _class_average_precisions(
        1, np.zeros(len(pred_samples), dtype=np.int64), pred_samples, pred_conf,
        pred_boxes, np.zeros(len(gt_samples), dtype=np.int64), gt_samples, gt_boxes)[0]


def evaluate_per_class_ap(weights: DetectorWeights, test: ClientDataset):
    """Per-class AP of the detector on a test set; None where undefined."""
    C = weights.shape_params[1]
    probs, pred_class, pred_boxes, objn_p = predict(weights, test.x)
    conf = np.take_along_axis(probs, pred_class[..., None], axis=-1)[..., 0] * objn_p
    pi, pa = np.nonzero(pred_class < C)  # sample-major, as AP ranks ties
    ti, ta = np.nonzero(test.classes < C)
    return _class_average_precisions(C, pred_class[pi, pa], pi, conf[pi, pa],
                                     pred_boxes[pi, pa], test.classes[ti, ta], ti,
                                     test.bboxes[ti, ta])
