"""Reference implementations that only tests use: each recomputes a library
result by a different, slower route, so the two can be checked against each
other.

Detections are rows of (cx, cy, w, h, confidence, class) and ground truth rows
of (class, cx, cy, w, h), as `metrics.evaluate` takes them."""
import os

import numpy as np

from lightdet import data, model
from lightdet.boxes import corners_np, iou_matrix
from lightdet.data import _background
from lightdet.metrics import MetricReport, ap_from_points

from helpers import match_rows


def rasterized_iou(a, b, n: int = 4000, dense: bool = False) -> float:
    """IoU by counting grid-cell centers inside each box; a and b are (cx, cy, w, h).

    An n-cell grid spans the pair's joint bounding frame. A cell belongs to a box
    when its center does. dense=True materializes the full 2D occupancy grids;
    the default counts the same cells through the x/y center masks (identical
    result, no n^2 memory).
    """
    ax1, ay1, ax2, ay2 = corners_np(np.asarray(a, np.float64))
    bx1, by1, bx2, by2 = corners_np(np.asarray(b, np.float64))
    x0, x1 = min(ax1, bx1), max(ax2, bx2)
    y0, y1 = min(ay1, by1), max(ay2, by2)
    span = max(x1 - x0, y1 - y0, 1e-12)
    xs = x0 + (np.arange(n) + 0.5) * (span / n)
    ys = y0 + (np.arange(n) + 0.5) * (span / n)

    in_ax = (xs >= ax1) & (xs <= ax2)
    in_ay = (ys >= ay1) & (ys <= ay2)
    in_bx = (xs >= bx1) & (xs <= bx2)
    in_by = (ys >= by1) & (ys <= by2)

    if dense:
        grid_a = np.outer(in_ay, in_ax)
        grid_b = np.outer(in_by, in_bx)
        cells_a = int(grid_a.sum())
        cells_b = int(grid_b.sum())
        cells_i = int((grid_a & grid_b).sum())
    else:
        cells_a = int(in_ax.sum()) * int(in_ay.sum())
        cells_b = int(in_bx.sum()) * int(in_by.sum())
        cells_i = int((in_ax & in_bx).sum()) * int((in_ay & in_by).sum())

    cells_u = cells_a + cells_b - cells_i
    return cells_i / cells_u if cells_u else 0.0


def oracle_ap_sweep(dets_per_image: list, gts_per_image: list, class_id: int):
    """Brute-force reference: re-match the whole dataset at every confidence cut.

    Never reuses the incremental bookkeeping; each threshold starts from nothing.
    Returns None when the class has no ground truth.
    """
    n_gt = sum(1 for gts in gts_per_image for g in gts if g[0] == class_id)
    if n_gt == 0:
        return None
    all_confs = sorted({d[4] for dets in dets_per_image for d in dets if d[5] == class_id},
                       reverse=True)
    recalls, precisions = [], []
    for thr in all_confs:
        tp_total, det_total = 0, 0
        for dets, gts in zip(dets_per_image, gts_per_image):
            keep = sorted((d for d in dets if d[5] == class_id and d[4] >= thr),
                          key=lambda d: -d[4])  # stable: index order on ties
            cls_gts = [g for g in gts if g[0] == class_id]
            flags = match_rows(keep, cls_gts)
            tp_total += sum(flags)
            det_total += len(flags)
        if det_total == 0:
            continue
        recalls.append(tp_total / n_gt)
        precisions.append(tp_total / det_total)
    if not recalls:
        return 0.0
    return ap_from_points(np.asarray(recalls), np.asarray(precisions))


def sort_detections(dets: list) -> list:
    return [d for _, d in sorted(enumerate(dets), key=lambda t: (-t[1][4], t[0]))]


def ap_for_class(dets_per_image: list, gts_per_image: list, class_id: int):
    """(ap, confidences, tp_flags, n_gt) of one class, matched image by image
    on that class alone; ap is None when the class has no GT."""
    n_gt = sum(1 for gts in gts_per_image for g in gts if g[0] == class_id)
    confs: list[float] = []
    flags: list[bool] = []
    for dets, gts in zip(dets_per_image, gts_per_image):
        cls_dets = sort_detections([d for d in dets if d[5] == class_id])
        cls_gts = [g for g in gts if g[0] == class_id]
        for det, flag in zip(cls_dets, match_rows(cls_dets, cls_gts)):
            confs.append(det[4])
            flags.append(flag)
    if n_gt == 0:
        return None, np.array(confs), np.array(flags, dtype=bool), 0
    order = np.lexsort((np.arange(len(confs)), -np.asarray(confs, dtype=np.float64)))
    tp = np.asarray(flags, dtype=np.float64)[order]
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    ap = ap_from_points(recall, precision)
    return ap, np.asarray(confs, dtype=np.float64)[order], tp.astype(bool), n_gt


def evaluate_per_class(dets_per_image: list, gts_per_image: list,
                       num_classes: int) -> MetricReport:
    """`metrics.evaluate` class by class: each class's curve from ap_for_class,
    then the class-major concatenation stable-sorted by confidence for the F1 cut."""
    if not any(gts for gts in gts_per_image):
        raise ValueError("evaluation needs at least one ground-truth box")
    aps: dict[int, float] = {}
    counts: dict[int, int] = {}
    pooled_conf: list[np.ndarray] = []
    pooled_tp: list[np.ndarray] = []
    total_gt = 0
    for cls in range(num_classes):
        ap, confs, tps, n_gt = ap_for_class(dets_per_image, gts_per_image, cls)
        counts[cls] = n_gt
        if ap is None:
            continue
        aps[cls] = ap
        pooled_conf.append(confs)
        pooled_tp.append(tps)
        total_gt += n_gt

    map50 = float(np.mean(list(aps.values()))) if aps else 0.0
    conf = np.concatenate(pooled_conf) if pooled_conf else np.array([])
    tp = np.concatenate(pooled_tp) if pooled_tp else np.array([], dtype=bool)
    if conf.size == 0:
        return MetricReport(map50, aps, 0.0, 0.0, counts)
    order = np.argsort(-conf, kind="stable")
    tp_sorted = tp[order].astype(np.float64)
    cum_tp = np.cumsum(tp_sorted)
    cum_fp = np.cumsum(1.0 - tp_sorted)
    precision = cum_tp / (cum_tp + cum_fp)
    recall = cum_tp / total_gt
    f1 = 2 * precision * recall / np.maximum(precision + recall, 1e-12)
    best = int(np.argmax(f1))
    return MetricReport(map50, aps, float(precision[best]), float(recall[best]), counts)


def load_sample(root: str, stem: str, nc: int, img_size: int):
    """One sample as `data.load_split` decodes it, read on its own: (image
    (3,S,S) float32 RGB in [0, 1], labels (n,5)) at S = img_size. An image
    already S x S keeps its pixels and labels; any other is letterboxed."""
    img = data.read_ppm(os.path.join(root, "images", stem + ".ppm"))
    lbl_path = os.path.join(root, "labels", stem + ".txt")
    labels = data.parse_labels(lbl_path, nc) if os.path.exists(lbl_path) \
        else np.zeros((0, 5), np.float64)
    if img.shape[:2] != (img_size, img_size):
        img, rec = data.letterbox(img, img_size)
        labels = data.labels_to_canvas(labels, rec)
    return img.transpose(2, 0, 1).astype(np.float32) / 255.0, labels


def labels_from_canvas(labels: np.ndarray, rec: dict) -> np.ndarray:
    """Exact inverse of data.labels_to_canvas."""
    out = np.asarray(labels, dtype=np.float64).reshape(-1, 5).copy()
    t = rec["target"]
    out[:, 1] = (out[:, 1] * t - rec["pad_x"]) / rec["new_w"]
    out[:, 2] = (out[:, 2] * t - rec["pad_y"]) / rec["new_h"]
    out[:, 3] = out[:, 3] * t / rec["new_w"]
    out[:, 4] = out[:, 4] * t / rec["new_h"]
    return out


def shifted_box_nms(boxes_xyxy: np.ndarray, scores: np.ndarray, classes: np.ndarray,
                    max_det: int, shift: float) -> np.ndarray:
    """Greedy NMS over all classes at once, kept apart by moving each class's
    boxes `classes * shift` along both axes, so that boxes of different classes
    never overlap; `shift` must exceed the boxes' extent.

    The sorted candidates go in fixed blocks of model._NMS_BLOCK: one IoU matrix
    against every box kept so far, then a greedy pass over each candidate of the
    block's own IoU matrix.
    """
    boxes_xyxy = boxes_xyxy + classes[:, None] * shift
    order = np.lexsort((np.arange(len(scores)), -scores))
    keep: list[int] = []
    for start in range(0, order.size, model._NMS_BLOCK):
        if len(keep) >= max_det:
            break
        cand = order[start:start + model._NMS_BLOCK]
        if keep:
            clear = iou_matrix(boxes_xyxy[cand], boxes_xyxy[keep]) <= model.NMS_IOU
            cand = cand[clear.all(axis=1)]
        clear = iou_matrix(boxes_xyxy[cand], boxes_xyxy[cand]) <= model.NMS_IOU
        alive = np.ones(cand.size, dtype=bool)
        for r in range(cand.size):
            if alive[r]:
                keep.append(cand[r])
                if len(keep) == max_det:
                    break
                alive &= clear[r]
    return np.asarray(keep, dtype=np.int64)


def render_flame(rng: np.random.Generator, size: int):
    """data._render_flame over the whole frame. Returns (mask, color)."""
    rx = rng.uniform(0.07, 0.13) * size
    ry = rx * rng.uniform(1.1, 1.5)
    cx = rng.uniform(rx * 1.3, size - rx * 1.3)
    cy = rng.uniform(ry * 1.3, size - ry * 1.3)
    yy, xx = np.mgrid[0:size, 0:size]
    dx, dy = (xx - cx) / rx, (yy - cy) / ry
    theta = np.arctan2(dy, dx)
    p1, p2 = rng.uniform(0, 2 * np.pi, 2)
    rim = 1.0 + 0.05 * np.sin(3 * theta + p1) + 0.03 * np.sin(7 * theta + p2)
    d = np.sqrt(dx * dx + dy * dy) / rim
    mask = d < 1.0
    t = np.clip(d, 0, 1)[..., None]
    core = np.array([255.0, 225.0, 120.0])
    edge = np.array([205.0, 45.0, 10.0])
    color = core * (1 - t) + edge * t
    return mask, color


def render_smoke(rng: np.random.Generator, size: int):
    """data._render_smoke over the whole frame. Returns (mask, gray, alpha)."""
    rx = rng.uniform(0.09, 0.16) * size
    ry = rx * rng.uniform(0.6, 0.9)
    cx = rng.uniform(rx * 1.2, size - rx * 1.2)
    cy = rng.uniform(ry * 1.2, size - ry * 1.2)
    yy, xx = np.mgrid[0:size, 0:size]
    mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 < 1.0
    gray = rng.uniform(150, 205)
    alpha = rng.uniform(0.6, 0.85)
    return mask, gray, alpha


def synth_scene(rng: np.random.Generator, size: int):
    """data.synth_scene with every blob evaluated over the whole frame."""
    img = _background(rng, size)
    labels = []
    for _ in range(int(rng.integers(1, 4))):
        cls = int(rng.integers(0, 2))
        if cls == 0:
            mask, color = render_flame(rng, size)
            img[mask] = color[mask]
        else:
            mask, gray, alpha = render_smoke(rng, size)
            img[mask] = alpha * gray + (1 - alpha) * img[mask]
        if mask.any():
            ys, xs = np.nonzero(mask)
            x1, x2, y1, y2 = xs.min(), xs.max(), ys.min(), ys.max()
            labels.append([cls, (x1 + x2 + 1) / 2 / size, (y1 + y2 + 1) / 2 / size,
                           (x2 - x1 + 1) / size, (y2 - y1 + 1) / size])
    return img.astype(np.uint8), np.asarray(labels, np.float64).reshape(-1, 5)


def channel_shuffle(x):
    """Interleave the two channel halves of an NCHW Tensor, as ShuffleNet does
    between grouped convs: output channel 2k + g is input channel g*C/2 + k.
    The light neck's DSSConv once ended in this after an ungrouped 1x1 conv,
    where it only relabels that conv's output rows."""
    n, c, h, w = x.shape
    return x.reshape(n, 2, c // 2, h, w).transpose(0, 2, 1, 3, 4).reshape(n, c, h, w)
