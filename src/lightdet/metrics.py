"""Detection quality metrics: greedy matching, PR curves and AP.

An image's detections are rows of (cx, cy, w, h, confidence, class) and its
ground truth rows of (class, cx, cy, w, h), boxes in pixels. Matching is
class-aware and greedy in confidence order (ties broken by detection index):
each detection takes the unmatched ground truth of its class with the highest
IoU at or above the threshold, ties broken by ground-truth index. AP integrates
the all-points precision envelope over recall. Classes that have no ground
truth anywhere get no AP and stay out of the mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import corners_np, iou_matrix

MATCH_IOU = 0.5  # a detection matches a ground truth at this IoU or above (mAP@0.5)


@dataclass
class MetricReport:
    map50: float
    ap_per_class: dict[int, float]  # the classes with ground truth
    precision: float
    recall: float
    per_class_counts: dict[int, int]  # ground-truth boxes of every class


def match_image(det_xyxy: np.ndarray, det_cls: np.ndarray,
                gt_xyxy: np.ndarray, gt_cls: np.ndarray) -> np.ndarray:
    """True/False per detection, from corner-form boxes and class ids.

    Detections must already be sorted by descending confidence; this matcher
    only applies the greedy rule.
    """
    flags = np.zeros(len(det_xyxy), dtype=bool)  # a detection with no candidate stays False
    if not len(det_xyxy) or not len(gt_xyxy):
        return flags
    ious = iou_matrix(det_xyxy, gt_xyxy)
    # the IoU of each same-class gt at or above the threshold, -1 elsewhere;
    # IoU 0 never matches, even at threshold 0
    same = det_cls[:, None] == gt_cls
    cand = np.where(same & (ious >= MATCH_IOU) & (ious > 0), ious, -1.0)
    for i in np.flatnonzero(cand.max(axis=1) > 0):
        j = int(np.argmax(cand[i]))  # the earliest gt on equal IoU
        if cand[i, j] > 0:
            flags[i] = True
            cand[:, j] = -1.0  # taken
    return flags


def ap_from_points(recall: np.ndarray, precision: np.ndarray) -> float:
    """All-points interpolation: integrate the right-max precision envelope."""
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    idx = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def _pr_curve(tp: np.ndarray, n_gt: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall and precision after each detection of a ranked hit/miss array."""
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    return cum_tp / n_gt, cum_tp / (cum_tp + cum_fp)


def evaluate(dets_per_image: list, gts_per_image: list, num_classes: int) -> MetricReport:
    """Scores per-image detection rows against per-image ground-truth rows; the
    two lists must have one entry per image each."""
    if not any(len(gts) for gts in gts_per_image):
        raise ValueError("evaluation needs at least one ground-truth box")
    ranked, hits, gt_cls = [], [], []
    for dets, gts in zip(dets_per_image, gts_per_image, strict=True):
        d = np.asarray(dets, np.float64).reshape(-1, 6)
        g = np.asarray(gts, np.float64).reshape(-1, 5)
        d = d[np.lexsort((np.arange(len(d)), -d[:, 4]))]
        ranked.append(d)
        hits.append(match_image(corners_np(d[:, :4]), d[:, 5], corners_np(g[:, 1:]), g[:, 0]))
        gt_cls.append(g[:, 0])
    n_gt = np.bincount(np.concatenate(gt_cls).astype(np.int64), minlength=num_classes)
    counts = {cls: int(n_gt[cls]) for cls in range(num_classes)}
    ranked = np.concatenate(ranked)

    # one order serves both curves: confidence descending, then class, then
    # image-major position; a class mask of it is that class's AP order
    conf, cls_arr = ranked[:, 4], ranked[:, 5]
    order = np.lexsort((np.arange(conf.size), cls_arr, -conf))
    cls_arr, tp = cls_arr[order], np.concatenate(hits).astype(np.float64)[order]
    aps = {cls: ap_from_points(*_pr_curve(tp[cls_arr == cls], n))
           for cls, n in counts.items() if n}
    map50 = float(np.mean(list(aps.values()))) if aps else 0.0

    # headline precision/recall: the confidence cut that maximizes F1 on the
    # pooled curve across the classes with ground truth
    scored = np.isin(cls_arr, list(aps))
    if not scored.any():
        return MetricReport(map50, aps, 0.0, 0.0, counts)
    recall, precision = _pr_curve(tp[scored], sum(counts.values()))
    f1 = 2 * precision * recall / np.maximum(precision + recall, 1e-12)
    best = int(np.argmax(f1))
    return MetricReport(map50, aps, float(precision[best]), float(recall[best]), counts)
