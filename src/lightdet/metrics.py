"""Detection quality metrics: greedy matching, PR curves and AP.

Matching is class-aware and greedy in confidence order (ties broken by detection
index): each detection takes the unmatched ground truth of its class with the
highest IoU at or above the threshold, ties broken by ground-truth index. AP
integrates the all-points precision envelope over recall. Classes that have no
ground truth anywhere get no AP and stay out of the mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import Box, corners_np, iou_matrix

MATCH_IOU = 0.5  # a detection matches a ground truth at this IoU or above (mAP@0.5)


@dataclass(slots=True)
class Detection:
    box: Box
    class_id: int
    confidence: float


@dataclass
class MetricReport:
    map50: float
    ap_per_class: dict[int, float]  # the classes with ground truth
    precision: float
    recall: float
    per_class_counts: dict[int, int]  # ground-truth boxes of every class


def _corners(boxes: list[Box]) -> np.ndarray:
    return corners_np(np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=np.float64))


def match_image(dets: list[Detection], gts: list[tuple[int, Box]]) -> list[bool]:
    """True/False per detection, in the given order after confidence sorting.

    Detections must already be sorted by descending confidence; this matcher
    only applies the greedy rule.
    """
    if not dets or not gts:
        return [False] * len(dets)
    ious = iou_matrix(_corners([d.box for d in dets]), _corners([g[1] for g in gts]))
    # the IoU of each same-class gt at or above the threshold, -1 elsewhere;
    # IoU 0 never matches, even at threshold 0
    same = np.array([d.class_id for d in dets])[:, None] == np.array([g[0] for g in gts])
    cand = np.where(same & (ious >= MATCH_IOU) & (ious > 0), ious, -1.0)
    flags = [False] * len(dets)  # a detection with no candidate stays False
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


def evaluate(dets_per_image: list[list[Detection]],
             gts_per_image: list[list[tuple[int, Box]]],
             num_classes: int) -> MetricReport:
    if not any(gts for gts in gts_per_image):
        raise ValueError("evaluation needs at least one ground-truth box")
    classes: list[int] = []
    confs: list[float] = []
    hits: list[bool] = []
    for dets, gts in zip(dets_per_image, gts_per_image):
        conf = np.array([d.confidence for d in dets], dtype=np.float64)
        ranked = [dets[i] for i in np.lexsort((np.arange(len(dets)), -conf))]
        classes += [d.class_id for d in ranked]
        confs += [d.confidence for d in ranked]
        hits += match_image(ranked, gts)
    n_gt = np.bincount([cls for gts in gts_per_image for cls, _ in gts], minlength=num_classes)
    counts = {cls: int(n_gt[cls]) for cls in range(num_classes)}

    # one order serves both curves: confidence descending, then class, then
    # image-major position; a class mask of it is that class's AP order
    cls_arr = np.array(classes, dtype=np.int64)
    conf = np.array(confs, dtype=np.float64)
    order = np.lexsort((np.arange(conf.size), cls_arr, -conf))
    cls_arr, tp = cls_arr[order], np.array(hits, dtype=np.float64)[order]
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
