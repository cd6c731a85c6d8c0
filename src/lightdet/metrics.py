"""Detection quality metrics: greedy matching, PR curves and AP.

Matching is class-aware and greedy in confidence order (ties broken by detection
index): each detection takes the unmatched ground truth of its class with the
highest IoU at or above the threshold, ties broken by ground-truth index. AP
integrates the all-points precision envelope over recall. Classes that have no
ground truth anywhere are reported as skipped, not averaged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    ap_per_class: dict[int, float]
    skipped_classes: list[int]
    precision: float
    recall: float
    per_class_counts: dict[int, int] = field(default_factory=dict)


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


def sort_detections(dets: list[Detection]) -> list[Detection]:
    return [d for _, d in sorted(enumerate(dets), key=lambda t: (-t[1].confidence, t[0]))]


def ap_from_points(recall: np.ndarray, precision: np.ndarray) -> float:
    """All-points interpolation: integrate the right-max precision envelope."""
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    idx = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def ap_for_class(dets_per_image: list[list[Detection]],
                 gts_per_image: list[list[tuple[int, Box]]],
                 class_id: int):
    """(ap, confidences, tp_flags, n_gt); ap is None when the class has no GT."""
    n_gt = sum(1 for gts in gts_per_image for cls, _ in gts if cls == class_id)
    confs: list[float] = []
    flags: list[bool] = []
    for dets, gts in zip(dets_per_image, gts_per_image):
        cls_dets = sort_detections([d for d in dets if d.class_id == class_id])
        cls_gts = [g for g in gts if g[0] == class_id]
        for det, flag in zip(cls_dets, match_image(cls_dets, cls_gts)):
            confs.append(det.confidence)
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


def evaluate(dets_per_image: list[list[Detection]],
             gts_per_image: list[list[tuple[int, Box]]],
             num_classes: int) -> MetricReport:
    if not any(gts for gts in gts_per_image):
        raise ValueError("evaluation needs at least one ground-truth box")
    aps: dict[int, float] = {}
    skipped: list[int] = []
    counts: dict[int, int] = {}
    pooled_conf: list[np.ndarray] = []
    pooled_tp: list[np.ndarray] = []
    total_gt = 0
    for cls in range(num_classes):
        ap, confs, tps, n_gt = ap_for_class(dets_per_image, gts_per_image, cls)
        counts[cls] = n_gt
        if ap is None:
            skipped.append(cls)
            continue
        aps[cls] = ap
        pooled_conf.append(confs)
        pooled_tp.append(tps)
        total_gt += n_gt

    map50 = float(np.mean(list(aps.values()))) if aps else 0.0

    # headline precision/recall: the confidence cut that maximizes F1 on the
    # pooled curve across the evaluated classes
    conf = np.concatenate(pooled_conf) if pooled_conf else np.array([])
    tp = np.concatenate(pooled_tp) if pooled_tp else np.array([], dtype=bool)
    if conf.size == 0:
        return MetricReport(map50, aps, skipped, 0.0, 0.0, counts)
    order = np.argsort(-conf, kind="stable")
    tp_sorted = tp[order].astype(np.float64)
    cum_tp = np.cumsum(tp_sorted)
    cum_fp = np.cumsum(1.0 - tp_sorted)
    precision = cum_tp / (cum_tp + cum_fp)
    recall = cum_tp / total_gt
    f1 = 2 * precision * recall / np.maximum(precision + recall, 1e-12)
    best = int(np.argmax(f1))
    return MetricReport(map50, aps, skipped, float(precision[best]),
                        float(recall[best]), counts)

