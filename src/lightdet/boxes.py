"""Axis-aligned boxes and the IoU regression-loss family.

Boxes travel in center form (cx, cy, w, h). Losses operate on Tensors with a
trailing axis of 4 so they batch over any leading shape, and every branch is
differentiable; subgradients at ties follow numpy's maximum/minimum convention.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor

EPS = 1e-9


def _split(b: Tensor):
    return b[..., 0], b[..., 1], b[..., 2], b[..., 3]


def _corners_t(b: Tensor):
    cx, cy, w, h = _split(b)
    hw, hh = w * 0.5, h * 0.5
    return cx - hw, cy - hh, cx + hw, cy + hh


def box_loss(kind: str, pred: Tensor, gt: Tensor) -> Tensor:
    """1 - score for the requested IoU family member; batches over leading dims."""
    ax1, ay1, ax2, ay2 = _corners_t(pred)
    bx1, by1, bx2, by2 = _corners_t(gt)
    pw, ph = ax2 - ax1, ay2 - ay1
    gw, gh = bx2 - bx1, by2 - by1

    iw = (ax2.minimum(bx2) - ax1.maximum(bx1)).clamp(0.0)
    ih = (ay2.minimum(by2) - ay1.maximum(by1)).clamp(0.0)
    inter = iw * ih
    union = pw * ph + gw * gh - inter
    iou = inter / (union + EPS)

    if kind == "iou":
        return 1.0 - iou

    # enclosing box of the pair
    ew = ax2.maximum(bx2) - ax1.minimum(bx1)
    eh = ay2.maximum(by2) - ay1.minimum(by1)

    if kind == "giou":
        enclose = ew * eh + EPS
        return 1.0 - (iou - (enclose - union) / enclose)

    pcx, pcy = (ax1 + ax2) * 0.5, (ay1 + ay2) * 0.5
    gcx, gcy = (bx1 + bx2) * 0.5, (by1 + by2) * 0.5
    dx, dy = gcx - pcx, gcy - pcy
    center_sq = dx * dx + dy * dy

    if kind == "ciou":
        diag_sq = ew * ew + eh * eh + EPS
        v = (4.0 / np.pi ** 2) * ((gw / (gh + EPS)).arctan() - (pw / (ph + EPS)).arctan()) ** 2
        alpha = v / ((1.0 - iou) + v + EPS)
        return 1.0 - (iou - center_sq / diag_sq - alpha * v)

    if kind == "siou":
        sigma = (center_sq + EPS).sqrt()
        ch = dy.abs()
        x = (ch / sigma).clamp(0.0, 1.0 - 1e-7)
        angle = 1.0 - 2.0 * (x.arcsin() - np.pi / 4).sin() ** 2
        gamma = 2.0 - angle
        rho_x = dx / (ew + EPS)
        rho_y = dy / (eh + EPS)
        rho_x, rho_y = rho_x * rho_x, rho_y * rho_y  # squared, as SIoU defines it
        dist = (1.0 - (-gamma * rho_x).exp()) + (1.0 - (-gamma * rho_y).exp())
        ww = (pw - gw).abs() / pw.maximum(gw)
        wh = (ph - gh).abs() / ph.maximum(gh)
        shape = (1.0 - (-ww).exp()) ** 4 + (1.0 - (-wh).exp()) ** 4
        return 1.0 - iou + (dist + shape) * 0.5

    raise ValueError(f"unknown box loss kind {kind!r}")


LOSS_KINDS = ("iou", "giou", "ciou", "siou")


# ---- numpy fast paths for matching / nms ----


def corners_np(boxes: np.ndarray) -> np.ndarray:
    """(..., 4) center form -> corner form, pure numpy."""
    out = np.empty_like(boxes)
    out[..., 0] = boxes[..., 0] - boxes[..., 2] / 2
    out[..., 1] = boxes[..., 1] - boxes[..., 3] / 2
    out[..., 2] = boxes[..., 0] + boxes[..., 2] / 2
    out[..., 3] = boxes[..., 1] + boxes[..., 3] / 2
    return out


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of corner-form boxes, (N,4) x (M,4) -> (N,M).

    Worked in place in three (N, M) buffers: width, height, then the union that
    the quotient overwrites. Each element takes the float64 steps of the plain
    inter / (area_a + area_b - inter + EPS) in order, so the bits are the same.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2])
    iw -= np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3])
    ih -= np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(iw, 0, out=iw)
    inter *= np.maximum(ih, 0, out=ih)
    area_a = np.maximum(a[:, 2] - a[:, 0], 0) * np.maximum(a[:, 3] - a[:, 1], 0)
    area_b = np.maximum(b[:, 2] - b[:, 0], 0) * np.maximum(b[:, 3] - b[:, 1], 0)
    union = area_a[:, None] + area_b[None, :]
    union -= inter
    union += EPS
    return np.divide(inter, union, out=union)
