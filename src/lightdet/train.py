"""SGD training loop with warmup, plus the evaluation glue for trained models."""
from __future__ import annotations

import math

import numpy as np

from .data import hflip
from .metrics import MetricReport, evaluate
from .model import DetectorModel, detect_images, training_loss
from .tensor import Tensor


WEIGHT_DECAY = 5e-4  # on multi-axis tensors only
CLIP_NORM = 10.0  # largest global gradient norm an update uses
WARMUP = 20  # steps over which the learning rate ramps up linearly
FINAL_FRAC = 0.1  # where the cosine schedule ends, as a share of the base rate


class SGD:
    """Momentum SGD; weight decay touches only multi-axis tensors (never biases,
    norm affines, or other vectors), and the learning rate ramps linearly over
    the first WARMUP steps. With `total_steps` set, the post-warmup rate
    follows a half-cosine down to FINAL_FRAC of the base rate. Gradients are
    rescaled to a global norm of at most CLIP_NORM before the update; small
    batches drive the norm orders of magnitude past the useful step scale. A
    non-finite norm raises FloatingPointError before any update."""

    def __init__(self, params, lr: float, momentum: float, total_steps: int | None):
        self.params = [p for p in params if p.requires_grad]
        self.vel = [np.zeros_like(p.data) for p in self.params]
        self.lr = lr
        self.momentum = momentum
        self.total_steps = total_steps
        self.t = 0

    def lr_at(self, t: int) -> float:
        if t < WARMUP:
            return self.lr * (t + 1) / WARMUP
        if not self.total_steps or self.total_steps <= WARMUP:
            return self.lr
        span = self.total_steps - WARMUP
        prog = min(max((t - WARMUP) / span, 0.0), 1.0)
        lo = self.lr * FINAL_FRAC
        return lo + (self.lr - lo) * 0.5 * (1.0 + math.cos(math.pi * prog))

    def grad_norm(self) -> float:
        sq = sum(float((p.grad.astype(np.float64) ** 2).sum())
                 for p in self.params if p.grad is not None)
        return math.sqrt(sq)

    def step(self) -> None:
        total = self.grad_norm()
        if not math.isfinite(total):
            raise FloatingPointError(f"step {self.t}: gradient norm is {total}")
        scale = CLIP_NORM / total if total > CLIP_NORM else 1.0
        lr = self.lr_at(self.t)
        self.t += 1
        for p, v in zip(self.params, self.vel):
            if p.grad is None:
                continue
            g = p.grad * scale if scale != 1.0 else p.grad
            if p.data.ndim > 1:
                g = g + WEIGHT_DECAY * p.data
            v *= self.momentum
            v += g
            p.data = (p.data - lr * v).astype(p.data.dtype, copy=False)


def epoch_shape(n: int, batch: int) -> tuple[int, int]:
    """(batch clamped to the set size, steps per full pass) for n >= 1 images."""
    b = min(batch, n)
    return b, (n + b - 1) // b


def fit(model: DetectorModel, images: np.ndarray, targets: list[np.ndarray],
        iters: int, batch: int, lr: float, momentum: float, box_kind: str,
        seed: int, cosine: bool, augment: bool = False, on_epoch=None) -> list[dict]:
    """Runs `iters` optimizer steps over the set; returns the per-step loss parts.

    Batches cycle through a seeded shuffle, reshuffled each pass. `on_epoch`
    (if given) fires after every full pass with (epoch_index, mean_parts).
    A non-finite loss or gradient norm raises FloatingPointError naming the
    step (counted from 0), before the optimizer applies that step.
    """
    n = len(images)
    if n == 0:
        raise ValueError("empty training set")
    b, steps_per_epoch = epoch_shape(n, batch)
    opt = SGD(model.parameters(), lr, momentum, iters if cosine else None)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    cursor = 0
    model.train()
    trace: list[dict] = []
    epoch_rows: list[dict] = []
    epoch = 0
    for step in range(iters):
        if cursor + b > n:
            order = rng.permutation(n)
            cursor = 0
        idx = order[cursor:cursor + b]
        cursor += b
        imgs = images[idx]
        tgts = [targets[i] for i in idx]
        if augment:
            flips = rng.random(b) < 0.5
            imgs = imgs.copy()
            tgts = list(tgts)
            for k in np.flatnonzero(flips):
                imgs[k], tgts[k] = hflip(imgs[k], tgts[k])
        preds = model(Tensor(imgs))
        total, parts = training_loss(preds, tgts, model.detect, box_kind)
        if not math.isfinite(parts["total"]):
            raise FloatingPointError(
                f"step {step}: loss is not finite (box {parts['box']:.4g}, "
                f"obj {parts['obj']:.4g}, cls {parts['cls']:.4g})")
        model.zero_grad()
        total.backward()
        opt.step()
        del preds, total  # free this step's graph before the next forward
        trace.append(parts)
        epoch_rows.append(parts)
        if len(trace) % steps_per_epoch == 0:
            if on_epoch is not None:
                mean_parts = {k: float(np.mean([r[k] for r in epoch_rows]))
                              for k in ("box", "obj", "cls", "total")}
                on_epoch(epoch, mean_parts)
                model.train()  # callback may have run an eval pass
            epoch_rows = []
            epoch += 1
    return trace


def targets_to_gt(targets: list[np.ndarray], h: int, w: int) -> list[np.ndarray]:
    """Normalized label rows -> per-image (n, 5) rows of (class, cx, cy, w, h)
    in the pixels of images h high and w wide."""
    return [np.asarray(t, np.float64).reshape(-1, 5) * [1, w, h, w, h] for t in targets]


def evaluate_model(model: DetectorModel, images: np.ndarray,
                   targets: list[np.ndarray]) -> MetricReport:
    """mAP@0.5 and P/R of the model on an in-memory split, at confidence 0.001;
    the labels are scaled to the images' own size."""
    dets = detect_images(model, images, conf_thr=0.001)
    gts = targets_to_gt(targets, *images.shape[-2:])
    return evaluate(dets, gts, model.detect.nc)
