"""Detector assembly: graphs, anchored head, loss, NMS, checkpoints, cost tables.

Both variants share the same trunk and a 3-level anchored head at strides
8/16/32. The baseline keeps the classic cross-stage PAN neck; the light variant
swaps the deepest backbone stage for a channel-reduced window-attention block
and replaces the neck with the separable bidirectional fusion gated by GAM.
"""
from __future__ import annotations

import json
import math
import struct
from collections import namedtuple

import numpy as np

from .bifpn import LightBiFpn
from .boxes import box_loss, corners_np, iou_matrix
from .errors import CheckpointError
from .gam import GAM
from .nn import C3, Concat, ConvBnAct, Conv2d, Module, SPPF, Upsample2x, make_divisible
from .sepvit import SepViTBlock
from .tensor import Tensor, concat, count_flops, no_grad

ANCHORS_BASE = np.array([
    [[10, 13], [16, 30], [33, 23]],
    [[30, 61], [62, 45], [59, 119]],
    [[116, 90], [156, 198], [373, 326]],
], dtype=np.float32)  # defined at a 640px reference input
STRIDES = (8, 16, 32)


class Detect(Module):
    """Per-level 1x1 convs producing 3 anchored predictions of (box, obj, classes)."""

    def __init__(self, nc: int, ch: tuple[int, int, int], img_size: int,
                 rng: np.random.Generator):
        super().__init__()
        if nc < 1:
            raise ValueError("need at least one class")
        self.nc = nc
        self.no = nc + 5
        self.m = [Conv2d(c, 3 * self.no, 1, bias=True, rng=rng) for c in ch]
        # derived from img_size alone, so a checkpoint never carries them
        self.anchors = ANCHORS_BASE * (img_size / 640.0)
        self._init_biases(img_size)

    def _init_biases(self, img_size: int) -> None:
        # objectness starts rare, classes near uniform-low: the usual priors
        for conv, s in zip(self.m, STRIDES):
            b = conv.bias.data.reshape(3, self.no)
            b[:, 4] += math.log(8.0 / (img_size / s) ** 2)
            b[:, 5:] += math.log(0.6 / (self.nc - 0.99999))

    def forward(self, feats: list[Tensor]) -> list[Tensor]:
        if len(feats) != 3:
            raise ValueError("head expects 3 pyramid levels")
        return [conv(f) for conv, f in zip(self.m, feats)]


# The traced perfbench runs read `model._rows[i].name` and `.layer`; ROADMAP
# item 5 moves those hooks onto named_children() and deletes Row and _rows.
Row = namedtuple("Row", "name layer")

DEPTH = 0.33  # bottleneck-count multiplier, the one both graphs are built at


def _depth(n: int) -> int:
    return max(round(n * DEPTH), 1)


class DetectorModel(Module):
    """The shared trunk (stem ... down4), what a subclass's `_build_top` adds, then
    the head; each subclass wires its graph in its own `forward`."""

    def __init__(self, nc: int, width: float, act: str, img_size: int, rng: np.random.Generator):
        super().__init__()
        # what a checkpoint records of the model it came from
        self.config = {"kind": self.kind, "nc": nc, "width": width, "act": act}
        c0, c1, c2, c3, c4 = (make_divisible(c * width) for c in (64, 128, 256, 512, 1024))
        self.stem = ConvBnAct(3, c0, 6, 2, p=2, act=act, rng=rng)
        self.down1 = ConvBnAct(c0, c1, 3, 2, act=act, rng=rng)
        self.stage1 = C3(c1, c1, _depth(3), act=act, rng=rng)
        self.down2 = ConvBnAct(c1, c2, 3, 2, act=act, rng=rng)
        self.stage2 = C3(c2, c2, _depth(6), act=act, rng=rng)
        self.down3 = ConvBnAct(c2, c3, 3, 2, act=act, rng=rng)
        self.stage3 = C3(c3, c3, _depth(9), act=act, rng=rng)
        self.down4 = ConvBnAct(c3, c4, 3, 2, act=act, rng=rng)
        self._build_top(c1, c2, c3, c4, act, rng)
        self.detect = Detect(nc, (c2, c3, c4), img_size, rng=rng)

    @property
    def _rows(self) -> list[Row]:
        return [Row(name, m) for name, m in self.named_children()]

    def _trunk(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """P3, P4 and the down4 output."""
        p3 = self.stage2(self.down2(self.stage1(self.down1(self.stem(x)))))
        p4 = self.stage3(self.down3(p3))
        return p3, p4, self.down4(p4)

    def cost_rows(self, img_size: int):
        """(name, params, flops) per child for one batch-1 forward at img_size.

        The neck and the head are listed by their children. FLOPs are those the
        ops count (`tensor.count_flops`) on a zero image, run in eval mode
        without gradients; every module's training flag is put back afterwards.
        """
        modes = [(m, m.training) for m in self.modules()]
        self.eval()
        try:
            with no_grad(), count_flops() as count:
                self(Tensor(np.zeros((1, 3, img_size, img_size), np.float32)))
        finally:
            for m, mode in modes:
                m.training = mode
        rows = []
        for name, child in self.named_children():
            if isinstance(child, (LightBiFpn, Detect)):
                parts = [(f"{name}.{n}", m) for n, m in child.named_children()]
            else:
                parts = [(name, child)]
            rows += [(n, m.param_count(), count.get(m, 0)) for n, m in parts]
        return rows


class Baseline(DetectorModel):
    """CSP stage and SPPF at stride 32, then the cross-stage PAN neck."""

    kind = "baseline"

    def _build_top(self, c1, c2, c3, c4, act, rng):
        self.stage4 = C3(c4, c4, _depth(3), act=act, rng=rng)
        self.sppf = SPPF(c4, act=act, rng=rng)
        self.lat5 = ConvBnAct(c4, c3, 1, act=act, rng=rng)
        self.up1 = Upsample2x()
        self.cat_td4 = Concat()
        self.td4 = C3(c3 * 2, c3, _depth(3), shortcut=False, act=act, rng=rng)
        self.lat4 = ConvBnAct(c3, c2, 1, act=act, rng=rng)
        self.up2 = Upsample2x()
        self.cat_out3 = Concat()
        self.out3 = C3(c2 * 2, c2, _depth(3), shortcut=False, act=act, rng=rng)
        self.pan_down3 = ConvBnAct(c2, c2, 3, 2, act=act, rng=rng)
        self.cat_out4 = Concat()
        self.out4 = C3(c2 * 2, c3, _depth(3), shortcut=False, act=act, rng=rng)
        self.pan_down4 = ConvBnAct(c3, c3, 3, 2, act=act, rng=rng)
        self.cat_out5 = Concat()
        self.out5 = C3(c3 * 2, c4, _depth(3), shortcut=False, act=act, rng=rng)

    def forward(self, x: Tensor) -> list[Tensor]:
        p3, p4, x = self._trunk(x)
        lat5 = self.lat5(self.sppf(self.stage4(x)))
        lat4 = self.lat4(self.td4(self.cat_td4([self.up1(lat5), p4])))
        out3 = self.out3(self.cat_out3([self.up2(lat4), p3]))
        out4 = self.out4(self.cat_out4([self.pan_down3(out3), lat4]))
        out5 = self.out5(self.cat_out5([self.pan_down4(out4), lat5]))
        return self.detect([out3, out4, out5])


class Light(DetectorModel):
    """Window attention and SPPF at stride 32, then the GAM-gated separable neck."""

    kind = "light"

    def _build_top(self, c1, c2, c3, c4, act, rng):
        # deepest stage: channel-reduced global attention instead of a conv block
        self.attn_reduce = ConvBnAct(c4, c3, 1, act=act, rng=rng)
        self.attn = SepViTBlock(c3, rng=rng)
        self.attn_expand = ConvBnAct(c3, c4, 1, act=act, rng=rng)
        self.sppf = SPPF(c4, act=act, rng=rng)
        self.neck = LightBiFpn(c3=c2, c4=c3, c5=c4, mid=c1, act=act,
                               attn_td=GAM(c1 // 2, rng=rng),
                               attn_out4=GAM(c3 // 2, rng=rng), rng=rng)

    def forward(self, x: Tensor) -> list[Tensor]:
        p3, p4, x = self._trunk(x)
        p5 = self.sppf(self.attn_expand(self.attn(self.attn_reduce(x))))
        return self.detect(self.neck(p3, p4, p5))


def build_model(kind: str, **kw) -> DetectorModel:
    graphs = {"baseline": Baseline, "light": Light}
    if kind not in graphs:
        raise ValueError(f"unknown model kind {kind!r}")
    return graphs[kind](**kw)


# ---- target assignment and loss ----

ANCHOR_RATIO_THR = 4.0  # largest w or h ratio, either way, between a box and its anchor


def assign_targets(targets: list[np.ndarray], anchors: list[np.ndarray],
                   grids: list[tuple[int, int]]):
    """Anchor/cell assignment per level.

    targets: per image, (n, 5) rows of (class, cx, cy, w, h) normalized to [0,1].
    anchors: per level, the (3, 2) anchor sizes in grid units.
    A box lands in its center cell plus the two nearest neighbor cells, on every
    anchor whose w/h ratio to the box is within ANCHOR_RATIO_THR in both
    directions. Boxes with a zero (or negative) width or height are skipped.
    Returns per level: (b, a, gj, gi, tbox, cls) with tbox in grid units and its
    xy relative to the assigned cell origin.

    Rows come out ordered by image, label row, anchor, then cell (center,
    x-neighbor, y-neighbor). The loss adds in that order: the box and class
    sums, and the gradient scatter into `pr[b, a, gj, gi]`, where duplicates
    accumulate, so another order would change training traces in the last bits.
    """
    rows = [np.asarray(t, dtype=np.float64).reshape(-1, 5) for t in targets]
    img = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    rows = np.concatenate(rows)
    sized = (rows[:, 3] > 0) & (rows[:, 4] > 0)
    rows, img = rows[sized], img[sized]
    out = []
    for (gh, gw), lvl_anchors in zip(grids, anchors):
        size = np.array([gw, gh])
        gxy, twh = rows[:, 1:3] * size, rows[:, 3:5] * size
        ratio = twh[:, None, :] / lvl_anchors  # (T, anchor, w/h)
        fits = np.maximum(ratio, 1.0 / ratio).max(axis=2) < ANCHOR_RATIO_THR
        center = np.minimum(gxy.astype(np.int64), size - 1)
        step = np.where(gxy - center < 0.5, -1, 1)
        cells = np.repeat(center[:, None, :], 3, axis=1)  # (T, cell, xy)
        cells[:, 1, 0] += step[:, 0]
        cells[:, 2, 1] += step[:, 1]
        inside = ((cells >= 0) & (cells < size)).all(axis=2)
        t, a, c = np.nonzero(fits[:, :, None] & inside[:, None, :])
        cell = cells[t, c]
        out.append((img[t], a, cell[:, 1], cell[:, 0],
                    np.concatenate([gxy[t] - cell, twh[t]], axis=1),
                    rows[t, 0].astype(np.int64)))
    return out


OBJ_BALANCE = (4.0, 1.0, 0.4)
LOSS_GAINS = {"box": 0.05, "obj": 1.0, "cls": 0.5}


def _pair_iou_np(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Row-wise IoU of center-form box arrays; plain numpy, no gradient."""
    pa = corners_np(pred.astype(np.float64))
    ga = corners_np(gt.astype(np.float64))
    lt = np.maximum(pa[:, :2], ga[:, :2])
    rb = np.minimum(pa[:, 2:], ga[:, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[:, 0] * wh[:, 1]
    union = pred[:, 2] * pred[:, 3] + gt[:, 2] * gt[:, 3] - inter
    return inter / np.maximum(union, 1e-9)


def training_loss(preds: list[Tensor], targets: list[np.ndarray], detect: Detect,
                  box_kind: str):
    """Scalar loss Tensor plus float components.

    Objectness is logit-space BCE against a dense target field: zero at
    unassigned (anchor, cell) slots and, at assigned slots, the overlap of
    the currently predicted box with its target, held constant w.r.t. the
    parameters. Grading assigned slots by achieved overlap lets the
    confidence head rank good boxes above poor ones at inference; the value
    is detached so the optimizer cannot shrink boxes to make the term
    cheaper. A slot assigned more than once keeps the largest target. Class
    probabilities use logit-space BCE per match, box the requested overlap
    loss. The parts are weighted by LOSS_GAINS.
    """
    nc, no = detect.nc, detect.no
    grids = [(p.shape[2], p.shape[3]) for p in preds]
    # grid-unit anchors: the one copy that both the assignment and the box scale read
    anchors = [a.astype(np.float64) / s for a, s in zip(detect.anchors, STRIDES)]
    assigned = assign_targets(targets, anchors, grids)
    zero = Tensor(np.zeros((), preds[0].dtype))
    lbox, lobj, lcls = zero, zero, zero
    n_matched = 0
    for lvl, (p, (b, a, gj, gi, tbox, tcls)) in enumerate(zip(preds, assigned)):
        n, _, gh, gw = p.shape
        pr = p.reshape(n, 3, no, gh, gw).transpose(0, 1, 3, 4, 2)  # N,3,H,W,no
        pobj = pr[..., 4]
        obj_sum = pobj.softplus().sum()
        if b.size:
            n_matched += b.size
            pm = pr[b, a, gj, gi]  # (M, no); duplicates accumulate in backward
            pxy = pm[:, 0:2].sigmoid() * 2.0 - 0.5
            pwh = (pm[:, 2:4].sigmoid() * 2.0) ** 2 * Tensor(anchors[lvl][a])
            pbox = concat([pxy, pwh], axis=1)
            tb = Tensor(tbox)
            lbox = lbox + box_loss(box_kind, pbox, tb).mean()
            # deduplicate assigned slots before charging the obj term: BCE
            # against a dense field gives each slot one term no matter how
            # many boxes landed on it. Charging per match instead would
            # allow softplus(x) - 2x, which is unbounded below and gets
            # exploited immediately.
            lin = ((b * 3 + a) * gh + gj) * gw + gi
            uniq, inv = np.unique(lin, return_inverse=True)
            tvals = np.zeros(uniq.size)
            np.maximum.at(tvals, inv, np.clip(_pair_iou_np(pbox.numpy(), tbox), 0.0, 1.0))
            obj_sum = obj_sum - (pobj.reshape(-1)[uniq] * Tensor(tvals)).sum()
            onehot = np.zeros((b.size, nc), np.float64)
            onehot[np.arange(b.size), tcls] = 1.0
            pcls = pm[:, 5:]  # logit-space BCE: softplus(x) - x*t, summed
            lcls = lcls + (pcls.softplus() - pcls * Tensor(onehot)).sum() * (1.0 / (b.size * nc))
        lobj = lobj + obj_sum * (OBJ_BALANCE[lvl] / pobj.size)
    total = (lbox * LOSS_GAINS["box"] + lobj * LOSS_GAINS["obj"]
             + lcls * LOSS_GAINS["cls"])
    parts = {
        "box": float(lbox.numpy()) * LOSS_GAINS["box"],
        "obj": float(lobj.numpy()) * LOSS_GAINS["obj"],
        "cls": float(lcls.numpy()) * LOSS_GAINS["cls"],
        "total": float(total.numpy()),
        "matched": n_matched,
    }
    return total, parts


# ---- inference ----


def decode_predictions(preds_np: list[np.ndarray], anchors_px: np.ndarray) -> np.ndarray:
    """Raw level maps -> (N, total_anchors, 5+nc) rows of (cx, cy, w, h, obj, cls...).

    Each map holds 3 anchors' rows along its channels, at the level's stride
    in STRIDES. Box coordinates come out in input pixels, objectness and
    class scores as independent sigmoids.
    """
    out = []
    for p, stride, anchors in zip(preds_np, STRIDES, anchors_px):
        n, c, gh, gw = p.shape
        no = c // 3
        pr = p.reshape(n, 3, no, gh, gw).transpose(0, 1, 3, 4, 2)
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-pr.astype(np.float64)))
        gy, gx = np.meshgrid(np.arange(gh), np.arange(gw), indexing="ij")
        xy = (sig[..., 0:2] * 2.0 - 0.5 + np.stack([gx, gy], axis=-1)) * stride
        wh = (sig[..., 2:4] * 2.0) ** 2 * anchors[:, None, None, :]
        out.append(np.concatenate([xy, wh, sig[..., 4:]], axis=-1).reshape(n, -1, no))
    return np.concatenate(out, axis=1)


NMS_IOU = 0.45  # a box overlapping a higher-scored kept box above this IoU is dropped
# NMS settles at most this many sorted candidates per step: enough to spread the
# fixed cost of each step's numpy calls, few enough that the per-class IoU
# matrices stay small (NMS over one eval_toy pass: 14.6 / 12.3 / 14.0 ms at
# 64 / 128 / 256)
_NMS_BLOCK = 128


def nms_indices(boxes_xyxy: np.ndarray, scores: np.ndarray, classes: np.ndarray,
                max_det: int) -> np.ndarray:
    """Greedy suppression within each class to at most `max_det` boxes; ties in
    score keep the lower index first.

    A candidate is kept when its IoU with every higher-ranked kept box of its
    class is at most NMS_IOU. The sorted candidates go in blocks, each split by
    class. Per class, one IoU matrix against the class's kept boxes and its own
    candidates drops those already suppressed, and a greedy pass over the rows
    that clash with a later candidate settles the rest. A box only suppresses
    later ones, so the block's first survivors in score order are kept. The
    next block is sized to what is still needed at the last block's keep rate.
    IoU is symmetric to the bit, so the kept set is the one a box-at-a-time
    loop finds.
    """
    order = np.lexsort((np.arange(len(scores)), -scores))
    keep = np.empty(0, dtype=np.int64)
    seen, size = 0, _NMS_BLOCK
    while seen < order.size and keep.size < max_det:
        cand = order[seen:seen + size]
        seen += cand.size
        cand_cls = classes[cand]
        alive = np.zeros(cand.size, dtype=bool)
        for c in np.unique(cand_cls):
            pos = np.flatnonzero(cand_cls == c)
            box = boxes_xyxy[cand[pos]]
            prev = boxes_xyxy[keep[classes[keep] == c]]
            # kept only where `<=` holds, so a NaN IoU suppresses
            clear = iou_matrix(box, np.concatenate([prev, box])) <= NMS_IOU
            live = clear[:, :len(prev)].all(axis=1)
            clear = clear[:, len(prev):]
            clear |= np.tri(pos.size, dtype=bool)  # no box suppresses itself or earlier ones
            for r in np.flatnonzero(live & ~clear.all(axis=1)):
                if live[r]:
                    live &= clear[r]
            alive[pos] = live
        got = cand[alive]
        keep = np.concatenate([keep, got[:max_det - keep.size]])
        size = (min(_NMS_BLOCK, -(-(max_det - keep.size) * cand.size // got.size))
                if got.size else _NMS_BLOCK)
    return keep


def detect_images(model: DetectorModel, images: np.ndarray, conf_thr: float = 0.25,
                  max_det: int = 300) -> list[list[list[float]]]:
    """Full inference: forward, decode, class-wise NMS; boxes in input pixels,
    clipped to the input's extent.

    Per image, one row of (cx, cy, w, h, confidence, class) per kept box, in
    kept order, as Python floats: the center form of the box's clipped float64
    corners. Plain lists, so two results compare with `==` to a bool.
    """
    model.eval()
    with no_grad():
        raw = model(Tensor(images.astype(np.float32)))
    dec = decode_predictions([p.numpy() for p in raw], model.detect.anchors)
    h, w = images.shape[2:]
    results: list[list[list[float]]] = []
    for row in dec:
        cls_scores = row[:, 5:] * row[:, 4:5]
        cls_ids = cls_scores.argmax(axis=1)
        confs = cls_scores[np.arange(len(row)), cls_ids]
        m = confs >= conf_thr
        boxes = np.clip(corners_np(row[m, :4]), 0.0, np.array([w, h, w, h], np.float64))
        confs_m, cls_m = confs[m], cls_ids[m]
        keep = nms_indices(boxes, confs_m, cls_m, max_det=max_det)
        lo, hi = boxes[keep, :2], boxes[keep, 2:]
        results.append(np.column_stack([(lo + hi) / 2, hi - lo, confs_m[keep], cls_m[keep]])
                       .tolist())
    return results


# ---- checkpoints ----

MAGIC = b"LYV5"
CKPT_VERSION = 3


def save_checkpoint(path: str, model: DetectorModel) -> None:
    """Magic, version, the model's config as length-prefixed JSON, then named tensors."""
    items = list(model.named_state())
    config = json.dumps(model.config).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", CKPT_VERSION, len(config)))
        fh.write(config)
        fh.write(struct.pack("<I", len(items)))
        for name, t in items:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(t.numpy(), dtype="<f4")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BB", 0, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf


def load_checkpoint(path: str, model: DetectorModel) -> None:
    """Restores tensors by name; any mismatch against the model is an error.

    Checked in order: the format, the tensor names, their shapes, and last the
    config, which catches what shapes cannot tell apart (the activation).
    """
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError("not a checkpoint: bad magic")
        version, clen = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != CKPT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        try:
            config = json.loads(_read_exact(fh, clen, "config"))
        except ValueError:
            raise CheckpointError("config header is not JSON") from None
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        loaded: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, nlen, "name").decode("utf-8")
            dtype_code, rank = struct.unpack("<BB", _read_exact(fh, 2, "tensor header"))
            if dtype_code != 0:
                raise CheckpointError(f"{name}: unsupported dtype code {dtype_code}")
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "shape"))
            n_items = int(np.prod(shape)) if rank else 1
            payload = _read_exact(fh, 4 * n_items, f"data of {name}")
            loaded[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError("trailing bytes after the last tensor")

    state = dict(model.named_state())
    missing = sorted(set(state) - set(loaded))
    unknown = sorted(set(loaded) - set(state))
    if missing:
        raise CheckpointError(f"checkpoint lacks tensors: {', '.join(missing[:4])}")
    if unknown:
        raise CheckpointError(f"checkpoint has unknown tensors: {', '.join(unknown[:4])}")
    for name, t in state.items():
        src = loaded[name]
        if tuple(src.shape) != tuple(t.shape):
            raise CheckpointError(
                f"{name}: shape {tuple(src.shape)} in checkpoint, model needs "
                f"{tuple(t.shape)} (class count or width mismatch?)")
    if config != model.config:
        raise CheckpointError(f"checkpoint is for the model {config}, not {model.config}")
    for name, t in state.items():
        t.data = loaded[name].astype(np.float32)
