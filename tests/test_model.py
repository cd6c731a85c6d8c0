import math
import os

import numpy as np
import pytest

from lightdet.boxes import Box, corners_np, iou_matrix
from lightdet.errors import CheckpointError
from lightdet.metrics import Detection
from lightdet.model import (
    ANCHOR_RATIO_THR,
    ANCHORS_BASE,
    Baseline,
    Detect,
    Light,
    _pair_iou_np,
    assign_targets,
    build_model,
    decode_predictions,
    detect_images,
    load_checkpoint,
    nms_indices,
    save_checkpoint,
    training_loss,
)
from lightdet.nn import ConvBnAct
from lightdet.tensor import Tensor, grad_check, no_grad

from helpers import with_bn_stats

# frozen from the implemented cost model at nc=2, 640px reference input
BASELINE_PARAMS = 1_766_623
BASELINE_FLOPS = 4_132_659_200
LIGHT_PARAMS = 1_287_591
LIGHT_FLOPS = 3_371_501_568


@pytest.fixture(scope="module")
def baseline():
    return Baseline(nc=2, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def light():
    return Light(nc=2, rng=np.random.default_rng(0))


class TestBudgets:
    def test_baseline_params(self, baseline):
        assert baseline.param_count() == BASELINE_PARAMS

    def test_light_params(self, light):
        assert light.param_count() == LIGHT_PARAMS

    def test_cost_rows_match_live_params(self, baseline, light):
        for m in (baseline, light):
            assert sum(r[1] for r in m.cost_rows(640)) == m.param_count()

    def test_cost_rows_leave_a_training_model_untouched(self):
        # a train-mode forward would move the BatchNorm running stats
        for build in (Baseline, Light):
            m = build(nc=2, width=0.125, img_size=64, rng=np.random.default_rng(3))
            before = {k: t.numpy().tobytes() for k, t in m.named_state()}
            m.cost_rows(64)
            assert all(sub.training for sub in m.modules())
            assert {k: t.numpy().tobytes() for k, t in m.named_state()} == before

    def test_flops_at_640(self, baseline, light):
        assert sum(r[2] for r in baseline.cost_rows(640)) == BASELINE_FLOPS
        assert sum(r[2] for r in light.cost_rows(640)) == LIGHT_FLOPS

    def test_reductions(self):
        p = 1 - LIGHT_PARAMS / BASELINE_PARAMS
        f = 1 - LIGHT_FLOPS / BASELINE_FLOPS
        assert abs(p * 100 - 27.1) < 3.0
        assert abs(f * 100 - 19.1) < 3.0

    def test_params_independent_of_input_size(self, light):
        assert sum(r[1] for r in light.cost_rows(320)) == LIGHT_PARAMS

    def test_conv_flops_scale_with_area(self, baseline):
        # conv-only graph: halving each side quarters the FLOPs
        assert sum(r[2] for r in baseline.cost_rows(320)) * 4 == BASELINE_FLOPS

    def test_build_model_dispatch(self):
        assert build_model("light", nc=1, width=0.125, img_size=64).kind == "light"
        with pytest.raises(ValueError):
            build_model("tiny")


class TestForward:
    def test_output_shapes(self):
        m = Light(nc=2, width=0.125, img_size=64, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 64, 64)).astype(np.float32))
        preds = m(x)
        assert [p.shape for p in preds] == [(2, 21, 8, 8), (2, 21, 4, 4), (2, 21, 2, 2)]

    def test_baseline_output_shapes(self):
        m = Baseline(nc=1, width=0.125, img_size=64, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32))
        preds = m(x)
        assert [p.shape for p in preds] == [(1, 18, 8, 8), (1, 18, 4, 4), (1, 18, 2, 2)]

    def test_eval_forward_deterministic(self):
        m = Light(nc=2, width=0.125, img_size=64, rng=np.random.default_rng(1))
        m.eval()
        x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32))
        with no_grad():
            a = [p.numpy().copy() for p in m(x)]
            b = [p.numpy() for p in m(x)]
        for pa, pb in zip(a, b):
            assert np.array_equal(pa, pb)

    def test_obj_bias_prior(self):
        m = Light(nc=2, width=0.125, img_size=64, rng=np.random.default_rng(1))
        b = m.detect.m[0].bias.numpy().reshape(3, 7)
        assert np.allclose(b[:, 4], math.log(8.0 / (64 / 8) ** 2), atol=1e-6)
        assert np.allclose(b[:, 5:], math.log(0.6 / 1.00001), atol=1e-5)


def _tiny_detect(nc=2):
    # anchors only; the conv layers are never run in these tests
    return Detect(nc, (8, 8, 8), img_size=640, rng=np.random.default_rng(0))


class TestAssign:
    def test_neighbor_cells(self):
        det = _tiny_detect()
        t = [np.array([[0, 0.4, 0.65, 0.3, 0.3]])]
        levels = assign_targets(t, det, 32, [(4, 4), (2, 2), (1, 1)])
        b, a, gj, gi, tb, tc = levels[0]
        # gx=1.6 -> center cell 1 plus right neighbor 2; gy=2.6 -> cells 2 and 3
        cells = set(zip(gi.tolist(), gj.tolist()))
        assert cells == {(1, 2), (2, 2), (1, 3)}
        assert np.all((tb[:, 0] > -0.5) & (tb[:, 0] < 1.5))
        assert np.all((tb[:, 1] > -0.5) & (tb[:, 1] < 1.5))

    def test_ratio_filter(self):
        det = _tiny_detect()
        # 12.8 grid units wide at level 0 vs anchors (1.25..4.125): all ratios > 4
        t = [np.array([[0, 0.5, 0.5, 0.9, 0.9]])]
        levels = assign_targets(t, det, 32 * 8, [(32, 32), (16, 16), (8, 8)])
        assert levels[0][0].size == 0
        assert levels[2][0].size > 0  # coarse anchors accept the large box

    def test_edge_clamping(self):
        det = _tiny_detect()
        t = [np.array([[1, 1.0, 1.0, 0.3, 0.3]])]
        levels = assign_targets(t, det, 32, [(4, 4), (2, 2), (1, 1)])
        for b, a, gj, gi, tb, tc in levels:
            assert np.all(gi < 4) and np.all(gj < 4)
            assert np.all(gi >= 0) and np.all(gj >= 0)

    def test_degenerate_box_skipped(self):
        det = _tiny_detect()
        t = [np.array([[0, 0.5, 0.5, 0.0, 0.2]])]
        levels = assign_targets(t, det, 32, [(4, 4), (2, 2), (1, 1)])
        assert all(lv[0].size == 0 for lv in levels)


def _assign_targets_loop(targets, detect, img_size, grids):
    """The per-box loop `assign_targets` replaced, kept verbatim as its oracle."""
    out = []
    for lvl, (gh, gw) in enumerate(grids):
        stride = img_size / gh
        anchors = detect.anchors[lvl] / stride  # grid units
        bs, as_, gjs, gis, tb, tc = [], [], [], [], [], []
        for b, t in enumerate(targets):
            for cls, cx, cy, w, h in np.asarray(t, dtype=np.float64).reshape(-1, 5):
                gx, gy = cx * gw, cy * gh
                tw, th = w * gw, h * gh
                if tw <= 0 or th <= 0:
                    continue
                ratio = np.stack([tw / anchors[:, 0], th / anchors[:, 1]], axis=1)
                keep = np.maximum(ratio, 1.0 / ratio).max(axis=1) < ANCHOR_RATIO_THR
                if not keep.any():
                    continue
                gi0 = min(int(gx), gw - 1)
                gj0 = min(int(gy), gh - 1)
                cells = [(gi0, gj0)]
                dx = -1 if (gx - gi0) < 0.5 else 1
                dy = -1 if (gy - gj0) < 0.5 else 1
                for ci, cj in ((gi0 + dx, gj0), (gi0, gj0 + dy)):
                    if 0 <= ci < gw and 0 <= cj < gh:
                        cells.append((ci, cj))
                for a in np.flatnonzero(keep):
                    for ci, cj in cells:
                        bs.append(b)
                        as_.append(int(a))
                        gjs.append(cj)
                        gis.append(ci)
                        tb.append((gx - ci, gy - cj, tw, th))
                        tc.append(int(cls))
        out.append((
            np.asarray(bs, np.int64), np.asarray(as_, np.int64),
            np.asarray(gjs, np.int64), np.asarray(gis, np.int64),
            np.asarray(tb, np.float64).reshape(-1, 4), np.asarray(tc, np.int64),
        ))
    return out


def _random_batch(rng, grid):
    """Label arrays for 1-4 images: random boxes, some centres snapped to a cell
    edge or middle, some sides zero, some sizes no anchor fits."""
    batch = []
    for _ in range(rng.integers(1, 5)):
        n = rng.integers(0, 7)
        rows = np.column_stack([rng.integers(0, 2, n), rng.random((n, 2)),
                                np.exp(rng.uniform(np.log(1e-3), 0.0, (n, 2)))])
        snap = rng.random((n, 2)) < 0.3
        cells = rng.integers(0, grid + 1, (n, 2)) + rng.choice([0.0, 0.5], (n, 2))
        rows[:, 1:3] = np.where(snap, np.minimum(cells / grid, 1.0), rows[:, 1:3])
        rows[:, 3:5] *= rng.random((n, 2)) >= 0.1
        batch.append(rows)
    return batch


class TestAssignMatchesLoop:
    """`assign_targets` emits the loop's rows: same dtypes, values and order."""

    GRIDS = [(16, 16), (8, 8), (4, 4)]

    def _check(self, targets, det, img, grids):
        want = _assign_targets_loop(targets, det, img, grids)
        got = assign_targets(targets, det, img, grids)
        assert len(got) == len(want)
        for lvl, (g, w) in enumerate(zip(got, want)):
            for name, ga, wa in zip(("b", "a", "gj", "gi", "tbox", "cls"), g, w):
                where = f"level {lvl} {name}"
                assert ga.dtype == wa.dtype, where
                assert ga.shape == wa.shape, where
                assert np.array_equal(ga, wa), where
        return sum(lv[0].size for lv in got)

    @pytest.mark.filterwarnings("error")
    def test_random_batches(self):
        rng = np.random.default_rng(15)
        shapes = [(128, [(16, 16), (8, 8), (4, 4)]), (64, [(8, 8), (4, 4), (2, 2)]),
                  (256, [(32, 32), (16, 16), (8, 8)]), (96, [(12, 8), (6, 4), (3, 2)])]
        dets = [Detect(2, (8, 8, 8), img_size=s, rng=np.random.default_rng(0))
                for s in (64, 128, 640)]
        matched = 0
        for i in range(300):
            img, grids = shapes[i % len(shapes)]
            targets = _random_batch(rng, grids[0][1])
            matched += self._check(targets, dets[i % len(dets)], img, grids)
        assert matched > 1000  # the batches exercise assignment, not just skips

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("targets", [
        [np.array([[0, 0.0, 0.0, 0.2, 0.2]])],                     # centre at 0
        [np.array([[1, 0.5 / 16, 2.5 / 16, 0.1, 0.1]])],           # half a cell
        [np.array([[0, 1.0, 1.0, 0.2, 0.3], [1, 1.0, 0.0, 0.1, 0.1]])],  # at 1.0
        [np.array([[0, 0.5, 0.5, 0.0, 0.2], [1, 0.3, 0.3, 0.1, 0.1]])],  # zero width
        [np.array([[0, 0.5, 0.5, 0.2, 0.0]])],                     # zero height
        [np.array([[0, 0.5, 0.5, 1.0, 0.001]])],                   # fits no anchor
        [np.zeros((0, 5)), np.array([[1, 0.4, 0.6, 0.2, 0.2]]), np.zeros((0, 5))],
        [np.zeros((0, 5)), np.zeros((0, 5))],                      # no labels at all
    ], ids=["centre_0", "half_cell", "centre_1", "zero_w", "zero_h", "no_anchor",
            "empty_image", "empty_batch"])
    def test_edge_cases(self, targets):
        det = Detect(2, (8, 8, 8), img_size=128, rng=np.random.default_rng(0))
        self._check(targets, det, 128, self.GRIDS)


def _mk_preds(rng, grids, no, scale=1.0):
    return [Tensor((rng.standard_normal((1, 3 * no, gh, gw)) * scale), requires_grad=True)
            for gh, gw in grids]


class TestLoss:
    GRIDS = [(4, 4), (2, 2), (1, 1)]

    def test_components_positive(self, rng):
        det = _tiny_detect()
        preds = _mk_preds(rng, self.GRIDS, det.no)
        targets = [np.array([[0, 0.4, 0.6, 0.3, 0.35], [1, 0.2, 0.2, 0.2, 0.2]])]
        total, parts = training_loss(preds, targets, det, 32)
        assert parts["matched"] > 0
        assert parts["box"] > 0 and parts["obj"] > 0 and parts["cls"] > 0
        assert abs(parts["total"] - float(total.numpy())) < 1e-9

    def test_no_targets_obj_only(self, rng):
        det = _tiny_detect()
        preds = _mk_preds(rng, self.GRIDS, det.no)
        total, parts = training_loss(preds, [np.zeros((0, 5))], det, 32)
        assert parts["matched"] == 0
        assert parts["box"] == 0.0 and parts["cls"] == 0.0 and parts["obj"] > 0

    @pytest.mark.parametrize("kind", ["iou", "giou", "ciou", "siou"])
    def test_gradcheck(self, rng, kind):
        det = _tiny_detect()
        preds = _mk_preds(rng, self.GRIDS, det.no, scale=0.5)
        targets = [np.array([[0, 0.41, 0.62, 0.31, 0.33], [1, 0.22, 0.18, 0.2, 0.24]])]

        def f(p3, p4, p5):
            # constant obj targets: the overlap-graded mode holds its target
            # fixed, which finite differences cannot represent
            return training_loss([p3, p4, p5], targets, det, 32, box_kind=kind,
                                 obj_target="one")[0]

        err, report = grad_check(f, preds)
        assert err <= 1e-4, f"{kind}: max rel err {err:.2e}"

    def test_grad_reaches_all_levels(self, rng):
        det = _tiny_detect()
        preds = _mk_preds(rng, self.GRIDS, det.no)
        targets = [np.array([[0, 0.4, 0.6, 0.3, 0.35]])]
        total, _ = training_loss(preds, targets, det, 32)
        total.backward()
        for p in preds:
            assert p.grad is not None and np.abs(p.grad).sum() > 0

    def test_perfect_predictions_near_zero(self):
        det = _tiny_detect()
        no = det.no
        img = 32
        targets = [np.array([[1, 0.41, 0.62, 0.33, 0.37]])]
        grids = self.GRIDS
        assigned = assign_targets(targets, det, img, grids)
        preds = []
        big = 25.0
        for lvl, (gh, gw) in enumerate(grids):
            raw = np.full((1, 3, no, gh, gw), -big)
            raw[:, :, 5:, :, :] = -big
            b, a, gj, gi, tb, tc = assigned[lvl]
            anchors_grid = det.anchors[lvl].astype(np.float64) / (img / gh)
            for m in range(b.size):
                sx = (tb[m, 0] + 0.5) / 2.0
                sy = (tb[m, 1] + 0.5) / 2.0
                sw = math.sqrt(tb[m, 2] / anchors_grid[a[m], 0]) / 2.0
                sh = math.sqrt(tb[m, 3] / anchors_grid[a[m], 1]) / 2.0
                for ch, s in enumerate((sx, sy, sw, sh)):
                    raw[0, a[m], ch, gj[m], gi[m]] = math.log(s / (1 - s))
                raw[0, a[m], 4, gj[m], gi[m]] = big
                raw[0, a[m], 5 + tc[m], gj[m], gi[m]] = big
            preds.append(Tensor(raw.reshape(1, 3 * no, gh, gw)))
        total, parts = training_loss(preds, targets, det, img)
        assert parts["matched"] > 0
        assert float(total.numpy()) <= 1e-3

    def test_duplicate_target_rows_leave_obj_unchanged(self, rng):
        # the obj field is dense: a slot assigned twice still carries one term
        det = _tiny_detect()
        preds = _mk_preds(rng, self.GRIDS, det.no)
        row = [0, 0.4, 0.6, 0.3, 0.35]
        _, single = training_loss(preds, [np.array([row])], det, 32)
        _, doubled = training_loss(preds, [np.array([row, row])], det, 32)
        assert doubled["matched"] == 2 * single["matched"]
        assert doubled["obj"] == pytest.approx(single["obj"], rel=1e-12)
        assert doubled["box"] == pytest.approx(single["box"], rel=1e-12)

    def test_obj_target_modes_ordered(self, rng):
        # overlap-graded targets are <= 1, so with positive matched logits
        # the graded loss cannot sit below the constant-target loss
        det = _tiny_detect()
        preds = _mk_preds(rng, self.GRIDS, det.no, scale=0.3)
        for p in preds:
            p.data[:] = np.abs(p.data)
        targets = [np.array([[0, 0.4, 0.6, 0.3, 0.35]])]
        _, graded = training_loss(preds, targets, det, 32, obj_target="iou")
        _, const = training_loss(preds, targets, det, 32, obj_target="one")
        assert graded["obj"] >= const["obj"]
        assert graded["box"] == pytest.approx(const["box"], rel=1e-12)
        with pytest.raises(ValueError):
            training_loss(preds, targets, det, 32, obj_target="dice")


class TestPairIou:
    def test_matches_matrix_diagonal(self, rng):
        a = np.column_stack([rng.uniform(0.3, 0.7, (6, 2)), rng.uniform(0.1, 0.5, (6, 2))])
        b = np.column_stack([rng.uniform(0.3, 0.7, (6, 2)), rng.uniform(0.1, 0.5, (6, 2))])
        want = np.diag(iou_matrix(corners_np(a), corners_np(b)))
        assert np.allclose(_pair_iou_np(a, b), want, atol=1e-12)

    def test_disjoint_zero(self):
        a = np.array([[0.2, 0.2, 0.1, 0.1]])
        b = np.array([[0.8, 0.8, 0.1, 0.1]])
        assert _pair_iou_np(a, b)[0] == 0.0


class TestDecode:
    def test_zero_logits_center_anchor(self):
        nc = 2
        no = nc + 5
        raw = [np.zeros((1, 3 * no, 4, 4)), np.zeros((1, 3 * no, 2, 2)),
               np.zeros((1, 3 * no, 1, 1))]
        anchors = ANCHORS_BASE * (32 / 640.0)
        dec = decode_predictions(raw, anchors, 32, nc)
        assert dec.shape == (1, 3 * (16 + 4 + 1), no)
        # zero logit: sigmoid 0.5 -> box center sits mid-cell, wh equals the anchor
        first = dec[0, 0]
        assert np.allclose(first[0:2], (0.5 * 2 - 0.5 + 0) * 8.0)
        assert np.allclose(first[2:4], anchors[0, 0])
        assert np.allclose(first[4:], 0.5)

    def test_matches_training_parameterization(self, rng):
        det = _tiny_detect()
        no = det.no
        img, grids = 32, [(4, 4), (2, 2), (1, 1)]
        raw = [rng.standard_normal((1, 3 * no, gh, gw)) for gh, gw in grids]
        dec = decode_predictions(raw, det.anchors, img, det.nc)
        # recompute cell (a=1, gj=2, gi=3) on level 0 by hand
        a, gj, gi = 1, 2, 3
        v = raw[0].reshape(1, 3, no, 4, 4)[0, a, :, gj, gi]
        sig = 1 / (1 + np.exp(-v))
        stride = img / 4
        cx = (sig[0] * 2 - 0.5 + gi) * stride
        cy = (sig[1] * 2 - 0.5 + gj) * stride
        w = (sig[2] * 2) ** 2 * det.anchors[0, a, 0]
        flat = a * 16 + gj * 4 + gi
        assert np.allclose(dec[0, flat, :3], [cx, cy, w], rtol=1e-12)

    def test_encode_decode_roundtrip_recovers_box(self):
        # write the exact inverse logits for a GT box into one cell, decode it back
        det = _tiny_detect()
        no = det.no
        img, grids = 32, [(4, 4), (2, 2), (1, 1)]
        gt = np.array([13.0, 22.0, 9.0, 11.0])  # cx, cy, w, h in pixels
        lvl, a = 1, 0
        stride = img / grids[lvl][0]
        anchor = det.anchors[lvl, a]
        gi = min(int(gt[0] / stride), grids[lvl][1] - 1)
        gj = min(int(gt[1] / stride), grids[lvl][0] - 1)
        sx = (gt[0] / stride - gi + 0.5) / 2
        sy = (gt[1] / stride - gj + 0.5) / 2
        sw = math.sqrt(gt[2] / anchor[0]) / 2
        sh = math.sqrt(gt[3] / anchor[1]) / 2
        raw = [np.zeros((1, 3 * no, gh, gw)) for gh, gw in grids]
        view = raw[lvl].reshape(1, 3, no, *grids[lvl])
        for ch, s in enumerate((sx, sy, sw, sh)):
            view[0, a, ch, gj, gi] = math.log(s / (1 - s))
        dec = decode_predictions(raw, det.anchors, img, det.nc)
        flat = 3 * 16 + a * 4 + gj * 2 + gi
        assert np.all(np.abs(dec[0, flat, :4] - gt) <= 1.0)


def _corners(cxy, wh):
    return np.concatenate([cxy - wh / 2, cxy + wh / 2], axis=1)


def _clustered(rng, n, centres=12):
    """n boxes jittered around a few centres: dense overlap inside each cluster."""
    mid = rng.uniform(30, 170, size=(centres, 2))
    cxy = mid[rng.integers(0, centres, n)] + rng.normal(0, 6, size=(n, 2))
    return _corners(cxy, rng.uniform(8, 30, size=(n, 2)))


def _nms_case(case, rng):
    """(boxes, scores, iou_thr, max_det) for one named NMS oracle case."""
    if case == "random":
        n = 200
        boxes = _corners(rng.uniform(20, 80, size=(n, 2)), rng.uniform(5, 30, size=(n, 2)))
        return boxes, rng.uniform(0.01, 1.0, size=n), 0.5, n
    n = 700
    if case == "class_offset":
        # what detect_images feeds NMS: boxes clipped to the image, shifted per class
        img = 200
        boxes = np.clip(_clustered(rng, n), 0.0, float(img))
        cls = rng.integers(0, 3, size=n)
        return boxes + cls[:, None] * (img * 2.0), rng.uniform(0, 1, size=n), 0.45, n
    boxes = _clustered(rng, n)
    scores = rng.uniform(0, 1, size=n)
    if case == "clusters":
        return boxes, scores, 0.45, n
    if case == "tied_scores":
        return boxes, np.round(scores, 1), 0.45, n
    if case == "max_det_mid_block":
        return boxes, scores, 0.45, 150
    if case == "zero_area":
        flat = rng.random(n) < 0.15
        boxes[flat, 2] = boxes[flat, 0]  # zero width
        boxes[flat[::-1], 3] = boxes[flat[::-1], 1]  # zero height, some both
        boxes[1::50] = boxes[0::50]  # exact duplicates, zero-area ones among them
        return boxes, scores, 0.45, n
    raise ValueError(case)


class TestNms:
    def test_overlap_suppressed(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [50, 50, 60, 60.0]])
        scores = np.array([0.9, 0.8, 0.7])
        keep = nms_indices(boxes, scores, iou_thr=0.45)
        assert keep.tolist() == [0, 2]

    def test_low_overlap_kept(self):
        boxes = np.array([[0, 0, 10, 10], [8, 8, 18, 18.0]])
        keep = nms_indices(boxes, np.array([0.9, 0.8]), iou_thr=0.45)
        assert keep.tolist() == [0, 1]

    def test_max_det(self):
        boxes = np.array([[i * 20.0, 0, i * 20 + 10, 10] for i in range(5)])
        keep = nms_indices(boxes, np.linspace(1, 0.5, 5), max_det=3)
        assert len(keep) == 3

    def test_score_tie_stable(self):
        boxes = np.array([[0, 0, 10, 10], [100, 0, 110, 10.0]])
        keep = nms_indices(boxes, np.array([0.5, 0.5]))
        assert keep.tolist() == [0, 1]

    def test_empty_input(self):
        keep = nms_indices(np.zeros((0, 4)), np.zeros(0))
        assert keep.shape == (0,) and keep.dtype == np.int64

    @pytest.mark.parametrize("case", ["random", "clusters", "tied_scores",
                                      "max_det_mid_block", "zero_area", "class_offset"])
    def test_matches_bruteforce_suppression(self, rng, case):
        # independent scalar-loop oracle; the 700-box cases span several NMS blocks
        boxes, scores, thr, max_det = _nms_case(case, rng)
        n = len(scores)

        def iou(a, b):
            ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
            iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
            inter = ix * iy
            ua = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
            return inter / ua if ua > 0 else 0.0  # two zero-area boxes do not overlap

        expect = []
        for i in sorted(range(n), key=lambda i: (-scores[i], i)):
            if len(expect) == max_det:
                break
            if all(iou(boxes[i], boxes[j]) <= thr for j in expect):
                expect.append(i)
        got = nms_indices(boxes, scores, iou_thr=thr, max_det=max_det)
        assert got.dtype == np.int64
        assert got.tolist() == expect
        if max_det < n:
            assert len(got) == max_det  # the cap, not the candidates, ended the pass

    def test_detect_images_runs(self):
        m = Light(nc=2, width=0.125, img_size=64, rng=np.random.default_rng(1))
        x = np.random.default_rng(0).standard_normal((2, 3, 64, 64)).astype(np.float32)
        dets = detect_images(m, x, conf_thr=0.001)
        assert len(dets) == 2
        for img_dets in dets:
            confs = [d.confidence for d in img_dets]
            assert confs == sorted(confs, reverse=True)
            for d in img_dets:
                assert 0 <= d.class_id < 2
                assert 0 < d.confidence <= 1
                x1, y1, x2, y2 = d.box.corners()
                assert -1e-6 <= x1 and x2 <= 64 + 1e-6
                assert -1e-6 <= y1 and y2 <= 64 + 1e-6

    def test_detections_equal_per_box_construction(self):
        # untrained, at conf 0.001: every image fills max_det
        m = Light(nc=2, width=0.125, img_size=128, rng=np.random.default_rng(1))
        x = np.random.default_rng(0).standard_normal((2, 3, 128, 128)).astype(np.float32)
        got = detect_images(m, x, conf_thr=0.001)
        with no_grad():
            raw = m(Tensor(x))
        dec = decode_predictions([p.numpy() for p in raw], m.detect.anchors, 128, 2)
        for row, dets in zip(dec, got):
            scores = row[:, 5:] * row[:, 4:5]
            cls = scores.argmax(axis=1)
            conf = scores[np.arange(len(row)), cls]
            sel = conf >= 0.001
            boxes = np.clip(corners_np(row[sel, :4]), 0.0, 128.0)
            cls, conf = cls[sel], conf[sel]
            keep = nms_indices(boxes + cls[:, None] * 256.0, conf)
            want = []
            for i in keep:  # the center form, one kept box at a time, in float64
                x1, y1, x2, y2 = boxes[i]
                box = Box((x1 + x2) / 2, (y1 + y2) / 2, x2 - x1, y2 - y1)
                want.append(Detection(box, int(cls[i]), float(conf[i])))
            assert len(dets) == 300 and dets == want
            for d, w in zip(dets, want):
                fields = (d.box.cx, d.box.cy, d.box.w, d.box.h, d.confidence)
                assert all(type(v) is float for v in fields) and type(d.class_id) is int
                assert (np.array(fields).tobytes() == np.array(
                    (w.box.cx, w.box.cy, w.box.w, w.box.h, w.confidence)).tobytes())


class TestConvBnActEpilogue:
    @pytest.mark.parametrize("act", ["mish", "hswish", "leakyrelu"])
    @pytest.mark.parametrize("kind", ["baseline", "light"])
    def test_eval_blocks_equal_the_composite_bit_for_bit(self, kind, act):
        rng = np.random.default_rng(3)
        m = with_bn_stats(build_model(kind, nc=2, width=0.125, act=act, img_size=64, rng=rng),
                          rng)
        calls = []
        for block in m.modules():
            if isinstance(block, ConvBnAct):
                def run(x, block=block, forward=block.forward):
                    x_before = x.data.copy()
                    y = forward(x)
                    calls.append((block, x, x_before, y.data.copy()))
                    return y
                block.forward = run
        m.eval()
        with no_grad():
            m(Tensor(rng.standard_normal((2, 3, 64, 64)).astype(np.float32)))
            assert len(calls) == sum(isinstance(b, ConvBnAct) for b in m.modules())
            for block, x, x_before, y in calls:
                assert x.data.tobytes() == x_before.tobytes()  # the input is left alone
                want = block.act(block.bn(block.conv(x)))
                assert y.tobytes() == want.data.tobytes()


class TestCheckpoint:
    def _model(self, seed=1, nc=2, act="mish"):
        return Light(nc=nc, width=0.125, act=act, img_size=64,
                     rng=np.random.default_rng(seed))

    def test_roundtrip_bit_identical(self, tmp_path):
        m = self._model()
        x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32))
        m.eval()
        with no_grad():
            before = [p.numpy().copy() for p in m(x)]
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, m)
        m2 = self._model(seed=77)
        load_checkpoint(path, m2)
        m2.eval()
        with no_grad():
            after = [p.numpy() for p in m2(x)]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_running_stats_restored(self, tmp_path):
        m = self._model()
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 64, 64)).astype(np.float32))
        m.train()
        m(x)  # shifts BN running stats away from init
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, m)
        m2 = self._model(seed=77)
        load_checkpoint(path, m2)
        for (na, a), (nb, b) in zip(sorted(m.named_buffers()), sorted(m2.named_buffers())):
            assert na == nb
            assert np.array_equal(a.numpy(), b.numpy())

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        data = bytearray(open(path, "rb").read())
        data[:4] = b"XXXX"
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, self._model())

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path, self._model())

    def test_trailing_garbage(self, tmp_path):
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path, self._model())

    def test_anchors_follow_the_model_not_the_checkpoint(self, tmp_path):
        # parameters do not depend on the input size, so a 128 px checkpoint
        # loads into a 256 px model; the anchors must stay the 256 px ones
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, Light(nc=2, width=0.125, img_size=128,
                                    rng=np.random.default_rng(0)))
        assert b"anchors" not in open(path, "rb").read()
        m = Light(nc=2, width=0.125, img_size=256, rng=np.random.default_rng(1))
        load_checkpoint(path, m)
        fresh = Light(nc=2, width=0.125, img_size=256, rng=np.random.default_rng(2))
        assert np.array_equal(m.detect.anchors, fresh.detect.anchors)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_version_is_refused(self, tmp_path, version):
        # version 1 carried the 'layers.N.anchors' record; neither 1 nor 2 has
        # the config header, and both name tensors 'layers.N....'
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        data = bytearray(open(path, "rb").read())
        data[4:8] = version.to_bytes(4, "little")
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointError,
                           match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path, self._model())

    def test_tensor_names_are_attribute_paths(self):
        names = [n for n, _ in self._model().named_state()]
        assert names[0].startswith("stem.")
        assert not any("layers." in n for n in names)

    def test_state_layout_matches_frozen_table(self):
        # format 3 stores tensors by name in named_state order: a renamed or
        # reordered tensor would make existing checkpoints fail to load
        path = os.path.join(os.path.dirname(__file__), "data", "state_layout_toy.tsv")
        with open(path, encoding="utf-8") as fh:
            frozen = fh.read().splitlines()
        got = [f"{kind}\t{name}\t{'x'.join(map(str, t.shape))}"
               for kind in ("baseline", "light")
               for name, t in build_model(kind, nc=2, width=0.125, img_size=128,
                                          rng=np.random.default_rng(0)).named_state()]
        assert got == frozen

    def test_activation_mismatch(self, tmp_path):
        # mish and hswish models have the same tensors and shapes; only the
        # config header tells them apart
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        with pytest.raises(CheckpointError, match="'mish'.*'hswish'"):
            load_checkpoint(path, self._model(act="hswish"))

    def test_unreadable_config_header(self, tmp_path):
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        data = bytearray(open(path, "rb").read())
        data[12] = ord("]")  # the header's opening brace
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointError, match="config header"):
            load_checkpoint(path, self._model())

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        data = bytearray(open(path, "rb").read())
        data[4] = 9
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, self._model())

    def test_class_count_mismatch(self, tmp_path):
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model(nc=2))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path, self._model(nc=3))

    def test_wrong_architecture(self, tmp_path):
        path = str(tmp_path / "w.bin")
        save_checkpoint(path, self._model())
        other = Baseline(nc=2, width=0.125, img_size=64,
                         rng=np.random.default_rng(0))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, other)

    def test_errors_are_distinct(self, tmp_path):
        msgs = set()
        for corrupt, pat in ((lambda d: b"XXXX" + d[4:], "magic"),
                             (lambda d: d[: len(d) - 7], "truncated"),
                             (lambda d: d + b"!", "trailing")):
            path = str(tmp_path / "w.bin")
            save_checkpoint(path, self._model())
            data = open(path, "rb").read()
            open(path, "wb").write(corrupt(data))
            try:
                load_checkpoint(path, self._model())
                raise AssertionError("corruption accepted")
            except CheckpointError as e:
                msgs.add(str(e))
        save_checkpoint(path, self._model())
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path, self._model(act="hswish"))
        msgs.add(str(exc.value))
        assert len(msgs) == 4
