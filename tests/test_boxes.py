import warnings

import numpy as np
import pytest

from lightdet.boxes import EPS, LOSS_KINDS, box_loss, corners_np, iou_matrix
from lightdet.tensor import Tensor, grad_check

from oracles import rasterized_iou


def box_loss_of(kind: str, a, b) -> Tensor:
    """`box_loss` of one pair of (cx, cy, w, h) boxes."""
    return box_loss(kind, Tensor(np.asarray(a, np.float64)), Tensor(np.asarray(b, np.float64)))


def iou(a, b) -> float:
    """Plain IoU through the tensor path the training loss runs."""
    return 1.0 - box_loss_of("iou", a, b).item()


def random_box(rng, lo=0.15, hi=0.6):
    cx, cy = rng.uniform(0.25, 0.75, 2)
    w, h = rng.uniform(lo, hi, 2)
    return np.array([cx, cy, w, h])


class TestIoU:
    def test_hand_cases(self):
        a = (1, 1, 2, 2)
        assert iou(a, a) == pytest.approx(1.0, abs=1e-7)
        assert iou(a, (5, 5, 2, 2)) == 0.0
        third = iou(a, (2, 1, 2, 2))
        assert third == pytest.approx(1 / 3, abs=1e-7)

    def test_matrix_agrees_with_tensor_path(self, rng):
        boxes_a = [random_box(rng) for _ in range(6)]
        boxes_b = [random_box(rng) for _ in range(4)]
        ca = corners_np(np.stack(boxes_a))
        cb = corners_np(np.stack(boxes_b))
        mat = iou_matrix(ca, cb)
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == pytest.approx(iou(a, b), abs=1e-9)

    def test_oracle_dense_and_separable_identical(self, rng):
        for _ in range(25):
            a, b = random_box(rng), random_box(rng)
            assert rasterized_iou(a, b, n=500, dense=True) == rasterized_iou(a, b, n=500)

    def test_oracle_matches_analytic(self, rng):
        worst = 0.0
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            got = iou(a, b)
            ref = rasterized_iou(a, b)
            worst = max(worst, abs(got - ref))
        assert worst <= 2e-3


def iou_matrix_oracle(a, b, eps=EPS):
    """The plain formula, one fresh array per step: what iou_matrix must equal."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix2 - ix1, 0, None) * np.clip(iy2 - iy1, 0, None)
    area_a = np.clip(a[:, 2] - a[:, 0], 0, None) * np.clip(a[:, 3] - a[:, 1], 0, None)
    area_b = np.clip(b[:, 2] - b[:, 0], 0, None) * np.clip(b[:, 3] - b[:, 1], 0, None)
    return inter / (area_a[:, None] + area_b[None, :] - inter + eps)


def _iou_case(case, rng):
    """Two corner-form box sets; some rows shuffled corners, so widths go negative."""
    n, m = rng.integers(0, 30, size=2)
    a = rng.uniform(-2, 12, size=(n, 4))
    b = rng.uniform(-2, 12, size=(m, 4))
    a[: n // 2, 2:] += a[: n // 2, :2]  # well-formed half
    b[: m // 2, 2:] += b[: m // 2, :2]
    for boxes in (a, b):
        rows = rng.random(len(boxes)) < 0.3
        if case == "zero_area":
            boxes[rows, 2] = boxes[rows, 0]
            boxes[rows[::-1], 3] = boxes[rows[::-1], 1]
        elif case == "duplicates" and len(boxes):
            boxes[rows] = boxes[0]
        elif case in ("nan", "inf"):
            special = [np.nan] if case == "nan" else [np.inf, -np.inf]
            cells = rng.random(boxes.shape) < 0.1
            boxes[cells] = rng.choice(special, size=int(cells.sum()))
    if case == "duplicates" and n and m:
        b[::2] = a[0]  # the same box on both sides: IoU 1 up to eps
    return a, b


class TestIoUMatrixInPlace:
    @pytest.mark.parametrize("case", ["random", "zero_area", "duplicates", "nan", "inf"])
    def test_equals_the_plain_formula(self, case, rng):
        for _ in range(60):
            a, b = _iou_case(case, rng)
            with warnings.catch_warnings(record=True) as old_warnings:
                warnings.simplefilter("always")
                want = iou_matrix_oracle(a, b)
            with warnings.catch_warnings(record=True) as new_warnings:
                warnings.simplefilter("always")
                got = iou_matrix(a, b)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)
            assert got.tobytes() == want.tobytes()  # signed zeros and NaN bits too
            # the masks NMS (<= 0.45) and matching (>= 0.5, > 0) take from it
            for thr in (0.45, 0.5):
                assert np.array_equal(got <= thr, want <= thr)
                assert np.array_equal(got >= thr, want >= thr)
            assert np.array_equal(got > 0, want > 0)
            seen = {(w.category, str(w.message)) for w in old_warnings}
            assert {(w.category, str(w.message)) for w in new_warnings} <= seen

    def test_cases_reach_nan_and_zero(self, rng):
        # the special cases do produce the values they are meant to cover
        def values(case):
            return np.concatenate([iou_matrix(*_iou_case(case, rng)).ravel() for _ in range(20)])

        with np.errstate(invalid="ignore"):  # inf - inf
            assert np.isnan(values("inf")).any()
        assert np.isnan(values("nan")).any()
        assert (values("zero_area") == 0).any()
        assert (values("duplicates") > 0.99).any()


class TestLossFamily:
    def test_identical_boxes_all_zero(self, rng):
        for _ in range(10):
            b = random_box(rng)
            for kind in LOSS_KINDS:
                assert box_loss_of(kind, b, b).item() <= 1e-6, kind

    def test_family_orderings(self, rng, rng1):
        preds = np.stack([random_box(rng) for _ in range(10000)])
        gts = np.stack([random_box(rng1) for _ in range(10000)])
        p, g = Tensor(preds), Tensor(gts)
        l_iou = box_loss("iou", p, g).numpy()
        l_giou = box_loss("giou", p, g).numpy()
        l_ciou = box_loss("ciou", p, g).numpy()
        assert (l_giou >= l_iou - 1e-9).all()
        assert (l_ciou >= l_iou - 1e-9).all()

    def test_batched_equals_per_pair(self, rng):
        preds = np.stack([random_box(rng) for _ in range(8)])
        gts = np.stack([random_box(rng) for _ in range(8)])
        for kind in LOSS_KINDS:
            batched = box_loss(kind, Tensor(preds), Tensor(gts)).numpy()
            single = [box_loss(kind, Tensor(preds[i]), Tensor(gts[i])).item() for i in range(8)]
            assert np.allclose(batched, single, atol=1e-9), kind

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_scale_and_translation_invariance(self, kind, rng):
        p, g = random_box(rng), random_box(rng)
        base = box_loss_of(kind, p, g).item()
        k, tx, ty = 7.3, 3.0, -2.0
        scaled = box_loss_of(kind, p * k, g * k).item()
        shift = np.array([tx, ty, 0.0, 0.0])
        shifted = box_loss_of(kind, p + shift, g + shift).item()
        assert scaled == pytest.approx(base, abs=1e-6)
        assert shifted == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_gradcheck(self, kind, rng):
        pred = Tensor(np.stack([random_box(rng) for _ in range(4)]))
        gt = Tensor(np.stack([random_box(rng) for _ in range(4)]))

        def f(p):
            return box_loss(kind, p, gt).sum()

        err, _ = grad_check(f, [pred])
        assert err <= 1e-4, kind

    def test_disjoint_boxes_giou_still_informative(self):
        pred = Tensor(np.array([[0.2, 0.2, 0.1, 0.1]]))
        gt = Tensor(np.array([[0.8, 0.8, 0.1, 0.1]]))

        def grad_of(kind):
            p = Tensor(pred.numpy().copy(), requires_grad=True)
            box_loss(kind, p, gt).sum().backward()
            return p.grad

        assert np.abs(grad_of("iou")).max() == 0.0  # plain IoU is blind here
        assert np.abs(grad_of("giou")).max() > 0.0  # the enclosing term is not

    def test_degenerate_boxes_stay_finite(self):
        flat = (0.5, 0.5, 0.0, 0.3)
        other = (0.5, 0.5, 0.2, 0.2)
        for kind in LOSS_KINDS:
            val = box_loss_of(kind, flat, other).item()
            assert np.isfinite(val), kind

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            box_loss_of("xiou", (0, 0, 1, 1), (0, 0, 1, 1))
