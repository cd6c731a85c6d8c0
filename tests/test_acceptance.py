"""Release gate: one test per shipping requirement, one printed line each.

Each test prints `[check NN] label: PASS/FAIL` on the real stdout so the
ledger of release checks is visible even under pytest's capture. Budgets and
tolerances are frozen here on purpose; loosening them is a release decision,
not a refactor.
"""

import math
import os
import re
import sys
import time

import numpy as np
import pytest

from lightdet import checks
from lightdet.boxes import LOSS_KINDS, Box, box_loss, iou_matrix, corners_np, rasterized_iou
from lightdet.cli import main
from lightdet.errors import CheckpointError
from lightdet.gam import GAM
from lightdet.metrics import Detection, ap_for_class, oracle_ap_sweep
from lightdet.model import Baseline, Light, load_checkpoint, save_checkpoint
from lightdet.sepvit import SepViTBlock, window_merge, window_partition
from lightdet.tensor import Tensor, conv2d, no_grad

# frozen budget figures: reported totals for the two graphs at the 640
# reference size, and the published targets they are held against
BASELINE_PARAMS_TARGET = 1_770_000
LIGHT_PARAMS_TARGET = 1_290_000
BASELINE_GFLOPS_TARGET = 4.2e9
LIGHT_GFLOPS_TARGET = 3.4e9
PARAM_REDUCTION_PCT = 27.1
FLOP_REDUCTION_PCT = 19.1


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[check {num:02d}] {label}: {status}" + (f"  ({detail})" if detail else ""),
          file=sys.__stdout__, flush=True)
    assert ok, f"check {num} {label}: {detail}"


def _totals(kind: str) -> tuple[int, int]:
    build = Baseline if kind == "baseline" else Light
    model = build(nc=2, width=0.25, rng=np.random.default_rng(0))
    rows = model.cost_rows(640)
    return sum(r[1] for r in rows), sum(r[2] for r in rows)


def test_01_parameter_budget():
    bp, _ = _totals("baseline")
    lp, _ = _totals("light")
    red = 100.0 * (bp - lp) / bp
    ok = (abs(bp - BASELINE_PARAMS_TARGET) / BASELINE_PARAMS_TARGET <= 0.05
          and abs(lp - LIGHT_PARAMS_TARGET) / LIGHT_PARAMS_TARGET <= 0.08
          and abs(red - PARAM_REDUCTION_PCT) <= 3.0)
    _line(1, "parameter budget", ok,
          f"baseline {bp}, light {lp}, reduction {red:.1f}%")


def test_02_flop_budget():
    _, bf = _totals("baseline")
    _, lf = _totals("light")
    red = 100.0 * (bf - lf) / bf
    ok = (abs(bf - BASELINE_GFLOPS_TARGET) / BASELINE_GFLOPS_TARGET <= 0.15
          and abs(lf - LIGHT_GFLOPS_TARGET) / LIGHT_GFLOPS_TARGET <= 0.15
          and abs(red - FLOP_REDUCTION_PCT) <= 3.0)
    _line(2, "flop budget", ok,
          f"baseline {bf / 1e9:.2f}G, light {lf / 1e9:.2f}G, reduction {red:.1f}%")


def test_03_accuracy_tables_out_of_reach():
    detail = ("published mAP/FPS tables rest on a non-public 21k-image dataset "
              "and specific GPU hardware; behavior is certified by checks 04-10 instead")
    print(f"[check 03] accuracy-table parity: SKIP  ({detail})",
          file=sys.__stdout__, flush=True)
    pytest.skip(detail)


def test_04_gradient_suite():
    t0 = time.perf_counter()
    results = checks.run_checks()
    elapsed = time.perf_counter() - t0
    worst = max(r.max_err for r in results)
    bad = [r.name for r in results if not r.ok]
    ok = not bad and elapsed < 120.0
    _line(4, "gradient suite", ok,
          f"{len(results)} checks, worst rel-err {worst:.2e}, {elapsed:.1f}s"
          + (f", failing: {bad}" if bad else ""))


def test_05_overlap_oracle():
    rng = np.random.default_rng(10)

    def rand_box():
        return Box(*rng.uniform(0.25, 0.75, 2), *rng.uniform(0.1, 0.5, 2))

    worst = 0.0
    for _ in range(1000):
        a, b = rand_box(), rand_box()
        analytic = float(iou_matrix(corners_np(a.array()[None]),
                                    corners_np(b.array()[None]))[0, 0])
        worst = max(worst, abs(analytic - rasterized_iou(a, b, n=1000)))

    same = Tensor(np.array([[0.4, 0.5, 0.3, 0.2]]))
    ident_bad = [k for k in LOSS_KINDS
                 if abs(float(box_loss(k, same, same).numpy()[0])) > 1e-6]

    n = 10_000
    pred = Tensor(np.column_stack([rng.uniform(0.2, 0.8, (n, 2)),
                                   rng.uniform(0.05, 0.5, (n, 2))]))
    gt = Tensor(np.column_stack([rng.uniform(0.2, 0.8, (n, 2)),
                                 rng.uniform(0.05, 0.5, (n, 2))]))
    li = box_loss("iou", pred, gt).numpy()
    lg = box_loss("giou", pred, gt).numpy()
    order_violations = int((lg < li - 1e-9).sum())

    ok = worst <= 2e-3 and not ident_bad and order_violations == 0
    _line(5, "overlap oracle", ok,
          f"raster gap {worst:.2e}, identical-box losses nonzero: {ident_bad or 'none'}, "
          f"ordering violations {order_violations}/{n}")


def test_06_depthwise_equals_masked_conv():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 7))
        k = int(rng.choice([1, 3, 5]))
        s = int(rng.choice([1, 2]))
        h = int(rng.integers(k, k + 5))
        x = Tensor(rng.standard_normal((1, c, h, h)).astype(np.float32))
        wd = rng.standard_normal((c, 1, k, k)).astype(np.float32)
        wf = np.zeros((c, c, k, k), np.float32)
        wf[np.arange(c), np.arange(c)] = wd[:, 0]
        with no_grad():
            yd = conv2d(x, Tensor(wd), None, stride=s, padding=k // 2, groups=c)
            yf = conv2d(x, Tensor(wf), None, stride=s, padding=k // 2, groups=1)
        worst = max(worst, float(np.abs(yd.numpy() - yf.numpy()).max()))
    ok = worst <= 1e-6
    _line(6, "depthwise equals masked conv", ok, f"max |diff| {worst:.2e} over 100 cases")


def test_07_window_attention_invariants():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 8, 6, 6)).astype(np.float32))
    rt = window_merge(window_partition(x, 3), 3, 6, 6)
    roundtrip_exact = np.array_equal(rt.numpy(), x.numpy())

    blk = SepViTBlock(8, window_size=3, rng=np.random.default_rng(13))
    f = window_partition(x, 3)
    _, wt, attn1 = blk.window_attention(f, return_attn=True)
    _, attn2 = blk.cross_window_attention(f, wt, return_attn=True)
    rows1 = float(np.abs(attn1.numpy().sum(-1) - 1.0).max())
    rows2 = float(np.abs(attn2.numpy().sum(-1) - 1.0).max())

    big = SepViTBlock(256, window_size=7, rng=np.random.default_rng(14))
    xin = Tensor(rng.standard_normal((1, 256, 14, 14)).astype(np.float32))
    shape_kept = big(xin).shape == (1, 256, 14, 14)

    ok = roundtrip_exact and rows1 <= 1e-6 and rows2 <= 1e-6 and shape_kept
    _line(7, "window attention invariants", ok,
          f"roundtrip exact {roundtrip_exact}, row-sum gaps {rows1:.1e}/{rows2:.1e}, "
          f"shape kept {shape_kept}")


def test_08_gate_bound():
    rng = np.random.default_rng(15)
    gam = GAM(16, rng=np.random.default_rng(16))
    x = Tensor(rng.standard_normal((100, 16, 6, 6)).astype(np.float32))
    with no_grad():
        y = gam(x).numpy()
        z = gam(Tensor(np.zeros((2, 16, 6, 6), np.float32))).numpy()
    bound_holds = bool((np.abs(y) <= np.abs(x.numpy()) + 1e-7).all())
    zero_fixed = bool((z == 0).all())
    ok = bound_holds and zero_fixed
    _line(8, "attention gate bound", ok,
          f"|out|<=|in| {bound_holds}, gate(0)=0 {zero_fixed}")


def test_09_ap_oracle():
    def det(cx, cy, w, h, conf):
        return Detection(Box(cx, cy, w, h), 0, conf)

    gts = [[(0, Box(0.3, 0.3, 0.2, 0.2)), (0, Box(0.7, 0.7, 0.2, 0.2))]]
    dets = [[det(0.3, 0.3, 0.2, 0.2, 0.9), det(0.5, 0.1, 0.05, 0.05, 0.8),
             det(0.7, 0.7, 0.2, 0.2, 0.7)]]
    ap, *_ = ap_for_class(dets, gts, 0)
    hand_ok = abs(ap - 0.833333) <= 1e-4

    rng = np.random.default_rng(17)
    gap = 0.0
    compared = 0
    for _ in range(50):
        dets_all, gts_all = _random_instance(rng)
        for cls in (0, 1):
            want = oracle_ap_sweep(dets_all, gts_all, cls)
            got, *_ = ap_for_class(dets_all, gts_all, cls)
            if want is None:
                assert got is None
            else:
                gap = max(gap, abs(got - want))
                compared += 1
    ok = hand_ok and gap <= 1e-12 and compared >= 40
    _line(9, "average-precision oracle", ok,
          f"hand case {ap:.6f}, sweep gap {gap:.1e} over {compared} instances")


def _random_instance(rng, n_images=3, num_classes=2):
    dets_all, gts_all = [], []
    for _ in range(n_images):
        gts = []
        for _ in range(rng.integers(0, 4)):
            cls = int(rng.integers(0, num_classes))
            gts.append((cls, Box(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.1, 0.3, 2))))
        dets = []
        for cls, gb in gts:
            if rng.random() < 0.8:
                j = rng.normal(0, 0.05, 4)
                dets.append(Detection(Box(gb.cx + j[0], gb.cy + j[1],
                                          abs(gb.w + j[2]) + 1e-3,
                                          abs(gb.h + j[3]) + 1e-3),
                                      cls, float(rng.random())))
        for _ in range(rng.integers(0, 3)):
            cls = int(rng.integers(0, num_classes))
            dets.append(Detection(Box(*rng.uniform(0.1, 0.9, 2),
                                      *rng.uniform(0.05, 0.2, 2)),
                                  cls, float(rng.random())))
        dets_all.append(dets)
        gts_all.append(gts)
    return dets_all, gts_all


def test_10_overfit_smoke(tmp_path, capsys):
    root = str(tmp_path / "ds")
    t0 = time.perf_counter()
    assert main(["synth", "--data", root, "--profile", "toy", "--seed", "0"]) == 0
    assert main(["train", "--data", root, "--profile", "toy", "--seed", "0"]) == 0
    assert main(["eval", "--data", root, "--profile", "toy", "--seed", "0",
                 "--split", "train", "--weights", os.path.join(root, "last.ckpt")]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    map50 = float(re.search(r"map50 ([\d.]+)\s*$", out.strip().splitlines()[-1]).group(1))
    ok = map50 >= 0.9 and elapsed <= 600.0
    _line(10, "overfit smoke", ok,
          f"train-split map50 {map50:.4f} in {elapsed / 60:.1f} min "
          f"(64 images, 300 iteration cap)")


def test_11_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    model = Light(nc=2, width=0.125, img_size=64, rng=np.random.default_rng(19))
    model.eval()
    x = Tensor(rng.random((1, 3, 64, 64)).astype(np.float32))
    with no_grad():
        before = [p.numpy().copy() for p in model(x)]
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model)

    other = Light(nc=2, width=0.125, img_size=64, rng=np.random.default_rng(99))
    load_checkpoint(path, other)
    other.eval()
    with no_grad():
        after = [p.numpy() for p in other(x)]
    identical = all(np.array_equal(a, b) for a, b in zip(before, after))

    raw = open(path, "rb").read()
    messages = []
    bad_magic = str(tmp_path / "bad_magic.ckpt")
    open(bad_magic, "wb").write(b"XXXX" + raw[4:])
    truncated = str(tmp_path / "short.ckpt")
    open(truncated, "wb").write(raw[: len(raw) // 2])
    for p in (bad_magic, truncated):
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(p, other)
        messages.append(str(exc.value))
    wrong_arch = Light(nc=3, width=0.125, img_size=64,
                       rng=np.random.default_rng(20))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path, wrong_arch)
    messages.append(str(exc.value))
    distinct = len(set(messages)) == 3

    ok = identical and distinct
    _line(11, "checkpoint roundtrip", ok,
          f"forward bit-identical {identical}, distinct rejections {distinct}")
