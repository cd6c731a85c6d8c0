"""Finite-difference audit of every differentiable building block.

Each named check builds a tiny instance of one layer (or loss), runs
`grad_check` against central differences in float64, and reports the worst
relative error over the input *and every parameter*. The registry is shared
by the `gradcheck` CLI command and the release test suite, so both always
agree on what "the gradients are right" means.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boxes import LOSS_KINDS, box_loss
from .gam import GAM
from .model import Detect, training_loss
from .nn import Bottleneck, C3, Conv2d, DSSConv, LayerNorm, Module
from .sepvit import SepViTBlock, window_partition
from .tensor import ACT_PAIRS, Tensor, activate, batch_norm, grad_check, max_pool2d

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float
    seconds: float

    @property
    def ok(self) -> bool:
        return self.max_err <= TOLERANCE


def _module_err(module: Module, xs: list[Tensor], call=None) -> float:
    """Worst FD error over the given inputs plus all module parameters, which
    grad_check checks in place: the module runs as built, in float64."""
    for _, t in module.named_state():
        t.data = t.data.astype(np.float64)
    call = call or (lambda m, t: m(t).tanh().sum())
    err, _ = grad_check(lambda *ts: call(module, *ts[:len(xs)]), list(xs) + module.parameters())
    return err


def _x(shape, seed, scale=1.0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape) * scale)


CHECKS: dict[str, Callable[[], float]] = {}


def _check(name: str):
    def deco(fn):
        CHECKS[name] = fn
        return fn

    return deco


@_check("conv2d")
def _conv():
    m = Conv2d(3, 4, 3, rng=np.random.default_rng(1))
    return _module_err(m, [_x((2, 3, 4, 4), 2)])


@_check("conv1x1")
def _conv1x1():
    m = Conv2d(3, 4, 1, rng=np.random.default_rng(34))
    return _module_err(m, [_x((2, 3, 4, 4), 35)])


@_check("conv_strided_grouped")
def _conv_strided_grouped():
    m = Conv2d(4, 6, 3, s=2, g=2, rng=np.random.default_rng(36))
    return _module_err(m, [_x((2, 4, 5, 5), 37)])


@_check("conv_stem")
def _conv_stem():
    # the stem's 6x6 at stride 2, padding 2: four input phases, nine taps each
    m = Conv2d(3, 4, 6, s=2, p=2, rng=np.random.default_rng(40))
    return _module_err(m, [_x((2, 3, 8, 8), 41)])


@_check("conv_output_side")
def _conv_output_side():
    # a GAM spatial-gate squeeze: 7x7 down to few channels, where the padded
    # output side (2*14*14) is smaller than the input side (8*8*8)
    m = Conv2d(8, 2, 7, rng=np.random.default_rng(38))
    return _module_err(m, [_x((2, 8, 8, 8), 39)])


@_check("depthwise_conv")
def _dwconv():
    m = Conv2d(4, 4, 3, g=4, rng=np.random.default_rng(3))
    return _module_err(m, [_x((1, 4, 4, 4), 4)])


def _pool_check(k: int, s: int, p: int, seed: int):
    x = _x((2, 3, 7, 7), seed)  # random values: no ties
    err, _ = grad_check(lambda t: max_pool2d(t, k, s, padding=p).tanh().sum(), [x])
    return err


for _name, _args in (("max_pool_sppf", (5, 1, 2, 40)), ("max_pool_strided", (3, 2, 1, 41))):
    CHECKS[_name] = (lambda a=_args: _pool_check(*a))


@_check("layernorm")
def _ln():
    m = LayerNorm(6)
    return _module_err(m, [_x((2, 4, 6), 6)])


def _act_check(name: str):
    # offset grid dodges the kink points of the piecewise activations
    x = Tensor(np.linspace(-4.0, 4.0, 41) + 0.0137, requires_grad=True)
    err, _ = grad_check(lambda t: activate(t, name).tanh().sum(), [x])
    return err


for _name in ACT_PAIRS:
    CHECKS[_name] = (lambda nm=_name: _act_check(nm))


def _bn_act_check(act: str):
    rng = np.random.default_rng(44)
    x = Tensor(rng.standard_normal((2, 3, 3, 3)))
    w, b = Tensor(rng.uniform(0.5, 1.5, 3)), Tensor(rng.uniform(-0.3, 0.3, 3))
    # the training node normalises into its input's buffer: give it a fresh copy each call
    err, _ = grad_check(lambda t, wt, bt: batch_norm(t * 1.0, wt, bt, act)[0].tanh().sum(),
                        [x, w, b])
    return err


for _name in ACT_PAIRS:
    CHECKS[f"bn_act_{_name}"] = (lambda a=_name: _bn_act_check(a))


@_check("mish_wide")
def _mish_wide():
    # both sides of the exp clamp at x = 20 inside the fused mish
    x = Tensor(np.linspace(-30.0, 30.0, 61) + 0.0137, requires_grad=True)
    err, _ = grad_check(lambda t: activate(t, "mish").sum(), [x])
    return err


def _off_origin_token(blk: SepViTBlock) -> SepViTBlock:
    # the token starts at zero, where normalizing its (constant) row divides
    # by sqrt(eps) and central differences lose accuracy; check off the origin
    blk.window_token.data = np.random.default_rng(28).standard_normal(
        blk.window_token.shape) * 0.25
    return blk


@_check("window_attention")
def _dwa():
    blk = _off_origin_token(SepViTBlock(4, rng=np.random.default_rng(11)))
    f = window_partition(_x((1, 4, 4, 4), 12, scale=0.5), 2)

    def call(m, t):
        pix, token = m.window_attention(t)
        return pix.tanh().sum() + token.tanh().sum()

    return _module_err(blk, [f], call)


@_check("cross_window_attention")
def _pwa():
    blk = SepViTBlock(4, rng=np.random.default_rng(13))
    fpix = _x((1, 4, 4, 4), 14)
    wt = _x((1, 4, 1, 4), 15)
    return _module_err(blk, [fpix, wt],
                       lambda m, a, b: m.cross_window_attention(a, b).tanh().sum())


@_check("sepvit_block")
def _sepvit():
    blk = _off_origin_token(SepViTBlock(4, rng=np.random.default_rng(16)))
    # a 4x6 map picks 2x2 windows, six of them, so stage two mixes windows
    return _module_err(blk, [_x((1, 4, 4, 6), 17)])


@_check("c3")
def _c3():
    m = C3(4, 4, n=2, act="mish", rng=np.random.default_rng(42))
    return _module_err(m, [_x((1, 4, 4, 4), 43)])


@_check("dss_conv")
def _dss_conv():
    m = DSSConv(4, act="mish", rng=np.random.default_rng(18))
    return _module_err(m, [_x((1, 4, 4, 4), 19)])


@_check("dss_c3")
def _dss_c3():
    m = C3(4, 4, separable=True, act="mish", rng=np.random.default_rng(20))
    return _module_err(m, [_x((1, 4, 4, 4), 21)])


@_check("gam")
def _gam():
    m = GAM(4, rng=np.random.default_rng(22))
    return _module_err(m, [_x((1, 4, 4, 4), 23)])


@_check("gam_bottleneck")
def _gam_bottleneck():
    rng = np.random.default_rng(24)
    m = Bottleneck(4, shortcut=True, act="mish", separable=True,
                   attention=GAM(4, rng=rng), rng=rng)
    return _module_err(m, [_x((1, 4, 4, 4), 25)])


def _box_check(kind: str):
    rng = np.random.default_rng(31)
    cxy = rng.uniform(0.25, 0.75, (4, 2))
    wh = rng.uniform(0.15, 0.6, (4, 2))
    gt = Tensor(np.concatenate([rng.uniform(0.25, 0.75, (4, 2)),
                                rng.uniform(0.15, 0.6, (4, 2))], axis=1))
    pred = Tensor(np.concatenate([cxy, wh], axis=1), requires_grad=True)
    err, _ = grad_check(lambda p: box_loss(kind, p, gt).sum(), [pred])
    return err


for _kind in LOSS_KINDS:
    CHECKS[f"box_{_kind}"] = (lambda k=_kind: _box_check(k))


@_check("training_loss")
def _loss():
    det = Detect(2, (8, 8, 8), img_size=640, rng=np.random.default_rng(26))
    rng = np.random.default_rng(27)
    grids = [(4, 4), (2, 2), (1, 1)]
    preds = [Tensor(rng.standard_normal((1, 3 * det.no, gh, gw)) * 0.5,
                    requires_grad=True) for gh, gw in grids]
    # every objectness logit at 0: the obj target (the achieved IoU) moves with
    # the box logits but is held fixed in the analytic gradient by design;
    # multiplied by a zero logit, its movement is invisible to finite differences
    for p in preds:
        p.data.reshape(1, 3, det.no, -1)[:, :, 4] = 0.0
    targets = [np.array([[0, 0.41, 0.62, 0.31, 0.33], [1, 0.22, 0.18, 0.2, 0.24]])]

    def f(p3, p4, p5):
        return training_loss([p3, p4, p5], targets, det, box_kind="siou")[0]

    err, _ = grad_check(f, preds)
    return err


def run_checks() -> list[CheckResult]:
    """Run every check in CHECKS and time each one."""
    results = []
    for nm, check in CHECKS.items():
        t0 = time.perf_counter()
        err = float(check())
        results.append(CheckResult(nm, err, time.perf_counter() - t0))
    return results
