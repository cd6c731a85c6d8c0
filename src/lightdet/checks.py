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
from .nn import BatchNorm2d, Bottleneck, C3, Conv2d, DSSConv, LayerNorm, Module, activation
from .sepvit import SepViTBlock, window_partition
from .tensor import Tensor, grad_check, max_pool2d

TOLERANCE = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float
    seconds: float

    @property
    def ok(self) -> bool:
        return self.max_err <= TOLERANCE


def _rebind(root: Module, dotted: str, leaf: Tensor) -> None:
    """Replace the parameter at a dotted path with a new Tensor object."""
    obj = root
    parts = dotted.split(".")
    for part in parts[:-1]:
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    setattr(obj, parts[-1], leaf)


def _module_err(module: Module, xs: list[Tensor], call=None) -> float:
    """Worst FD error over the given inputs plus all module parameters.

    grad_check promotes its leaves to fresh float64 tensors, so the module's
    own parameter slots are swapped for those leaves on every evaluation;
    the analytic gradients then land where the checker can read them.
    """
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    for _, buf in module.named_buffers():
        buf.data = buf.data.astype(np.float64)
    names = [n for n, _ in module.named_parameters()]
    params = [p for _, p in module.named_parameters()]
    nx = len(xs)
    call = call or (lambda m, t: m(t).tanh().sum())

    def f(*leaves):
        for name, leaf in zip(names, leaves[nx:]):
            _rebind(module, name, leaf)
        return call(module, *leaves[:nx])

    err, _ = grad_check(f, list(xs) + params)
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


@_check("batchnorm")
def _bn():
    m = BatchNorm2d(3)
    return _module_err(m, [_x((2, 3, 3, 3), 5)])


@_check("batchnorm_eval")
def _bn_eval():
    rng = np.random.default_rng(32)
    m = BatchNorm2d(3)
    m.weight.data = rng.uniform(0.5, 1.5, 3).astype(np.float32)
    m.bias.data = rng.standard_normal(3).astype(np.float32)
    m.running_mean.data = rng.standard_normal(3).astype(np.float32)
    m.running_var.data = rng.uniform(0.2, 3.0, 3).astype(np.float32)
    m.eval()
    return _module_err(m, [_x((2, 3, 3, 3), 33)])


@_check("layernorm")
def _ln():
    m = LayerNorm(6)
    return _module_err(m, [_x((2, 4, 6), 6)])


def _act_check(name: str, seed: int):
    fn = activation(name)
    # offset grid dodges the kink points of the piecewise activations
    x = Tensor(np.linspace(-4.0, 4.0, 41) + 0.0137, requires_grad=True)
    err, _ = grad_check(lambda t: fn(t).tanh().sum(), [x])
    return err


for _name, _seed in (("mish", 7), ("hswish", 8), ("leakyrelu", 9), ("gelu", 10)):
    CHECKS[_name] = (lambda nm=_name, sd=_seed: _act_check(nm, sd))


@_check("mish_wide")
def _mish_wide():
    # both sides of the exp clamp at x = 20 inside the fused mish
    x = Tensor(np.linspace(-30.0, 30.0, 61) + 0.0137, requires_grad=True)
    err, _ = grad_check(lambda t: activation("mish")(t).sum(), [x])
    return err


@_check("window_attention")
def _dwa():
    blk = SepViTBlock(4, window_size=2, rng=np.random.default_rng(11))
    # the token starts at zero, where normalizing its (constant) row divides
    # by sqrt(eps) and central differences lose accuracy; check off the origin
    blk.window_token.data = np.random.default_rng(28).standard_normal(
        blk.window_token.shape) * 0.25
    f = window_partition(_x((1, 4, 4, 4), 12, scale=0.5), 2)

    def call(m, t):
        pix, token = m.window_attention(t)
        return pix.tanh().sum() + token.tanh().sum()

    return _module_err(blk, [f], call)


@_check("cross_window_attention")
def _pwa():
    blk = SepViTBlock(4, window_size=2, rng=np.random.default_rng(13))
    fpix = _x((1, 4, 4, 4), 14)
    wt = _x((1, 4, 1, 4), 15)
    return _module_err(blk, [fpix, wt],
                       lambda m, a, b: m.cross_window_attention(a, b).tanh().sum())


@_check("sepvit_block")
def _sepvit():
    blk = SepViTBlock(4, window_size=2, rng=np.random.default_rng(16))
    return _module_err(blk, [_x((1, 4, 4, 4), 17)])


@_check("c3")
def _c3():
    m = C3(4, 4, n=2, rng=np.random.default_rng(42))
    return _module_err(m, [_x((1, 4, 4, 4), 43)])


@_check("dss_conv")
def _dss_conv():
    m = DSSConv(4, 4, rng=np.random.default_rng(18))
    return _module_err(m, [_x((1, 4, 4, 4), 19)])


@_check("dss_c3")
def _dss_c3():
    m = C3(4, 4, separable=True, rng=np.random.default_rng(20))
    return _module_err(m, [_x((1, 4, 4, 4), 21)])


@_check("gam")
def _gam():
    m = GAM(4, hidden=2, k=3, rng=np.random.default_rng(22))
    return _module_err(m, [_x((1, 4, 4, 4), 23)])


@_check("gam_bottleneck")
def _gam_bottleneck():
    rng = np.random.default_rng(24)
    m = Bottleneck(4, 4, separable=True, attention=GAM(4, hidden=2, k=3, rng=rng), rng=rng)
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
    targets = [np.array([[0, 0.41, 0.62, 0.31, 0.33], [1, 0.22, 0.18, 0.2, 0.24]])]

    def f(p3, p4, p5):
        # constant obj targets: the default grades assigned slots by their
        # currently achieved overlap, held fixed, and a target that moves
        # with the inputs is invisible to the analytic gradient by design,
        # so finite differences would disagree at the matched slots. The
        # differentiable machinery is identical in both modes.
        return training_loss([p3, p4, p5], targets, det, 32, box_kind="siou",
                             obj_target="one")[0]

    err, _ = grad_check(f, preds)
    return err


def run_checks(names: list[str] | None = None,
               extra: dict[str, Callable[[], float]] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) and time each one.

    `extra` merges additional name -> callable entries into the registry for
    this run only; a caller can use it to prove the harness actually catches
    a wrong gradient.
    """
    table = dict(CHECKS)
    if extra:
        table.update(extra)
    chosen = list(table) if names is None else names
    results = []
    for nm in chosen:
        if nm not in table:
            raise KeyError(f"unknown check {nm!r}; choose from {sorted(table)}")
        t0 = time.perf_counter()
        err = float(table[nm]())
        results.append(CheckResult(nm, err, time.perf_counter() - t0))
    return results
