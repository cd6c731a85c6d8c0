import ast
import pathlib

import numpy as np

from lightdet.boxes import corners_np
from lightdet.metrics import match_image
from lightdet.nn import BatchNorm2d
from lightdet.tensor import BN_EPS, BN_MOMENTUM, Tensor, activate, count_flops, no_grad

_GELU_C = float(np.sqrt(2.0 / np.pi))

# each activation of tensor.ACT_PAIRS written out in generic Tensor ops
COMPOSITE_ACTS = {
    "mish": lambda t: t * t.softplus().tanh(),
    "relu": lambda t: t.maximum(0.0),
    "silu": lambda t: t * t.sigmoid(),
    "gelu": lambda t: (((t + t ** 3 * 0.044715) * _GELU_C).tanh() + 1.0) * t * 0.5,
}


def match_rows(dets, gts) -> list[bool]:
    """`metrics.match_image` on one image's detection rows (cx, cy, w, h,
    confidence, class), already in rank order, and ground-truth rows
    (class, cx, cy, w, h)."""
    d = np.asarray(dets, np.float64).reshape(-1, 6)
    g = np.asarray(gts, np.float64).reshape(-1, 5)
    return match_image(corners_np(d[:, :4]), d[:, 5], corners_np(g[:, 1:]), g[:, 0]).tolist()


def cast_f64(module):
    """Promote a module's params and buffers so grad_check runs in float64."""
    for _, t in module.named_state():
        t.data = t.data.astype(np.float64)
    return module


def with_bn_stats(module, rng):
    """Give every BatchNorm2d in `module` an affine and running stats far from identity."""
    for m in module.modules():
        if isinstance(m, BatchNorm2d):
            for t, lo, hi in ((m.weight, 0.5, 1.5), (m.bias, -0.3, 0.3),
                              (m.running_mean, -0.3, 0.3), (m.running_var, 0.5, 2.0)):
                t.data = rng.uniform(lo, hi, t.data.shape).astype(np.float32)
    return module


def composite_bn(bn, x):
    """BatchNorm2d without its activation, built from generic ops; in training
    the running stats are updated as the layer does."""
    c = bn.weight.shape[0]
    if bn.training:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        n = x.size // c
        m = BN_MOMENTUM
        bn.running_mean.data = ((1 - m) * bn.running_mean.data
                                + m * mu.numpy().reshape(-1)).astype(np.float32)
        bn.running_var.data = ((1 - m) * bn.running_var.data
                               + m * var.numpy().reshape(-1) * (n / (n - 1))).astype(np.float32)
    else:
        mu = bn.running_mean.reshape(1, c, 1, 1)
        var = bn.running_var.reshape(1, c, 1, 1)
    xhat = (x - mu) / ((var + BN_EPS) ** 0.5)
    return xhat * bn.weight.reshape(1, c, 1, 1) + bn.bias.reshape(1, c, 1, 1)


def eval_block_reference(block, x) -> np.ndarray:
    """An eval ConvBnAct's output from its parts, run under no_grad: the conv,
    BN's running-stat scale and shift in float32, then the activation's Tensor op."""
    bn = block.bn
    scale = bn.weight.data / (bn.running_var.data + BN_EPS) ** 0.5
    shift = bn.bias.data - bn.running_mean.data * scale
    y = block.conv(x).data * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
    return activate(Tensor(y), block.act).data


def counted_flops(module, shape):
    """FLOPs the ops credit to `module` for one no-grad forward on zeros of `shape`."""
    with no_grad(), count_flops() as count:
        y = module(Tensor(np.zeros(shape, np.float32)))
    assert count[module] == count.total
    return count.total, y


def softmax_outputs(monkeypatch) -> list:
    """Record every `Tensor.softmax` output, in call order, into the returned
    list: how a test reads SepViT's attention maps."""
    seen = []
    softmax = Tensor.softmax

    def recorded(self, *args, **kwargs):
        seen.append(softmax(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(Tensor, "softmax", recorded)
    return seen


class ScriptedClock:
    """Stands in for the `time` module that `lightdet.cli` reads to time `bench`.

    `perf_counter()` returns a counter that only `tick()` advances: by COLD
    seconds on the first tick, by STEADY seconds on every later one. A job
    that ticks once per call then costs COLD once and STEADY thereafter,
    whatever the host is doing. Both costs are powers of two, so sums and
    differences of clock readings are exact.
    """

    COLD = 2.0 ** -4    # 62.5 ms
    STEADY = 2.0 ** -7  # 7.8125 ms

    def __init__(self):
        self.now = 0.0
        self.ticks = 0

    def perf_counter(self) -> float:
        return self.now

    def tick(self) -> None:
        self.now += self.COLD if self.ticks == 0 else self.STEADY
        self.ticks += 1


def defaulted_params(package_dir):
    """("file:line", function, parameter) for each parameter with a default
    value, over every function and method in the package's modules. Lambdas
    are left out: their defaults bind loop variables."""
    for path in sorted(pathlib.Path(package_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                for arg in named:
                    yield f"{path.name}:{node.lineno}", node.name, arg.arg
