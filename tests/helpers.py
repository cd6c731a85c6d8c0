import ast
import pathlib

import numpy as np

from lightdet.nn import BatchNorm2d
from lightdet.tensor import Tensor, count_flops, no_grad


def cast_f64(module):
    """Promote a module's params and buffers so grad_check runs in float64."""
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    for _, b in module.named_buffers():
        b.data = b.data.astype(np.float64)
    return module


def with_bn_stats(module, rng):
    """Give every BatchNorm2d in `module` an affine and running stats far from identity."""
    for m in module.modules():
        if isinstance(m, BatchNorm2d):
            for t, lo, hi in ((m.weight, 0.5, 1.5), (m.bias, -0.3, 0.3),
                              (m.running_mean, -0.3, 0.3), (m.running_var, 0.5, 2.0)):
                t.data = rng.uniform(lo, hi, t.data.shape).astype(np.float32)
    return module


def counted_flops(module, shape):
    """FLOPs the ops credit to `module` for one no-grad forward on zeros of `shape`."""
    with no_grad(), count_flops() as count:
        y = module(Tensor(np.zeros(shape, np.float32)))
    assert count[module] == count.total
    return count.total, y


class ScriptedClock:
    """Stands in for the `time` module that `lightdet.metrics` reads.

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


def count_defaulted_params(package_dir) -> int:
    """Parameters with a default value, over every function and method in the
    package's modules. Lambdas are left out: their defaults bind loop variables."""
    total = 0
    for path in sorted(pathlib.Path(package_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                total += len(node.args.defaults)
                total += sum(d is not None for d in node.args.kw_defaults)
    return total
