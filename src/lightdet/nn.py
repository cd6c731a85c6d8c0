"""Layer zoo: modules with parameters and norms, and the blocks the graphs are
built from. C3 over Bottlenecks is the one cross-stage block:
plain in the trunk and the baseline neck, separable (DSSConv) and GAM-gated in
the light neck.

Parameter counts come from the live tensors, and FLOPs are counted by the ops
themselves (`tensor.count_flops`), so the reported numbers can never drift from
the built model.
"""
from __future__ import annotations

import math

import numpy as np

from . import tensor as _tensor
from .tensor import ACT_PAIRS, Tensor, batch_norm, concat, conv2d, max_pool2d, upsample_nearest2x


def make_divisible(x: float) -> int:
    return max(8, int(math.ceil(x / 8) * 8))


def autopad(k: int) -> int:
    return k // 2


# ---- module base ----


class Module:
    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        count = _tensor._flops
        if count is None:
            return self.forward(*args, **kwargs)
        # inside count_flops(): credit this module with the FLOPs spent in the call
        before = count.total
        out = self.forward(*args, **kwargs)
        count[self] = count.get(self, 0) + count.total - before
        return out

    def _members(self):
        """Public attributes in definition order; a list `m` gives `m.0`, `m.1`, ..."""
        for name, value in vars(self).items():
            if name.startswith("_") or name == "training":
                continue
            if isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    yield f"{name}.{i}", item
            else:
                yield name, value

    def _named_tensors(self, prefix: str = ""):
        for name, value in self._members():
            if isinstance(value, Module):
                yield from value._named_tensors(f"{prefix}{name}.")
            elif isinstance(value, Tensor):
                yield prefix + name, value

    def named_parameters(self):
        """The tensors that train: those that require grad."""
        return ((n, t) for n, t in self._named_tensors() if t.requires_grad)

    def named_buffers(self):
        """The tensors that do not train, such as BatchNorm's running stats."""
        return ((n, t) for n, t in self._named_tensors() if not t.requires_grad)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_state(self):
        """Parameters plus buffers: everything a checkpoint must carry."""
        yield from self.named_parameters()
        yield from self.named_buffers()

    def named_children(self):
        return ((name, v) for name, v in self._members() if isinstance(v, Module))

    def modules(self):
        yield self
        for _, child in self.named_children():
            yield from child.modules()

    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


# ---- parameterized layers ----


def _he_weight(rng: np.random.Generator, cout: int, cin_per_group: int, k: int) -> Tensor:
    fan_in = cin_per_group * k * k
    w = rng.standard_normal((cout, cin_per_group, k, k)) * math.sqrt(2.0 / fan_in)
    return Tensor(w.astype(np.float32), requires_grad=True)


class Conv2d(Module):
    def __init__(self, c1: int, c2: int, k: int = 1, s: int = 1, p: int | None = None,
                 g: int = 1, bias: bool = True, *, rng: np.random.Generator):
        super().__init__()
        if c1 % g or c2 % g:
            raise ValueError("channels must divide groups")
        self.s, self.g = s, g
        self.p = autopad(k) if p is None else p
        self.weight = _he_weight(rng, c2, c1 // g, k)
        self.bias = Tensor(np.zeros(c2, np.float32), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.s, padding=self.p, groups=self.g)


class BatchNorm2d(Module):
    def __init__(self, c: int):
        super().__init__()
        self.weight = Tensor(np.ones(c, np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(c, np.float32), requires_grad=True)
        self.running_mean = Tensor(np.zeros(c, np.float32))
        self.running_var = Tensor(np.ones(c, np.float32))

    def forward(self, x: Tensor, act: str) -> Tensor:
        """BN, then the activation `act` of ACT_PAIRS, in place in x's buffer, so
        x must be a fresh array that nothing else reads (a conv's output). In
        training this is `tensor.batch_norm`'s node, and the running stats take
        in the batch's. In eval it is the running-stat scale and shift, then the
        activation, with no node: an input that requires grad is refused."""
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects NCHW")
        if not self.training:
            if x.requires_grad:
                raise ValueError("BatchNorm2d in eval has no backward: run it under no_grad()")
            std = (self.running_var.data + _tensor.BN_EPS) ** 0.5
            scale = self.weight.data / std
            shift = self.bias.data - self.running_mean.data * scale
            x.data *= scale.reshape(1, -1, 1, 1)
            x.data += shift.reshape(1, -1, 1, 1)
            ACT_PAIRS[act][0](x.data, x.data)
            return x
        y, mu, var = batch_norm(x, self.weight, self.bias, act)
        n = x.size // x.shape[1]
        with np.errstate(all="ignore"):
            unbiased = var * (n / max(n - 1, 1))
        m = _tensor.BN_MOMENTUM
        self.running_mean.data = ((1 - m) * self.running_mean.data + m * mu).astype(np.float32)
        self.running_var.data = ((1 - m) * self.running_var.data + m * unbiased).astype(np.float32)
        return y


class LayerNorm(Module):
    """Normalizes the last axis; optional affine."""

    def __init__(self, d: int, affine: bool = True):
        super().__init__()
        self.eps, self.affine = 1e-5, affine
        if affine:
            self.weight = Tensor(np.ones(d, np.float32), requires_grad=True)
            self.bias = Tensor(np.zeros(d, np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        xhat = (x - mu) / ((var + self.eps) ** 0.5)
        if self.affine:
            return xhat * self.weight + self.bias
        return xhat


class Linear(Module):
    def __init__(self, cin: int, cout: int, bias: bool = True, *, rng: np.random.Generator):
        super().__init__()
        w = rng.standard_normal((cin, cout)) * math.sqrt(1.0 / cin)
        self.weight = Tensor(w.astype(np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, np.float32), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        return out + self.bias if self.bias is not None else out


class ConvBnAct(Module):
    """Conv -> BN -> activation, the detector's standard building block.

    `act` names the activation in `tensor.ACT_PAIRS`. BN and the activation run
    in place on the conv's fresh output (`BatchNorm2d.forward`). In training a
    block is two graph nodes, the conv and one BN+activation node, and keeps
    two arrays of its output's size for backward: the normalised input and the
    activation's output. In eval, under `no_grad()`, it makes no node beyond
    the conv and no array beyond the conv's output.
    """

    def __init__(self, c1: int, c2: int, k: int = 1, s: int = 1, p: int | None = None,
                 g: int = 1, *, act: str, rng: np.random.Generator):
        super().__init__()
        if act not in ACT_PAIRS:
            raise ValueError(f"unknown activation {act!r}; choose from {sorted(ACT_PAIRS)}")
        self.conv = Conv2d(c1, c2, k, s, p, g, bias=False, rng=rng)
        self.bn = BatchNorm2d(c2)
        self.act = act

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(self.conv(x), self.act)


class DSSConv(Module):
    """Depthwise 3x3 then pointwise 1x1, each BN+act, both at width c."""

    def __init__(self, c: int, s: int = 1, *, act: str, rng: np.random.Generator):
        super().__init__()
        self.dw = ConvBnAct(c, c, 3, s, g=c, act=act, rng=rng)
        self.pw = ConvBnAct(c, c, 1, act=act, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.pw(self.dw(x))


# ---- structural blocks shared by both models ----


class Bottleneck(Module):
    """1x1 conv -> 3x3 conv (a DSSConv when `separable`), both at width c, then
    the optional gate module, then the optional residual."""

    def __init__(self, c: int, shortcut: bool, act: str, separable: bool,
                 attention: Module | None, rng: np.random.Generator):
        super().__init__()
        self.cv1 = ConvBnAct(c, c, 1, act=act, rng=rng)
        self.cv2 = (DSSConv(c, act=act, rng=rng) if separable
                    else ConvBnAct(c, c, 3, act=act, rng=rng))
        self.attn = attention
        self.add = shortcut

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv2(self.cv1(x))
        if self.attn is not None:
            y = self.attn(y)
        return x + y if self.add else y


class C3(Module):
    """Cross-stage block: two half-width 1x1 branches, n bottlenecks on one, concat, fuse."""

    def __init__(self, c1: int, c2: int, n: int = 1, shortcut: bool = True,
                 separable: bool = False, attentions: list[Module | None] | None = None,
                 *, act: str, rng: np.random.Generator):
        super().__init__()
        ch = c2 // 2
        attns = attentions or [None] * n
        if len(attns) != n:
            raise ValueError("one attention slot per bottleneck")
        self.cv1 = ConvBnAct(c1, ch, 1, act=act, rng=rng)
        self.cv2 = ConvBnAct(c1, ch, 1, act=act, rng=rng)
        self.m = [Bottleneck(ch, shortcut, act, separable, a, rng) for a in attns]
        self.cv3 = ConvBnAct(2 * ch, c2, 1, act=act, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv1(x)
        for b in self.m:
            y = b(y)
        return self.cv3(concat([y, self.cv2(x)], axis=1))


SPPF_POOL = 5  # side of SPPF's max-pools


class SPPF(Module):
    """Spatial pyramid pooling, fast variant: three chained pools, concat, fuse."""

    def __init__(self, c: int, act: str, rng: np.random.Generator):
        super().__init__()
        ch = c // 2
        self.cv1 = ConvBnAct(c, ch, 1, act=act, rng=rng)
        self.cv2 = ConvBnAct(ch * 4, c, 1, act=act, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv1(x)
        p1 = max_pool2d(y, SPPF_POOL, 1, padding=SPPF_POOL // 2)
        p2 = max_pool2d(p1, SPPF_POOL, 1, padding=SPPF_POOL // 2)
        p3 = max_pool2d(p2, SPPF_POOL, 1, padding=SPPF_POOL // 2)
        return self.cv2(concat([y, p1, p2, p3], axis=1))


class Upsample2x(Module):
    def forward(self, x: Tensor) -> Tensor:
        return upsample_nearest2x(x)


class Concat(Module):
    def forward(self, xs: list[Tensor]) -> Tensor:
        return concat(xs, axis=1)
