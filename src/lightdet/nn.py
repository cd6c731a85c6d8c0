"""Layer zoo: modules with parameters, activations and norms, and the blocks
the graphs are built from. C3 over Bottlenecks is the one cross-stage block:
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
from .tensor import Tensor, batch_norm, concat, conv2d, max_pool2d, mish, upsample_nearest2x


def make_divisible(x: float) -> int:
    return max(8, int(math.ceil(x / 8) * 8))


def autopad(k: int) -> int:
    return k // 2


# ---- activations ----


def hswish(x: Tensor) -> Tensor:
    return x * (x + 3.0).clamp(0.0, 6.0) * (1.0 / 6.0)


ACTIVATIONS = {
    "leakyrelu": lambda x: x.leaky_relu(0.01),
    "hswish": hswish,
    "mish": mish,
    "gelu": lambda x: x.gelu(),
    "relu": lambda x: x.relu(),
}


def activation(name: str):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}") from None


# ---- module base ----


class Module:
    def __init__(self):
        self.training = True
        self._buffer_names: set[str] = set()

    def register_buffer(self, name: str, value: Tensor) -> None:
        setattr(self, name, value)
        self._buffer_names.add(name)

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

    def named_parameters(self, prefix: str = ""):
        for name, value in self._members():
            if isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{name}.")
            elif (isinstance(value, Tensor) and value.requires_grad
                  and name not in self._buffer_names):
                yield prefix + name, value

    def named_buffers(self, prefix: str = ""):
        for name, value in self._members():
            if isinstance(value, Module):
                yield from value.named_buffers(f"{prefix}{name}.")
            elif name in self._buffer_names:
                yield prefix + name, value

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
                 g: int = 1, bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if c1 % g or c2 % g:
            raise ValueError("channels must divide groups")
        self.c1, self.c2, self.k, self.s, self.g = c1, c2, k, s, g
        self.p = autopad(k) if p is None else p
        self.weight = _he_weight(rng, c2, c1 // g, k)
        self.bias = Tensor(np.zeros(c2, np.float32), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.s, padding=self.p, groups=self.g)


class BatchNorm2d(Module):
    def __init__(self, c: int):
        super().__init__()
        self.c = c
        self.weight = Tensor(np.ones(c, np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(c, np.float32), requires_grad=True)
        self.register_buffer("running_mean", Tensor(np.zeros(c, np.float32)))
        self.register_buffer("running_var", Tensor(np.ones(c, np.float32)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError("BatchNorm2d expects NCHW")
        if not self.training:
            return batch_norm(x, self.weight, self.bias, self.running_mean.data,
                              self.running_var.data)[0]
        y, mu, var = batch_norm(x, self.weight, self.bias)
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
        self.d, self.eps, self.affine = d, 1e-5, affine
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
    def __init__(self, cin: int, cout: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cin, self.cout = cin, cout
        w = rng.standard_normal((cin, cout)) * math.sqrt(1.0 / cin)
        self.weight = Tensor(w.astype(np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(cout, np.float32), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        return out + self.bias if self.bias is not None else out


class ConvBnAct(Module):
    """Conv -> BN -> activation, the detector's standard building block.

    In eval without gradients, BN's running-stat affine and Mish run in place on
    the conv's fresh output: no BN array, no BN or Mish node. Each element takes
    the float32 steps of act(bn(conv(x))) in order, so the output is bit-identical.
    """

    def __init__(self, c1: int, c2: int, k: int = 1, s: int = 1, p: int | None = None,
                 g: int = 1, act: str = "mish", rng: np.random.Generator | None = None):
        super().__init__()
        self.conv = Conv2d(c1, c2, k, s, p, g, bias=False, rng=rng)
        self.bn = BatchNorm2d(c2)
        self.act = activation(act)

    def forward(self, x: Tensor) -> Tensor:
        if self.training or _tensor._grad_enabled:
            return self.act(self.bn(self.conv(x)))
        y, bn = self.conv(x), self.bn
        _, scale, shift = _tensor.bn_eval_affine(bn.weight.data, bn.bias.data,
                                                 bn.running_mean.data, bn.running_var.data)
        y.data *= scale.reshape(1, -1, 1, 1)
        y.data += shift.reshape(1, -1, 1, 1)
        if self.act is not mish:
            return self.act(y)
        np.multiply(y.data, _tensor._mish_parts(y.data)[1], out=y.data)
        return y


def channel_shuffle(x: Tensor, groups: int = 2) -> Tensor:
    """Interleave channel groups; a pure permutation, hence exactly invertible."""
    n, c, h, w = x.shape
    if c % groups:
        raise ValueError(f"channel_shuffle: {c} channels not divisible by {groups} groups")
    y = x.reshape(n, groups, c // groups, h, w)
    y = y.transpose(0, 2, 1, 3, 4)
    return y.reshape(n, c, h, w)


class DSSConv(Module):
    """Depthwise 3x3 then pointwise 1x1 (each BN+act), finished by a 2-group shuffle."""

    def __init__(self, c1: int, c2: int, s: int = 1, act: str = "mish",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if c2 % 2:
            raise ValueError("output channels must be even for the channel shuffle")
        self.dw = ConvBnAct(c1, c1, 3, s, g=c1, act=act, rng=rng)
        self.pw = ConvBnAct(c1, c2, 1, act=act, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return channel_shuffle(self.pw(self.dw(x)), 2)


# ---- structural blocks shared by both models ----


class Bottleneck(Module):
    """1x1 conv -> 3x3 conv at the output width (a DSSConv when `separable`),
    then the optional gate module, then the optional residual."""

    def __init__(self, c1: int, c2: int, shortcut: bool = True, act: str = "mish",
                 separable: bool = False, attention: Module | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.cv1 = ConvBnAct(c1, c2, 1, act=act, rng=rng)
        self.cv2 = (DSSConv(c2, c2, act=act, rng=rng) if separable
                    else ConvBnAct(c2, c2, 3, act=act, rng=rng))
        self.attn = attention
        self.add = shortcut and c1 == c2

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv2(self.cv1(x))
        if self.attn is not None:
            y = self.attn(y)
        return x + y if self.add else y


class C3(Module):
    """Cross-stage block: two half-width 1x1 branches, n bottlenecks on one, concat, fuse."""

    def __init__(self, c1: int, c2: int, n: int = 1, shortcut: bool = True,
                 act: str = "mish", separable: bool = False,
                 attentions: list[Module | None] | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        ch = c2 // 2
        attns = attentions or [None] * n
        if len(attns) != n:
            raise ValueError("one attention slot per bottleneck")
        self.cv1 = ConvBnAct(c1, ch, 1, act=act, rng=rng)
        self.cv2 = ConvBnAct(c1, ch, 1, act=act, rng=rng)
        self.m = [Bottleneck(ch, ch, shortcut, act=act, separable=separable, attention=a,
                             rng=rng) for a in attns]
        self.cv3 = ConvBnAct(2 * ch, c2, 1, act=act, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv1(x)
        for b in self.m:
            y = b(y)
        return self.cv3(concat([y, self.cv2(x)], axis=1))


class SPPF(Module):
    """Spatial pyramid pooling, fast variant: three chained k-pools, concat, fuse."""

    def __init__(self, c1: int, c2: int, k: int = 5, act: str = "mish",
                 rng: np.random.Generator | None = None):
        super().__init__()
        ch = c1 // 2
        self.cv1 = ConvBnAct(c1, ch, 1, act=act, rng=rng)
        self.cv2 = ConvBnAct(ch * 4, c2, 1, act=act, rng=rng)
        self.k = k

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv1(x)
        p1 = max_pool2d(y, self.k, 1, padding=self.k // 2)
        p2 = max_pool2d(p1, self.k, 1, padding=self.k // 2)
        p3 = max_pool2d(p2, self.k, 1, padding=self.k // 2)
        return self.cv2(concat([y, p1, p2, p3], axis=1))


class Upsample2x(Module):
    def forward(self, x: Tensor) -> Tensor:
        return upsample_nearest2x(x)


class Concat(Module):
    def forward(self, xs: list[Tensor]) -> Tensor:
        return concat(xs, axis=1)
