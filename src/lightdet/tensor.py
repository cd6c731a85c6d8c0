"""Reverse-mode autodiff over numpy arrays.

Small closure-based tape: every op returns a new Tensor holding references to its
parents and a _backward closure that scatters the output gradient, passed in as
its argument, back to them. One-input ops build their node through _unary and
elementwise two-input ops through _binary. A closure never refers to its own
output, so a graph holds no reference cycles and is freed as soon as its last
reference goes.
backward() walks the DAG once in reverse topological order. Arrays are float32 by
default; float64 is used by grad_check. No views are mutated in place after they
enter a graph.
"""
from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

_FLOATS = (np.float32, np.float64)
_grad_enabled = True
_flops: "FlopCount | None" = None  # set only inside count_flops()


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class FlopCount(dict):
    """FLOPs spent so far in `total`; as a dict, the share each Module claimed."""

    total = 0


@contextlib.contextmanager
def count_flops():
    """Count the FLOPs of every conv2d and matmul run inside the block.

    One multiply-accumulate is 2 FLOPs: conv2d costs 2*|W|*Ho*Wo per image and
    matmul 2*K per output element. Nothing else is counted: bias, norms,
    activations, pooling, resizing and reshapes are free by convention.
    """
    global _flops
    prev = _flops
    _flops = FlopCount()
    try:
        yield _flops
    finally:
        _flops = prev


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in _FLOATS:
        arr = arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # reduce a broadcast gradient back to the parent shape
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
        self._op = ""

    # ---- plumbing ----

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flag})"

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() needs a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output, got shape %r" % (self.shape,))
        order = toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None  # propagated; only leaves keep a gradient

    # ---- arithmetic ----

    def __add__(self, other):
        return _binary(self, other, np.add, lambda a, b, g: (g, g), "add")

    __radd__ = __add__

    def __mul__(self, other):
        return _binary(self, other, np.multiply,
                       lambda a, b, g: (g * b, g * a), "mul")

    __rmul__ = __mul__

    def __sub__(self, other):
        return _binary(self, other, np.subtract, lambda a, b, g: (g, -g), "sub")

    def __rsub__(self, other):
        return _binary(_wrap(other, self.dtype), self, np.subtract,
                       lambda a, b, g: (g, -g), "sub")

    def __truediv__(self, other):
        return _binary(self, other, np.divide,
                       lambda a, b, g: (g / b, -g * a / (b * b)), "div")

    def __rtruediv__(self, other):
        return _binary(_wrap(other, self.dtype), self, np.divide,
                       lambda a, b, g: (g / b, -g * a / (b * b)), "div")

    def __neg__(self):
        return _unary(self, -self.data, "neg", lambda g: -g)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        return _unary(self, a ** p, "pow", lambda g: g * p * a ** (p - 1))

    def __matmul__(self, other):
        other = _wrap(other, self.dtype)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul needs 2-D or batched operands")
        out = _node(self.data @ other.data, (self, other), "matmul")
        if _flops is not None:
            _flops.total += 2 * out.data.size * self.shape[-1]
        if out.requires_grad:
            a, b = self.data, other.data

            def _bw(g):
                _accum(self, _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
                _accum(other, _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))

            out._backward = _bw
        return out

    # ---- reductions ----

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.data.shape

        def grad_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).copy()

        return _unary(self, self.data.sum(axis=axis, keepdims=keepdims), "sum", grad_fn)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ---- elementwise ----

    def exp(self):
        y = np.exp(self.data)
        return _unary(self, y, "exp", lambda g: g * y)

    def sqrt(self):
        y = np.sqrt(self.data)
        return _unary(self, y, "sqrt", lambda g: g * 0.5 / y)

    def abs(self):
        a = self.data
        return _unary(self, np.abs(a), "abs", lambda g: g * np.sign(a))

    def tanh(self):
        y = np.tanh(self.data)
        return _unary(self, y, "tanh", lambda g: g * (1.0 - y * y))

    def sigmoid(self):
        y = _sigmoid(self.data)
        return _unary(self, y, "sigmoid", lambda g: g * y * (1.0 - y))

    def softplus(self):
        # log(1 + e^x) = max(x, 0) + log1p(e^-|x|), several times faster than np.logaddexp
        x = self.data
        y = _exp_neg_abs(x)
        np.log1p(y, out=y)
        y += np.maximum(x, 0.0)
        return _unary(self, y, "softplus", lambda g: g * _sigmoid(x))

    def sin(self):
        a = self.data
        return _unary(self, np.sin(a), "sin", lambda g: g * np.cos(a))

    def arcsin(self):
        a = self.data
        return _unary(self, np.arcsin(a), "arcsin", lambda g: g / np.sqrt(1.0 - a * a))

    def arctan(self):
        a = self.data
        return _unary(self, np.arctan(a), "arctan", lambda g: g / (1.0 + a * a))

    def clamp(self, lo=None, hi=None):
        a = self.data

        def grad_fn(g):
            mask = np.ones_like(a)
            if lo is not None:
                mask = mask * (a >= lo)
            if hi is not None:
                mask = mask * (a <= hi)
            return g * mask

        return _unary(self, np.clip(a, lo, hi), "clamp", grad_fn)

    def leaky_relu(self, slope: float = 0.01):
        if not 0 < slope <= 1:  # the slopes for which max(a, slope * a) is leaky relu
            raise ValueError(f"leaky_relu: slope {slope} is outside (0, 1]")
        a = self.data
        return _unary(self, np.maximum(a, slope * a), "leaky_relu",
                      lambda g: g * np.maximum(a > 0, slope, dtype=a.dtype))

    def relu(self):
        a = self.data  # max(a, 0), not max(a, 0 * a): 0 * inf is NaN
        return _unary(self, np.maximum(a, 0), "relu", lambda g: g * (a > 0))

    def gelu(self):
        # tanh form; derivative matches this exact forward expression
        x = self.data
        c = float(np.sqrt(2.0 / np.pi))
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)

        def grad_fn(g):
            dinner = c * (1.0 + 3 * 0.044715 * x * x)
            d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            return g * d.astype(x.dtype)

        return _unary(self, (0.5 * x * (1.0 + t)).astype(x.dtype), "gelu", grad_fn)

    def maximum(self, other):
        return _binary(self, other, np.maximum,
                       lambda a, b, g: (g * (a >= b), g * (a < b)), "maximum")

    def minimum(self, other):
        return _binary(self, other, np.minimum,
                       lambda a, b, g: (g * (a <= b), g * (a > b)), "minimum")

    # ---- shape ----

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.data.shape
        return _unary(self, self.data.reshape(shape), "reshape", lambda g: g.reshape(src))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return _unary(self, self.data.transpose(axes), "transpose",
                      lambda g: g.transpose(np.argsort(axes)))

    def swapaxes(self, a: int, b: int):
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, idx):
        shape, dtype = self.data.shape, self.data.dtype

        def grad_fn(g):
            gx = np.zeros(shape, dtype=dtype)
            np.add.at(gx, idx, g)
            return gx

        return _unary(self, self.data[idx], "slice", grad_fn)

    def softmax(self, axis: int = -1):
        x = self.data
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        s = (e / e.sum(axis=axis, keepdims=True)).astype(x.dtype)
        return _unary(self, s, "softmax",
                      lambda g: s * (g - (g * s).sum(axis=axis, keepdims=True)))


# ---- free functions ----


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    # e^-|x| lies in (0, 1], so it never overflows; a fresh array the caller may reuse
    z = np.abs(x)
    np.negative(z, out=z)
    return np.exp(z, out=z)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, with e^-|x| taken once
    z = _exp_neg_abs(x)
    return np.maximum(z, x >= 0) / (1.0 + z)  # z <= 1, so the max is 1 for x >= 0


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _node(data: np.ndarray, parents: tuple, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(p for p in parents if p.requires_grad or p._prev)
    else:
        out.requires_grad = False
        out._prev = ()
    out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad and not t._prev:
        return
    if t.grad is None:
        t.grad = g.copy() if g.base is not None or g is t.data else g
    else:
        t.grad = t.grad + g


def _unary(x: Tensor, data: np.ndarray, op: str,
           grad_fn: Callable[[np.ndarray], np.ndarray]) -> Tensor:
    """The node of a one-input op; its backward adds grad_fn(output grad) to x."""
    out = _node(data, (x,), op)
    if out.requires_grad:
        out._backward = lambda g: _accum(x, grad_fn(g))
    return out


def _binary(a, b, fwd, bwd, op: str) -> Tensor:
    if not isinstance(a, Tensor):
        a = _wrap(a, b.dtype)
    b = _wrap(b, a.dtype)
    dt = np.result_type(a.data.dtype, b.data.dtype)
    ad = a.data.astype(dt, copy=False)
    bd = b.data.astype(dt, copy=False)
    out = _node(fwd(ad, bd), (a, b), op)
    if out.requires_grad:
        def _bw(grad):
            ga, gb = bwd(ad, bd, grad)
            _accum(a, _unbroadcast(np.asarray(ga, dtype=dt), a.data.shape).astype(a.data.dtype, copy=False))
            _accum(b, _unbroadcast(np.asarray(gb, dtype=dt), b.data.shape).astype(b.data.dtype, copy=False))
        out._backward = _bw
    return out


def _axis_size(shape, axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    n = 1
    for ax in axis:
        n *= shape[ax]
    return n


def toposort(root: Tensor) -> list[Tensor]:
    """Parents before children; the DAG is acyclic by construction."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]

        def _bw(grad):
            splits = np.cumsum(sizes)[:-1]
            for t, g in zip(tensors, np.split(grad, splits, axis=axis)):
                _accum(t, g)

        out._backward = _bw
    return out


# ---- fused layers: one graph node each, closed-form backward ----


def _mish_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e = exp(x) and t = tanh(softplus(x)) = n/(n+2), where n = e(e+2).

    x is clipped to [-80, 20] first. Above 20, t is 1 to float64 precision;
    below -80, mish(x) is under 1e-33 in size, and exp(x) would fall into
    float32's subnormal range.
    """
    e = np.clip(x, -80.0, 20.0)
    np.exp(e, out=e)
    n = e + 2.0
    n *= e
    t = n + 2.0
    return e, np.divide(n, t, out=t)


def mish(x: Tensor) -> Tensor:
    """x * tanh(softplus(x)); backward recomputes its parts from x and keeps nothing."""
    xd = x.data
    _, y = _mish_parts(xd)
    y *= xd

    def grad_fn(grad):
        # d/dx = t + x (1 - t^2) sigmoid(x), and sigmoid(x) = e/(1+e)
        e, t = _mish_parts(xd)
        sig = e + 1.0
        np.divide(e, sig, out=sig)
        g = np.multiply(t, t, out=e)
        np.subtract(1.0, g, out=g)
        g *= xd
        g *= sig
        g += t
        g *= grad
        return g

    return _unary(x, y, "mish", grad_fn)


BN_EPS = 1e-5  # added to every BatchNorm variance, in training and eval
BN_MOMENTUM = 0.03  # weight of each training batch in BatchNorm2d's running stats


def bn_eval_affine(w: np.ndarray, b: np.ndarray, mean: np.ndarray, var: np.ndarray):
    """Eval BatchNorm as x * scale + shift per channel: 1-D (std, scale, shift)."""
    std = (var + BN_EPS) ** 0.5
    scale = w / std
    return std, scale, b - mean * scale


def batch_norm(x: Tensor, weight: Tensor, bias: Tensor, mean: np.ndarray | None = None,
               var: np.ndarray | None = None):
    """Normalise NCHW `x` per channel, then scale by `weight` and shift by `bias`.

    Without `mean` and `var` (training), the statistics are the batch's own over
    (N, H, W), with the biased variance, and backward keeps only the normalised
    input. Given them (eval), each element costs one multiply-add. Returns
    (out, mean, var), the statistics as 1-D per-channel arrays.
    """
    xd, w = x.data, weight.data
    cshape = (1, xd.shape[1], 1, 1)
    axes = (0, 2, 3)
    inv_n = 1.0 / (xd.size // xd.shape[1])
    if mean is None:
        mean = xd.sum(axis=axes) * inv_n
        xhat = xd - mean.reshape(cshape)
        y = np.square(xhat)
        var = y.sum(axis=axes) * inv_n
        std = (var + BN_EPS) ** 0.5
        xhat /= std.reshape(cshape)
        np.multiply(xhat, w.reshape(cshape), out=y)
        y += bias.data.reshape(cshape)
    else:
        std, scale, shift = bn_eval_affine(w, bias.data, mean, var)
        y = xd * scale.reshape(cshape)
        y += shift.reshape(cshape)
        xhat = None
    out = _node(y, (x, weight, bias), "batch_norm")
    if out.requires_grad:
        train = xhat is not None

        def _bw(g):
            xh = xhat if train else (xd - mean.reshape(cshape)) / std.reshape(cshape)
            scale = (w / std).reshape(cshape)
            gb = g.sum(axis=axes)
            gx = g * xh
            gw = gx.sum(axis=axes)
            _accum(bias, gb.astype(bias.data.dtype, copy=False))
            _accum(weight, gw.astype(w.dtype, copy=False))
            if train:
                # dx = (w/std) * (g - mean(g) - xhat * mean(g * xhat))
                np.multiply(xh, (gw * inv_n).reshape(cshape), out=gx)
                np.subtract(g, gx, out=gx)
                gx -= (gb * inv_n).reshape(cshape)
                gx *= scale
            else:
                np.multiply(g, scale, out=gx)
            _accum(x, gx.astype(xd.dtype, copy=False))

        out._backward = _bw
    return out, mean, var


# ---- spatial primitives (NCHW) ----


def _pad2d(xd: np.ndarray, p: int, value: float = 0.0) -> np.ndarray:
    return np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=value) if p else xd


def _tap_slices(kh: int, kw: int, ho: int, wo: int, stride: int) -> list[tuple]:
    """Index of each kernel tap's (ho, wo) window into a padded map, in (i, j) order."""
    return [(Ellipsis, slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride))
            for i in range(kh) for j in range(kw)]


def _phase_slices(h: int, wd: int, padding: int, s: int, h2: int, w2: int) -> list[tuple]:
    """(x index, phase grid index) pairs that move x into its zero-padded s*s phase
    grid (n, c, s, s, h2 + 1, w2), where phase (a, b) at (u, v) is padded pixel
    (a + s*u, b + s*v); x pixels no tap reads fall outside the grid."""
    def axis(size, a, n):  # the u < n whose padded index a + s*u lies inside x
        u0 = max(0, -((a - padding) // s))
        u1 = max(u0, min(n, (size - 1 + padding - a) // s + 1))
        return slice(a + s * u0 - padding, a + s * u1 - padding, s), slice(u0, u1)
    return [((Ellipsis, rows, cols), (Ellipsis, a, b, us, vs))
            for a in range(s) for rows, us in [axis(h, a, h2)]
            for b in range(s) for cols, vs in [axis(wd, b, w2)]]


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1,
           padding: int = 0, groups: int = 1) -> Tensor:
    """Cross-correlation, the deep-learning convention. w: (Cout, Cin/groups, kh, kw).

    One rule on the shapes picks how the contraction runs, and every path is a
    matmul, one per group:
    - 1x1 at stride 1: the input already is the column matrix, W @ X. Backward
      keeps X, which is x.data when unpadded.
    - output side smaller (Cout*Hp*Wp < Cin*Ho*Wo, e.g. a 7x7 conv down to a
      few channels): contract channels first, one (k*k*Cout, Cin) @ (Cin, Hp*Wp)
      matmul, then shift-add the k*k tap outputs. Backward keeps the padded input.
    - otherwise im2col: gather the k*k taps into columns, W @ cols. A depthwise
      conv (groups == Cin == Cout) lands here as one (1, k*k) @ (k*k, Ho*Wo)
      matmul per channel. The columns are one copy of a strided view of the
      padded input, freed after the matmul. Backward keeps only x.data: the
      weight gradient gathers one image's columns at a time and sums the
      images in order; the input gradient takes W^T @ g over a wide (Ho, W2)
      grid, so that each tap's share is one contiguous slice of a phase of
      x's zero-padded s*s phase grid, and adds them there in tap order.
    The padded input is never a graph node: the gradient goes straight to x.
    """
    n, c, h, wd = x.shape
    cout, cpg, kh, kw = w.shape
    if c != cpg * groups:
        raise ValueError(f"conv2d: {c} input channels, weight expects {cpg * groups}")
    if cout % groups:
        raise ValueError("conv2d: out channels not divisible by groups")
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError("conv2d: kernel larger than padded input")
    if _flops is not None:
        _flops.total += 2 * w.data.size * ho * wo * n

    xd, s = _pad2d(x.data, padding), stride
    dt = xd.dtype
    og, kk, npix = cout // groups, kh * kw, ho * wo
    mode = ("pointwise" if kh == kw == 1 and s == 1 else
            "output_side" if cout * hp * wp < c * npix else "im2col")
    if mode == "pointwise":
        wg = w.data.reshape(groups, og, cpg)
        cols = xd.reshape(n, groups, cpg, npix)
        out_data = np.matmul(wg, cols).reshape(n, cout, ho, wo)
    elif mode == "output_side":
        taps = _tap_slices(kh, kw, ho, wo, s)
        # (G, k*k*og, cpg): row t*og + o holds tap t of output channel o
        wg = w.data.reshape(groups, og, cpg, kk).transpose(0, 3, 1, 2).reshape(groups, kk * og, cpg)
        xg = xd.reshape(n, groups, cpg, hp * wp)
        y = np.matmul(wg, xg).reshape(n, groups, kk, og, hp, wp)
        out_data = y[:, :, 0][taps[0]].copy()
        for t in range(1, kk):
            out_data += y[:, :, t][taps[t]]
        out_data = out_data.reshape(n, cout, ho, wo)
    else:
        def windows(xp):  # (n, c, kh, kw, ho, wo) view: tap (i, j) of output o reads s*o + (i, j)
            sh, sw = xp.strides[2:]
            return np.lib.stride_tricks.as_strided(
                xp, (n, c, kh, kw, ho, wo), xp.strides[:2] + (sh, sw, s * sh, s * sw), writeable=False)

        wg = w.data.reshape(groups, og, cpg * kk)
        out_data = np.matmul(wg, windows(xd).reshape(n, groups, cpg * kk, npix))
        out_data = out_data.reshape(n, cout, ho, wo)
    if b is not None:
        out_data += b.data.reshape(1, cout, 1, 1)

    out = _node(out_data, (x, w) if b is None else (x, w, b), "conv2d")
    if out.requires_grad:
        def _bw(grad):
            need_w = w.requires_grad or w._prev
            need_x = x.requires_grad or x._prev
            if b is not None and (b.requires_grad or b._prev):
                _accum(b, grad.sum(axis=(0, 2, 3)))
            gxp = None
            if mode == "output_side":
                # scatter each output pixel back to where every tap read it
                gy = np.zeros((n, groups, kk, og, hp, wp), dt)
                g = grad.reshape(n, groups, og, ho, wo)
                for t, sl in enumerate(taps):
                    gy[:, :, t][sl] = g
                gy = gy.reshape(n, groups, kk * og, hp * wp)
                if need_w:
                    gw = np.matmul(gy, xg.swapaxes(-1, -2)).sum(axis=0)
                    gw = gw.reshape(groups, kk, og, cpg).transpose(0, 2, 3, 1)
                    _accum(w, gw.reshape(w.data.shape))
                if need_x:
                    gxp = np.matmul(wg.swapaxes(-1, -2), gy).reshape(n, c, hp, wp)
            else:
                g = grad.reshape(n, groups, og, npix)
                if need_w:
                    gt = g.swapaxes(-1, -2)  # cols @ g^T: up to 2x faster than g @ cols^T
                    if mode == "pointwise":
                        gw = np.matmul(cols, gt)
                    else:  # one image's columns at a time, from the input the graph holds
                        win = windows(_pad2d(x.data, padding))
                        gw = np.stack([np.matmul(win[i].reshape(groups, cpg * kk, npix), gt[i])
                                       for i in range(n)])
                    # per image, then summed over the batch in order
                    _accum(w, gw.sum(axis=0).swapaxes(-1, -2).reshape(w.data.shape))
                if need_x and mode == "pointwise":
                    gxp = np.empty((n, c, hp, wp), dt)  # fresh, so _accum keeps it uncopied
                    np.matmul(wg.swapaxes(-1, -2), g, out=gxp.reshape(n, groups, cpg, npix))
                elif need_x:
                    # g over a wide (ho, w2) grid, zero in its w2 - wo spare columns
                    h2, w2 = ho + (kh - 1) // s, wo + (kw - 1) // s
                    gwide = np.zeros((n, groups, og, ho * w2), dt)
                    gwide.reshape(n, cout, ho, w2)[..., :wo] = grad
                    # one output per group (depthwise): each entry is a single product
                    gcols = (wg.reshape(groups, cpg * kk, 1) * gwide if og == 1
                             else np.matmul(wg.swapaxes(-1, -2), gwide)).reshape(n, c, kk, ho * w2)
                    # one spare row: the last tap's wide slice runs past row h2
                    ggrid = np.zeros((n, c, s, s, h2 + 1, w2), dt)
                    flat = ggrid.reshape(n, c, s, s, -1)
                    for t, (i, j) in enumerate(np.ndindex(kh, kw)):
                        o = i // s * w2 + j // s
                        flat[:, :, i % s, j % s, o:o + ho * w2] += gcols[:, :, t]
                    gx = np.zeros_like(x.data)
                    for xs, gs in _phase_slices(h, wd, padding, s, h2, w2):
                        gx[xs] = ggrid[gs]
                    _accum(x, gx)
            if gxp is not None:
                _accum(x, gxp[:, :, padding:hp - padding, padding:wp - padding] if padding else gxp)

        out._backward = _bw
    return out


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max over k*k windows padded with -inf: a running max over the k column taps
    of each row, then over k rows. A NaN in a window gives NaN. Backward keeps the
    padded input and gives each output's gradient to the first tap in (i, j)
    order whose value equals the output, so a tie sends it all to one tap.
    """
    stride = stride or kernel
    xd = _pad2d(x.data, padding, -np.inf)
    hp, wp = xd.shape[2:]
    ho = (hp - kernel) // stride + 1
    wo = (wp - kernel) // stride + 1
    # np.maximum returns its second operand on a tie, so the running max goes
    # second: an earlier tap keeps a tie, and -0.0 vs 0.0 resolves as a scan would
    rows = xd[..., 0:stride * wo:stride].copy()
    for j in range(1, kernel):
        np.maximum(xd[..., j:j + stride * wo:stride], rows, out=rows)
    out_data = rows[..., 0:stride * ho:stride, :].copy()
    for i in range(1, kernel):
        np.maximum(rows[..., i:i + stride * ho:stride, :], out_data, out=out_data)

    def grad_fn(grad):
        gx = np.zeros_like(xd)
        free = np.ones(out_data.shape, dtype=bool)  # outputs whose tap is still unfound
        for sl in _tap_slices(kernel, kernel, ho, wo, stride):
            hit = xd[sl] == out_data
            hit &= free
            free ^= hit
            gx[sl] += grad * hit
        return gx[:, :, padding:hp - padding, padding:wp - padding] if padding else gx

    return _unary(x, out_data, "max_pool2d", grad_fn)


def upsample_nearest2x(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    return _unary(x, np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3), "up2x",
                  lambda g: g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))


# ---- gradient checking ----


FD_STEP = 1e-4  # grad_check's finite-difference step
KINK_RTOL = 5e-3  # one-sided slopes further apart than this, relative, mark a kink


def grad_check(fn: Callable[..., Tensor], inputs: Iterable[Tensor]):
    """Central finite differences vs autograd in float64.

    fn maps the given leaf tensors to a scalar Tensor. Returns (max_rel_err, report);
    report rows are (input_index, flat_index, analytic, numeric, rel_err, kink_flag).
    Kink flag: one-sided forward/backward differences disagree, i.e. the sample sits
    at or near a non-differentiable point where central FD is unreliable; flagged
    samples are excluded from max_rel_err but stay in the report.
    """
    leaves = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in inputs]
    out = fn(*leaves)
    if out.size != 1:
        raise ValueError("grad_check needs a scalar function")
    out.backward()
    analytic = [lf.grad if lf.grad is not None else np.zeros_like(lf.data) for lf in leaves]

    with no_grad():
        f0 = fn(*leaves).item()

    report = []
    max_err = 0.0
    for idx, lf in enumerate(leaves):
        flat = lf.data.reshape(-1)
        an = analytic[idx].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]

            def _eval(delta):
                flat[k] = orig + delta
                with no_grad():
                    v = fn(*leaves).item()
                flat[k] = orig
                return v

            fp, fm = _eval(FD_STEP), _eval(-FD_STEP)
            num = (fp - fm) / (2 * FD_STEP)
            fwd = (fp - f0) / FD_STEP
            bwd = (f0 - fm) / FD_STEP
            rel = abs(an[k] - num) / max(abs(an[k]), abs(num), 1.0)
            kink = abs(fwd - bwd) > KINK_RTOL * max(abs(fwd), abs(bwd), 1.0)
            report.append((idx, k, float(an[k]), float(num), float(rel), kink))
            if not kink:
                max_err = max(max_err, rel)
    return max_err, report
