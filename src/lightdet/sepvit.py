"""Windowed self-attention block with per-window and cross-window stages.

The feature map is cut into non-overlapping square windows (row-major order,
row-major pixels inside each window). Stage one runs full attention inside each
window over its pixel tokens plus one learned window token appended at the end.
Stage two lets windows exchange information: queries and keys come from the
window tokens (LayerNorm then Gelu), and the values are the whole per-window
pixel groups from stage one, so with a single window stage two is an exact
pass-through. Residuals wrap both attention stages together and the MLP.
"""
from __future__ import annotations

import math

import numpy as np

from .nn import LayerNorm, Linear, Module
from .tensor import Tensor, activate, concat


WINDOW_TARGET = 7  # the largest window side pick_window_size returns


def pick_window_size(h: int, w: int) -> int:
    """Largest common divisor of both sides that does not exceed WINDOW_TARGET."""
    g = math.gcd(h, w)
    for ws in range(min(WINDOW_TARGET, g), 0, -1):
        if g % ws == 0:
            return ws


def window_partition(x: Tensor, ws: int) -> Tensor:
    """(N, C, H, W) -> (N, nWindows, ws*ws, C) tokens; exact inverse is window_merge."""
    n, c, h, w = x.shape
    if h % ws or w % ws:
        raise ValueError(f"window size {ws} does not divide {h}x{w}")
    y = x.reshape(n, c, h // ws, ws, w // ws, ws)
    y = y.transpose(0, 2, 4, 3, 5, 1)  # N, nH, nW, ws, ws, C
    return y.reshape(n, (h // ws) * (w // ws), ws * ws, c)


def window_merge(tokens: Tensor, ws: int, h: int, w: int) -> Tensor:
    n, nw, t, c = tokens.shape
    if nw != (h // ws) * (w // ws) or t != ws * ws:
        raise ValueError("token layout does not match the target map")
    y = tokens.reshape(n, h // ws, w // ws, ws, ws, c)
    y = y.transpose(0, 5, 1, 3, 2, 4)  # N, C, nH, ws, nW, ws
    return y.reshape(n, c, h, w)


class SepViTBlock(Module):
    """d-channel attention block with a 4d-wide MLP; preserves NCHW shape."""

    def __init__(self, d: int, *, rng: np.random.Generator):
        super().__init__()
        if d <= 0:
            raise ValueError("channel dim must be positive")
        self.d = d
        self.norm1 = LayerNorm(d)
        self.wq = Linear(d, d, bias=False, rng=rng)
        self.wk = Linear(d, d, bias=False, rng=rng)
        self.wv = Linear(d, d, bias=False, rng=rng)
        self.norm_token = LayerNorm(d, affine=False)
        self.norm2 = LayerNorm(d)
        self.fc1 = Linear(d, 4 * d, rng=rng)
        self.fc2 = Linear(4 * d, d, rng=rng)
        # learned summary token, one per window at run time, starts silent
        self.window_token = Tensor(np.zeros((1, 1, 1, d), np.float32), requires_grad=True)

    # stage one: attention inside each window over pixel tokens + window token
    def window_attention(self, f: Tensor) -> tuple[Tensor, Tensor]:
        n, nw, t, d = f.shape
        wt = self.window_token * Tensor(np.ones((n, nw, 1, d), f.data.dtype))
        ft = concat([f, wt], axis=2)
        h = self.norm1(ft)
        q, k, v = self.wq(h), self.wk(h), self.wv(h)
        attn = ((q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d))).softmax(axis=-1)
        out = attn @ v
        return out[:, :, :t, :], out[:, :, t:, :]

    # stage two: windows attend to each other; values are whole pixel groups
    def cross_window_attention(self, fpix: Tensor, wt: Tensor) -> Tensor:
        n, nw, t, d = fpix.shape
        g = activate(self.norm_token(wt), "gelu")
        q = self.wq(g).reshape(n, nw, d)
        k = self.wk(g).reshape(n, nw, d)
        attn = ((q @ k.swapaxes(-1, -2)) * (1.0 / math.sqrt(d))).softmax(axis=-1)
        mixed = attn @ fpix.reshape(n, nw, t * d)
        return mixed.reshape(n, nw, t, d)

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.d:
            raise ValueError(f"expected {self.d} channels, got {c}")
        ws = pick_window_size(h, w)
        f = window_partition(x, ws)
        fpix, wt = self.window_attention(f)
        fhat = self.cross_window_attention(fpix, wt) + f
        y = self.fc2(activate(self.fc1(self.norm2(fhat)), "gelu")) + fhat
        return window_merge(y, ws, h, w)
