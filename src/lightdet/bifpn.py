"""Depthwise-separable fusion neck over a 3-level pyramid.

Fusion is plain concatenation everywhere (no learned fusion weights). On top of
the usual top-down then bottom-up paths there is one extra same-level edge: the
middle input level feeds the middle output stage directly, which is what makes
the wiring bidirectional rather than a plain PAN.
"""
from __future__ import annotations

import numpy as np

from .nn import ConvBnAct, Module, channel_shuffle
from .tensor import Tensor, concat, upsample_nearest2x


class DSSConv(Module):
    """Depthwise kxk then pointwise 1x1 (each BN+act), finished by a 2-group shuffle."""

    def __init__(self, c1: int, c2: int, k: int = 3, s: int = 1, act: str = "mish",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if c2 % 2:
            raise ValueError("output channels must be even for the channel shuffle")
        self.dw = ConvBnAct(c1, c1, k, s, g=c1, act=act, rng=rng)
        self.pw = ConvBnAct(c1, c2, 1, act=act, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return channel_shuffle(self.pw(self.dw(x)), 2)


class DSSBottleneck(Module):
    """1x1 conv then separable 3x3; optional residual and an optional gate module."""

    def __init__(self, c1: int, c2: int, shortcut: bool = True, act: str = "mish",
                 attention: Module | None = None, rng: np.random.Generator | None = None):
        super().__init__()
        self.cv1 = ConvBnAct(c1, c2, 1, act=act, rng=rng)
        self.cv2 = DSSConv(c2, c2, 3, 1, act=act, rng=rng)
        self.attn = attention
        self.add = shortcut and c1 == c2

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv2(self.cv1(x))
        if self.attn is not None:
            y = self.attn(y)
        return x + y if self.add else y


class DSSC3(Module):
    """Cross-stage block built from separable bottlenecks; branches are half-width."""

    def __init__(self, c1: int, c2: int, n: int = 1, shortcut: bool = True,
                 act: str = "mish", attentions: list[Module | None] | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        ch = c2 // 2
        attns = attentions or [None] * n
        if len(attns) != n:
            raise ValueError("one attention slot per bottleneck")
        self.cv1 = ConvBnAct(c1, ch, 1, act=act, rng=rng)
        self.cv2 = ConvBnAct(c1, ch, 1, act=act, rng=rng)
        self.m = [DSSBottleneck(ch, ch, shortcut, act=act, attention=a, rng=rng)
                  for a in attns]
        self.cv3 = ConvBnAct(2 * ch, c2, 1, act=act, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        y = self.cv1(x)
        for b in self.m:
            y = b(y)
        return self.cv3(concat([y, self.cv2(x)], axis=1))


class LightBiFpn(Module):
    """(P3, P4, P5) -> (N3, N4, N5) with strides 8/16/32 preserved per level.

    Channel plan: lateral/top-down width `mid`, outputs (out3, out4, out5).
    The middle output stage concatenates three sources: the upsampled-then-refined
    top-down feature, the downsampled N3, and the untouched P4 input (the extra
    bidirectional edge).
    """

    def __init__(self, c3: int, c4: int, c5: int, mid: int, out3: int, out4: int,
                 out5: int, act: str = "mish",
                 attn_td: Module | None = None, attn_out4: Module | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.lat5 = ConvBnAct(c5, mid, 1, act=act, rng=rng)
        self.td4 = DSSC3(mid + c4, mid, n=1, shortcut=False, act=act,
                         attentions=[attn_td], rng=rng)
        self.out3 = DSSC3(mid + c3, out3, n=1, shortcut=False, act=act, rng=rng)
        self.down3 = DSSConv(out3, out3, 3, 2, act=act, rng=rng)
        self.out4 = DSSC3(out3 + mid + c4, out4, n=1, shortcut=False, act=act,
                          attentions=[attn_out4], rng=rng)
        self.down4 = DSSConv(out4, out4, 3, 2, act=act, rng=rng)
        self.out5 = DSSC3(out4 + mid, out5, n=1, shortcut=False, act=act, rng=rng)

    def forward(self, p3: Tensor, p4: Tensor, p5: Tensor):
        lat = self.lat5(p5)
        td = self.td4(concat([upsample_nearest2x(lat), p4], axis=1))
        n3 = self.out3(concat([upsample_nearest2x(td), p3], axis=1))
        n4 = self.out4(concat([self.down3(n3), td, p4], axis=1))
        n5 = self.out5(concat([self.down4(n4), lat], axis=1))
        return n3, n4, n5
