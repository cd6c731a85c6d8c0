"""Depthwise-separable fusion neck over a 3-level pyramid.

The neck only wires blocks from `nn`: its four stages are separable `C3`s (two
of them GAM-gated) and its two downsampling steps stride-2 `DSSConv`s.
Fusion is plain concatenation everywhere (no learned fusion weights). On top of
the usual top-down then bottom-up paths there is one extra same-level edge: the
middle input level feeds the middle output stage directly, which is what makes
the wiring bidirectional rather than a plain PAN.
"""
from __future__ import annotations

import numpy as np

from .nn import C3, ConvBnAct, DSSConv, Module
from .tensor import Tensor, concat, upsample_nearest2x


class LightBiFpn(Module):
    """(P3, P4, P5) -> (N3, N4, N5) with strides 8/16/32 preserved per level.

    Channel plan: lateral/top-down width `mid`; each output keeps its input's
    width, so (N3, N4, N5) have (c3, c4, c5) channels.
    The middle output stage concatenates three sources: the upsampled-then-refined
    top-down feature, the downsampled N3, and the untouched P4 input (the extra
    bidirectional edge).
    """

    def __init__(self, c3: int, c4: int, c5: int, mid: int, act: str,
                 attn_td: Module | None, attn_out4: Module | None,
                 rng: np.random.Generator):
        super().__init__()
        self.lat5 = ConvBnAct(c5, mid, 1, act=act, rng=rng)
        self.td4 = C3(mid + c4, mid, shortcut=False, act=act, separable=True,
                      attentions=[attn_td], rng=rng)
        self.out3 = C3(mid + c3, c3, shortcut=False, act=act, separable=True, rng=rng)
        self.down3 = DSSConv(c3, 2, act=act, rng=rng)
        self.out4 = C3(c3 + mid + c4, c4, shortcut=False, act=act, separable=True,
                       attentions=[attn_out4], rng=rng)
        self.down4 = DSSConv(c4, 2, act=act, rng=rng)
        self.out5 = C3(c4 + mid, c5, shortcut=False, act=act, separable=True, rng=rng)

    def forward(self, p3: Tensor, p4: Tensor, p5: Tensor):
        lat = self.lat5(p5)
        td = self.td4(concat([upsample_nearest2x(lat), p4], axis=1))
        n3 = self.out3(concat([upsample_nearest2x(td), p3], axis=1))
        n4 = self.out4(concat([self.down3(n3), td, p4], axis=1))
        n5 = self.out5(concat([self.down4(n4), lat], axis=1))
        return n3, n4, n5
