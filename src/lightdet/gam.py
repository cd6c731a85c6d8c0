"""Global attention gate: a channel gate followed by a spatial gate.

The channel gate runs a per-position two-layer MLP across the channel axis (no
pooling anywhere), the spatial gate a pair of 7x7 convolutions; both pass the c
channels through a hidden width of min(4, c // 2). Both squash through a sigmoid
and multiply the feature map, so the module can only attenuate: elementwise
|output| <= |input|, and zero input stays zero. The spatial gate reads the
channel-gated map, not the raw input.
"""
from __future__ import annotations

import numpy as np

from .nn import Conv2d, ConvBnAct, Linear, Module
from .tensor import Tensor, activate

GAM_KERNEL = 7  # the spatial gate's convolution side


class GAM(Module):
    def __init__(self, c: int, *, rng: np.random.Generator):
        super().__init__()
        if c < 2:
            raise ValueError(f"GAM needs at least 2 channels, got {c}")
        hidden = min(4, c // 2)
        self.c = c
        self.fc1 = Linear(c, hidden, rng=rng)
        self.fc2 = Linear(hidden, c, rng=rng)
        self.sp1 = ConvBnAct(c, hidden, GAM_KERNEL, act="relu", rng=rng)
        self.sp2 = Conv2d(hidden, c, GAM_KERNEL, bias=True, rng=rng)

    def channel_gate(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        t = x.transpose(0, 2, 3, 1)
        t = self.fc2(activate(self.fc1(t), "relu")).sigmoid()
        return t.transpose(0, 3, 1, 2)

    def spatial_gate(self, x: Tensor) -> Tensor:
        return self.sp2(self.sp1(x)).sigmoid()

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.c:
            raise ValueError(f"expected {self.c} channels, got {x.shape[1]}")
        gated = x * self.channel_gate(x)
        return gated * self.spatial_gate(gated)
