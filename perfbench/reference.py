"""A fixed CPU reference kernel, timed between ops to factor out host speed.

On a shared host the CPU's effective speed drifts by 20-40% over tens of
seconds, and an op's wall time drifts with it. The reference kernel does the
kinds of work that lightdet does, on fixed inputs and with numpy alone: the
float32 einsum contraction of a convolution, a greedy NMS loop in Python over
numpy vectors and, for a workload whose working set is far larger than the
CPU's caches, passes over an array of `stream_mb` MB. It never calls
lightdet, so a change to lightdet moves the op time but not the reference
time, while a change in host speed moves both. An op's normalised time is its
wall time times `REF_MS` over the mean of the reference times taken just
before and just after it.
"""
from __future__ import annotations

import time

import numpy as np

# nominal reference time: normalised figures read as wall times on a host
# where one reference run takes this long (about its time on a 2-vCPU VM)
REF_MS = 40.0
_SEED = 20220828  # fixed: the reference work must not depend on --seed


class Reference:
    def __init__(self, stream_mb: int = 0):
        rng = np.random.default_rng(_SEED)
        self.w = rng.standard_normal((64, 576), dtype=np.float32)
        self.cols = rng.standard_normal((576, 3136), dtype=np.float32)
        # the contraction writes here, so its time does not depend on how
        # the allocator was left by the op before it
        self.prod = np.empty((64, 3136), dtype=np.float32)
        xy = rng.uniform(0.0, 400.0, (3000, 2)).astype(np.float32)
        wh = rng.uniform(5.0, 60.0, (3000, 2)).astype(np.float32)
        self.boxes = np.concatenate([xy, xy + wh], axis=1)
        self.scores = rng.uniform(0.0, 1.0, 3000).astype(np.float32)
        self.stream = np.ones(stream_mb << 18, dtype=np.float32)
        for _ in range(3):  # first runs fault in pages and warm the caches
            self._work()

    def _work(self) -> float:
        acc = 0.0
        for _ in range(5):
            np.einsum("ok,kl->ol", self.w, self.cols, out=self.prod, optimize=True)
            acc += float(self.prod[0, 0])
        b, order, kept = self.boxes, np.argsort(-self.scores, kind="stable"), 0
        while order.size and kept < 300:
            i, rest = order[0], order[1:]
            kept += 1
            o = b[rest]
            iw = np.clip(np.minimum(b[i, 2], o[:, 2]) - np.maximum(b[i, 0], o[:, 0]), 0.0, None)
            ih = np.clip(np.minimum(b[i, 3], o[:, 3]) - np.maximum(b[i, 1], o[:, 1]), 0.0, None)
            inter = iw * ih
            union = ((b[i, 2] - b[i, 0]) * (b[i, 3] - b[i, 1])
                     + (o[:, 2] - o[:, 0]) * (o[:, 3] - o[:, 1]) - inter)
            order = rest[inter / union <= 0.45]
        for _ in range(2):  # halving and doubling are exact: the array never drifts
            np.multiply(self.stream, 0.5, out=self.stream)
            np.multiply(self.stream, 2.0, out=self.stream)
        return acc + kept

    def run(self) -> float:
        """One timed run of the kernel, in ms."""
        t0 = time.perf_counter()
        self._work()
        return (time.perf_counter() - t0) * 1e3
