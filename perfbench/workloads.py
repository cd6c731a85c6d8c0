"""The benchmark's workloads, driven through lightdet's public functions.

Each workload sets itself up from the seed, warms up untraced while recording
the reference outputs its checks compare against, then repeats its op in a
closed loop (one caller, next op after the previous one returns) for the
measured seconds. Between ops it times the reference kernel, so that run.py
can factor the host's speed out of the op times. With a tracer, the measured
loop also records spans around calls into each layer. The spans come from
wrappers installed here, on module-level functions, on class methods and on
the `forward` attribute of module instances, so the library runs unmodified.
"""
from __future__ import annotations

import inspect
import math
import os
import resource
import statistics
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import lightdet.model as lmodel
import lightdet.train as ltrain
from lightdet.cli import PROFILES, RunConfig
from lightdet.data import load_split, synth_generate
from lightdet.gam import GAM
from lightdet.model import build_model, detect_images, load_checkpoint, save_checkpoint
from lightdet.tensor import Tensor, toposort
from lightdet.train import SGD, evaluate_model, fit

from measure import Tracer, kept_ratio, summarize_ms
from reference import Reference

clock = time.perf_counter
DEFAULTS = RunConfig()
TOY, PAPER = PROFILES["toy"], PROFILES["paper"]

# top-level rows of both graphs by layer group; an unknown row is an error,
# so a renamed row cannot drift into the wrong group unnoticed
ROW_GROUPS = {
    "backbone": ("stem", "down1", "stage1", "down2", "stage2", "down3",
                 "stage3", "down4"),
    "deep": ("stage4", "attn_reduce", "attn_expand"),
    "sepvit": ("attn",),
    "sppf": ("sppf",),
    "neck": ("neck", "lat5", "up1", "cat_td4", "td4", "lat4", "up2",
             "cat_out3", "out3", "pan_down3", "cat_out4", "out4", "pan_down4",
             "cat_out5", "out5"),
    "head": ("detect",),
}
GROUP_OF = {row: group for group, rows in ROW_GROUPS.items() for row in rows}
FWD_GROUPS = ("backbone", "deep", "sepvit", "sppf", "neck", "gam", "head")
SPAN_METRICS = {"loss.ms": "loss", "bwd.ms": "bwd", "opt.ms": "opt",
                "post.decode_ms": "post.decode", "post.nms_ms": "post.nms",
                "metrics.match_ms": "metrics.match"}

_MISSING = object()


class _Stop(Exception):
    """Raised from a hook to end `fit` at a step boundary."""


@contextmanager
def patched(*hooks):
    """Set (owner, attribute, value) triples; restore the previous state after."""
    saved = [(o, n, vars(o).get(n, _MISSING)) for o, n, _ in hooks]
    try:
        for owner, name, value in hooks:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


def layer_hooks(model, tracer: Tracer, prefix: str = "") -> list:
    """Spans on the model's forward, on each top-level row and on each GAM."""
    hooks = [(model, "forward", tracer.wrap(prefix + "fwd", model.forward))]
    for row in model._rows:
        group = GROUP_OF.get(row.name)
        if group is None:
            raise RuntimeError(f"row {row.name!r} of the {model.kind} graph has no layer group")
        hooks.append((row.layer, "forward",
                      tracer.wrap(f"{prefix}fwd.{group}", row.layer.forward)))
    for m in model.modules():
        if isinstance(m, GAM):
            hooks.append((m, "forward", tracer.wrap(prefix + "fwd.gam", m.forward)))
    return hooks


def post_hooks(tracer: Tracer) -> list:
    """Spans on decode and NMS, with NMS's candidate and kept counts."""
    nms = lmodel.nms_indices

    def traced_nms(boxes, scores, *args, **kwargs):
        with tracer.span("post.nms"):
            keep = nms(boxes, scores, *args, **kwargs)
        tracer.count("post.candidates", len(scores))
        tracer.count("post.kept", len(keep))
        return keep

    return [(lmodel, "decode_predictions",
             tracer.wrap("post.decode", lmodel.decode_predictions)),
            (lmodel, "nms_indices", traced_nms)]


def rusage():
    return resource.getrusage(resource.RUSAGE_SELF)


class Settle:
    """Decides when warm-up is over, from the process's own counters.

    Warm-up ends after the first op, other than the very first, that raised
    peak RSS by under 1% and took no more than 10% more minor page faults
    than the op before it, or once `budget_s` seconds have gone by. Until
    then the allocator is still taking fresh pages from the kernel and ops
    run slower.
    """

    def __init__(self, budget_s: float):
        self.deadline = clock() + budget_s
        self.last = rusage()
        self.trail: list[dict] = []
        self.settled = False

    def op_done(self) -> bool:
        r = rusage()
        flt = r.ru_minflt - self.last.ru_minflt
        grew = r.ru_maxrss - self.last.ru_maxrss
        self.last = r
        if self.trail:
            self.settled = grew < 0.01 * r.ru_maxrss and flt <= 1.1 * self.trail[-1]["minflt"]
        self.trail.append({"minflt": flt, "maxrss_mb": round(r.ru_maxrss / 1024, 1)})
        return self.settled or clock() >= self.deadline

    def record(self) -> dict:
        return {"ops": len(self.trail), "settled": self.settled, "trail": self.trail}


def make_dataset(root: str, seed: int, n: int, size: int, t: dict):
    """Synth scenes into `root`, then the train split as arrays."""
    t0 = clock()
    synth_generate(n, seed, root, size=size)
    t1 = clock()
    images, targets, _ = load_split(root, seed, "train", DEFAULTS.nc, size)
    t2 = clock()
    t["data.synth_ms_per_img"] = (t1 - t0) * 1e3 / n
    t["data.load_ms_per_img"] = (t2 - t1) * 1e3 / len(images)
    return images, targets


def build(kind: str, profile: dict, seed: int):
    return build_model(kind, nc=DEFAULTS.nc, width=profile["width"], act=DEFAULTS.act,
                       img_size=profile["img"], rng=np.random.default_rng(seed))


class Result:
    """What one measured loop produced: op windows, checks, counters."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.windows: dict[str, list[tuple[float, float]]] = {}
        self.ref_ms: list[float] = []  # ref_ms[i] just before op i, ref_ms[i + 1] just after
        self.ru0 = self.ru1 = None
        self.t0 = self.t1 = 0.0
        self.extra: dict = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def start_clock(self) -> None:
        self.ru0, self.t0 = rusage(), clock()

    def stop_clock(self) -> None:
        self.ru1, self.t1 = rusage(), clock()


def durations_ms(windows) -> list[float]:
    return [(b - a) * 1e3 for a, b in windows]


def _median(xs, default=0.0) -> float:
    return statistics.median(xs) if xs else default


def timing(name: str, windows, unit: str = "ms") -> dict:
    """Median and supported tail of op durations as {name_pNN: [value, unit]}."""
    scale = 1e-3 if unit == "s" else 1.0
    s = summarize_ms(durations_ms(windows))
    return {f"{name}_{k}": [v * scale, unit] for k, v in s.items() if k != "n"}


def per_second(windows, per_op: int) -> float:
    """Images through a graph per second of timed ops."""
    return per_op * len(windows) / sum(b - a for a, b in windows)


def span_metrics(rows: list[dict], prefix: str = "") -> dict:
    """Per-layer medians over op windows: forward groups (self time, the whole
    forward as total), loss, backward, optimizer, post-processing, matching."""
    out = {f"{prefix}fwd.ms": _median([r["total"].get(prefix + "fwd", 0.0) * 1e3 for r in rows])}
    for g in FWD_GROUPS:
        out[f"{prefix}fwd.{g}_ms"] = _median(
            [r["self"].get(f"{prefix}fwd.{g}", 0.0) * 1e3 for r in rows])
    if prefix:
        return out
    for key, name in SPAN_METRICS.items():
        out[key] = _median([r["self"].get(name, 0.0) * 1e3 for r in rows])
    for name in ("loss.matched", "bwd.graph_nodes", "post.candidates", "post.kept"):
        out[name] = _median([r["events"].get(name, 0.0) for r in rows])
    kept = sum(r["events"].get("post.kept", 0.0) for r in rows)
    cands = sum(r["events"].get("post.candidates", 0.0) for r in rows)
    out["post.kept_ratio"] = kept_ratio(int(kept), int(cands))
    out["op.span_share"] = _median([r["covered"] for r in rows])
    return out


def capture(fn, sink: list):
    """`fn` that also appends what it returns (its last item if a tuple) to `sink`."""
    def captured(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out[-1] if isinstance(out, tuple) else out)
        return out
    return captured


MAX_DET = inspect.signature(detect_images).parameters["max_det"].default


class TrainToy:
    """`fit` on the light graph with the toy profile's training shape.

    One op is one optimizer step, from one forward call of the model to the
    next, less the reference run in between; the steps are those of the real
    `fit` loop, ended by a hook.
    """

    name = "train_toy"
    main_kind = "op"
    # a step's working set is GBs, so the reference includes memory passes
    ref_stream_mb = 64

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: str, t: dict) -> None:
        self.images, self.targets = make_dataset(root, self.seed, TOY["images"],
                                                 TOY["img"], t)
        t0 = clock()
        self.model = build("light", TOY, self.seed)
        t["model.build_ms"] = (clock() - t0) * 1e3
        self.batch = min(TOY["batch"], len(self.images))
        per_epoch = math.ceil(len(self.images) / self.batch)
        # the step count `lightdet train --profile toy` derives; it sets the cosine span
        self.fit_kw = dict(iters=min(TOY["epochs"] * per_epoch, TOY["iters"]),
                           batch=self.batch, lr=TOY["lr"], cosine=TOY["cosine"],
                           momentum=DEFAULTS.momentum, box_kind=DEFAULTS.box,
                           seed=self.seed, on_epoch=None)

    def _fit(self, model, hooks: list, on_step, bounds: list) -> None:
        """`fit` with `hooks` installed; `on_step(i)` runs as step i starts,
        and once more after the last step if `fit` returns, and raises _Stop
        to end the run there. `bounds` collects, for each of these step
        boundaries, the times `on_step` was entered and left."""
        def boundary():
            t = clock()
            try:
                on_step(len(bounds))
            finally:
                bounds.append((t, clock()))

        with patched(*hooks):
            inner = model.forward

            def step_boundary(x):
                boundary()
                return inner(x)

            with patched((model, "forward", step_boundary)):
                try:
                    fit(model, self.images, self.targets, **self.fit_kw)
                    boundary()
                except _Stop:
                    pass

    def warmup(self, budget_s: float) -> dict:
        settle = Settle(budget_s)
        self.ref: list[dict] = []

        def on_step(i: int) -> None:
            if i and settle.op_done():
                raise _Stop

        self._fit(self.model, [(ltrain, "training_loss", capture(ltrain.training_loss, self.ref))],
                  on_step, [])
        del self.model
        return settle.record()

    def measure(self, seconds: float, tracer: Tracer | None, ref: Reference) -> Result:
        res = Result()
        model = build("light", TOY, self.seed)  # same weights as the warm-up run started from
        losses: list[dict] = []
        if tracer is None:
            hooks = [(ltrain, "training_loss", capture(ltrain.training_loss, losses))]
        else:
            hooks = layer_hooks(model, tracer) + self._traced_hooks(tracer, res, losses)
        deadline = math.inf

        def on_step(i: int) -> None:
            nonlocal deadline
            if i == 0:  # step 0 is not timed
                if tracer is not None:
                    tracemalloc.start()  # read and stopped as backward starts
                return
            res.ref_ms.append(ref.run())
            if i == 1:
                res.start_clock()
                deadline = res.t0 + seconds
            elif clock() >= deadline:
                raise _Stop

        bounds: list[tuple[float, float]] = []
        try:
            self._fit(model, hooks, on_step, bounds)
        except Exception as e:  # noqa: BLE001 - the failing step counts, untimed
            res.check(False, f"step {len(bounds) - 1}: fit raised {type(e).__name__}: {e}")
        finally:
            tracemalloc.stop()
        res.stop_clock()
        for i, parts in enumerate(losses[:len(bounds) - 1]):
            finite = all(math.isfinite(parts[k]) for k in ("box", "obj", "cls", "total"))
            same = i >= len(self.ref) or parts == self.ref[i]
            res.check(finite and same,
                      f"step {i}: loss {parts}, untraced warm-up run had "
                      f"{self.ref[i] if i < len(self.ref) else None}")
        # step j runs from leaving boundary j to reaching boundary j + 1
        res.windows["op"] = [(a[1], b[0]) for a, b in zip(bounds[1:-1], bounds[2:])]
        return res

    def named(self, res: Result) -> dict:
        return {**timing("step_ms", res.windows["op"]),
                "train_img_per_s": [per_second(res.windows["op"], self.batch), "1/s"]}

    @staticmethod
    def _traced_hooks(tracer: Tracer, res: Result, losses: list) -> list:
        loss_fn, backward = ltrain.training_loss, Tensor.backward

        def traced_loss(*args, **kwargs):
            with tracer.span("loss"):
                total, parts = loss_fn(*args, **kwargs)
            tracer.count("loss.matched", parts["matched"])
            losses.append(parts)
            return total, parts

        def traced_backward(root):
            if tracemalloc.is_tracing():  # live bytes the graph holds for backward
                res.extra["bwd.retained_mb"] = tracemalloc.get_traced_memory()[0] / 2**20
                tracemalloc.stop()
            tracer.count("bwd.graph_nodes", len(toposort(root)))
            with tracer.span("bwd"):
                backward(root)

        return [(ltrain, "training_loss", traced_loss),
                (Tensor, "backward", traced_backward),
                (SGD, "step", tracer.wrap("opt", SGD.step))]


class Detect448:
    """Batch-1 `detect_images` at 448 px, light and baseline interleaved.

    One op is a pair of calls on one image, one per graph; which graph goes
    first alternates from pair to pair. The reference kernel runs between
    pairs.
    """

    name = "detect_448"
    main_kind = "light"
    ref_stream_mb = 0
    scenes = 10  # the train split of 10 scenes holds 8

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: str, t: dict) -> None:
        self.images, _ = make_dataset(root, self.seed, self.scenes, PAPER["img"], t)
        t0 = clock()
        self.models = {k: build(k, PAPER, self.seed) for k in ("light", "baseline")}
        t["model.build_ms"] = (clock() - t0) * 1e3

    def _call(self, kind: str, i: int):
        return detect_images(self.models[kind], self.images[i:i + 1])

    @staticmethod
    def _order(pair: int) -> tuple[str, str]:
        return ("light", "baseline") if pair % 2 == 0 else ("baseline", "light")

    def warmup(self, budget_s: float) -> dict:
        """Every image through both graphs once for the references, then on
        until the counters settle."""
        settle = Settle(budget_s)
        n = len(self.images)
        self.ref = {kind: [None] * n for kind in self.models}
        pair = 0
        while True:
            for kind in self._order(pair):
                dets = self._call(kind, pair % n)
                if self.ref[kind][pair % n] is None:
                    self.ref[kind][pair % n] = dets
            pair += 1
            if settle.op_done() and pair >= n:
                return settle.record()

    def measure(self, seconds: float, tracer: Tracer | None, ref: Reference) -> Result:
        res = Result()
        hooks = []
        if tracer is not None:
            hooks = (layer_hooks(self.models["light"], tracer)
                     + layer_hooks(self.models["baseline"], tracer, "base.")
                     + post_hooks(tracer))
        wins = res.windows = {"op": [], "light": [], "baseline": []}
        n = len(self.images)
        with patched(*hooks):
            res.ref_ms.append(ref.run())
            res.start_clock()
            deadline = res.t0 + seconds
            pair = 0
            while clock() < deadline:
                i = pair % n
                for kind in self._order(pair):
                    t0 = clock()
                    try:
                        dets = self._call(kind, i)
                    except Exception as e:  # noqa: BLE001 - counted as a failed op
                        dets = f"{type(e).__name__}: {e}"
                    wins[kind].append((t0, clock()))
                    res.check(dets == self.ref[kind][i],
                              f"{kind} on image {i}: {dets!r:.200} != untraced {self.ref[kind][i]!r:.200}")
                wins["op"].append((min(wins["light"][-1][0], wins["baseline"][-1][0]),
                                   max(wins["light"][-1][1], wins["baseline"][-1][1])))
                res.ref_ms.append(ref.run())
                pair += 1
            res.stop_clock()
        return res

    def named(self, res: Result) -> dict:
        out = {**timing("light_ms", res.windows["light"]),
               **timing("baseline_ms", res.windows["baseline"])}
        out["light_over_baseline_p50"] = [out["light_ms_p50"][0] / out["baseline_ms_p50"][0],
                                          "ratio"]
        return out


class EvalToy:
    """`evaluate_model` at `conf_thr=0.001` on the toy train split, with a
    model loaded through a checkpoint round trip.

    One op is one pass over a third of the split (17 of the 51 images), so
    that a run holds about 30 ops and the reference kernel runs often enough
    to follow the host's speed; the thirds take turns.
    """

    name = "eval_toy"
    main_kind = "op"
    ref_stream_mb = 0
    parts = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, root: str, t: dict) -> None:
        self.images, self.targets = make_dataset(root, self.seed, TOY["images"],
                                                 TOY["img"], t)
        n = len(self.images)
        cuts = [k * n // self.parts for k in range(self.parts + 1)]
        self.chunks = list(zip(cuts[:-1], cuts[1:]))
        path = os.path.join(root, "model.ckpt")
        t0 = clock()
        saved = build("light", TOY, self.seed)
        t1 = clock()
        save_checkpoint(path, saved)
        t2 = clock()
        # other weights than the saved ones, so loading must replace every tensor
        self.model = build("light", TOY, self.seed + 1)
        t3 = clock()
        load_checkpoint(path, self.model)
        t4 = clock()
        t["model.build_ms"] = (t1 - t0 + t3 - t2) * 1e3
        t["ckpt.save_ms"] = (t2 - t1) * 1e3
        t["ckpt.load_ms"] = (t4 - t3) * 1e3
        t["ckpt.bytes"] = os.path.getsize(path)
        want, got = list(saved.named_state()), list(self.model.named_state())
        self.ckpt_ok = [n for n, _ in want] == [n for n, _ in got] and all(
            np.array_equal(a.data, b.data) for (_, a), (_, b) in zip(want, got))

    def _pass(self, op: int):
        a, b = self.chunks[op % self.parts]
        dets: list = []
        with patched((ltrain, "detect_images", capture(ltrain.detect_images, dets))):
            rep = evaluate_model(self.model, self.images[a:b], self.targets[a:b])
        return rep, dets[0]

    def warmup(self, budget_s: float) -> dict:
        """Every third once for the references, then on until the counters settle."""
        settle = Settle(budget_s)
        self.ref = [self._pass(k) for k in range(self.parts)]
        settle.op_done()
        op = 0
        while not settle.op_done():
            self._pass(op)
            op += 1
        return settle.record()

    def measure(self, seconds: float, tracer: Tracer | None, ref: Reference) -> Result:
        res = Result()
        res.check(self.ckpt_ok, "checkpoint round trip changed the model's tensors")
        hooks = []
        if tracer is not None:
            hooks = (layer_hooks(self.model, tracer) + post_hooks(tracer)
                     + [(ltrain, "evaluate", tracer.wrap("metrics.match", ltrain.evaluate))])
        wins = res.windows = {"op": []}
        with patched(*hooks):
            res.ref_ms.append(ref.run())
            res.start_clock()
            deadline = res.t0 + seconds
            op = 0
            while clock() < deadline:
                ref_rep, ref_dets = self.ref[op % self.parts]
                t0 = clock()
                try:
                    rep, dets = self._pass(op)
                except Exception as e:  # noqa: BLE001 - counted as a failed op, untimed
                    res.check(False, f"pass {op} raised {type(e).__name__}: {e}")
                    break
                wins["op"].append((t0, clock()))
                res.ref_ms.append(ref.run())
                ok = (0.0 <= rep.map50 <= 1.0 and all(len(d) <= MAX_DET for d in dets)
                      and rep == ref_rep and dets == ref_dets)
                res.check(ok, f"pass {op}: mAP {rep.map50}, "
                              f"{max(map(len, dets))} dets max, untraced mAP {ref_rep.map50}")
                op += 1
            res.stop_clock()
        return res

    def named(self, res: Result) -> dict:
        per_pass = self.chunks[0][1] - self.chunks[0][0]
        return {**timing("eval_pass_s", res.windows["op"], "s"),
                "eval_img_per_s": [per_second(res.windows["op"], per_pass), "1/s"]}


WORKLOADS = {w.name: w for w in (TrainToy, Detect448, EvalToy)}
