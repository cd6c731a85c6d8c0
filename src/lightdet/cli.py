"""Command-line front end: synth, train, eval, cost, bench, gradcheck.

Only modules that import nothing beyond the standard library load at module
level (`errors` is one); numpy and the model code load lazily inside each
command so that the `threads` setting (flag or config file) can pin the BLAS
thread pools through environment variables before numpy first loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from dataclasses import dataclass, field

from .errors import ValidationError

BOX_KINDS = ("iou", "giou", "ciou", "siou")
ACT_KINDS = ("mish", "silu")
MODEL_KINDS = ("baseline", "light")
SPLITS = ("train", "val", "test")
COST_REF_SIZE = 640
MAX_STRIDE = 32  # model.STRIDES' coarsest, restated here because cli loads no numpy
LAST_CKPT = "last.ckpt"  # train's final weights, written beside the best checkpoint
BENCH_WARMUP, BENCH_REPS = 3, 10  # untimed, then timed detect_images calls

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CliError(ValidationError):
    """Bad invocation caught before any work happens."""


@dataclass
class RunConfig:
    """Every setting a command reads. Each field is also the `--<name>` flag
    (a bool is a switch), with the choices and help of its metadata."""

    model: str = field(default="light", metadata={"choices": MODEL_KINDS})
    nc: int = 2
    img: int = 448
    epochs: int = 100
    batch: int = 16
    lr: float = 0.01
    momentum: float = 0.937
    box: str = field(default="siou", metadata={"choices": BOX_KINDS})
    act: str = field(default="mish", metadata={"choices": ACT_KINDS})
    seed: int = 0
    data: str = field(default="", metadata={"help": "dataset root directory"})
    weights: str = field(default="", metadata={"help": "checkpoint path"})
    width: float = 0.25
    split: str = field(default="test", metadata={"choices": SPLITS})
    images: int = field(default=64, metadata={"help": "synth image count"})
    iters: int = field(default=0, metadata={
        "help": "hard cap on optimizer steps (0 = epochs decide)"})
    cosine: bool = field(default=False, metadata={  # %% is argparse's escape for %
        "help": "decay lr to 10%% of base over the run"})
    augment: bool = False
    threads: int = field(default=0, metadata={
        "help": "pin BLAS/OpenMP thread count (1 = bit-reproducible)"})

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices and value not in choices:
                raise CliError(f"{f.name} must be one of {choices}, got {value!r}")
        for name in ("nc", "img", "epochs", "batch", "images"):
            if getattr(self, name) < 1:
                raise CliError(f"{name} must be positive")
        if self.lr <= 0 or self.width <= 0:
            raise CliError("lr and width must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise CliError("momentum must lie in [0, 1)")
        if self.seed < 0 or self.iters < 0 or self.threads < 0:
            raise CliError("seed, iters and threads cannot be negative")
        if self.img % MAX_STRIDE:
            raise CliError(f"img must be a multiple of {MAX_STRIDE} (the coarsest stride)")


# the desk-scale profile: small width, 64 images, settings sized so the
# training run memorizes its split within a few hundred steps on a CPU
PROFILES: dict[str, dict] = {
    "toy": {"width": 0.125, "images": 64, "img": 128, "batch": 16,
            "lr": 0.2, "epochs": 75, "iters": 300, "cosine": True},
    # RunConfig's defaults are the paper's settings
    "paper": {k: getattr(RunConfig, k) for k in ("width", "img", "batch", "lr", "epochs")},
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
# a field's annotation is its type's name (annotations are not evaluated)
_TYPES = {"str": str, "int": int, "float": float, "bool": bool}


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines with `#` comments -> typed dict."""
    types = {f.name: _TYPES[f.type] for f in dataclasses.fields(RunConfig)}
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        ty = types[key]
        try:
            if ty is bool:
                out[key] = _BOOL_WORDS[value.lower()]
            else:
                out[key] = ty(value)
        except (KeyError, ValueError):
            raise CliError(
                f"config line {lineno}: cannot read {value!r} as {ty.__name__}"
            ) from None
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """defaults < profile < config file < explicit flags, then validate."""
    merged: dict = {}
    if args.profile:
        merged.update(PROFILES[args.profile])
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                merged.update(parse_config_text(fh.read()))
        except OSError as e:
            raise CliError(f"cannot read config {args.config}: {e}") from None
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f.name)
        if v is not None:
            merged[f.name] = v
    cfg = RunConfig(**merged)
    cfg.validate()
    return cfg


# ---- commands (heavy imports stay inside) ----


def _build(cfg: RunConfig, kind: str | None = None):
    import numpy as np

    from .model import build_model

    return build_model(kind or cfg.model, nc=cfg.nc, width=cfg.width,
                       act=cfg.act, img_size=cfg.img,
                       rng=np.random.default_rng(cfg.seed))


def _load_weights(cfg: RunConfig, model) -> None:
    from .model import load_checkpoint

    if cfg.weights:
        load_checkpoint(cfg.weights, model)


def _check_has_boxes(cfg: RunConfig, tag: str, targets) -> None:
    """Evaluation scores against ground truth: a split of negatives alone cannot be scored."""
    if not any(len(t) for t in targets):
        raise CliError(f"split {tag!r} of {cfg.data} has no labelled box to evaluate against")


def cmd_synth(cfg: RunConfig) -> int:
    from .data import MIN_SPLIT, split_dataset, synth_generate, write_split

    if not cfg.data:
        raise CliError("synth needs --data DIR to write into")
    if cfg.images < MIN_SPLIT:
        raise CliError(f"synth needs --images {MIN_SPLIT} or more to split, got {cfg.images}")
    # the manifest lists what this run wrote, whatever the directory held before
    stems = synth_generate(cfg.images, cfg.seed, cfg.data, size=cfg.img)
    pairs = split_dataset(stems, cfg.seed)
    write_split(cfg.data, cfg.seed, pairs)
    tags = [t for _, t in pairs]
    print(f"wrote {len(stems)} images to {cfg.data} "
          f"(train {tags.count('train')}, val {tags.count('val')}, "
          f"test {tags.count('test')})")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    import numpy as np

    from .data import load_split, read_split
    from .model import save_checkpoint
    from .train import epoch_shape, evaluate_model, fit

    if not cfg.data:
        raise CliError("train needs --data DIR")
    # --weights names where the best checkpoint goes; the final weights go to
    # last.ckpt beside it, so the two names must differ
    out_path = cfg.weights or os.path.join(cfg.data, "best.ckpt")
    last_path = os.path.join(os.path.dirname(out_path), LAST_CKPT)
    if os.path.basename(out_path) == LAST_CKPT:
        raise CliError(f"--weights cannot be named {LAST_CKPT}: train writes "
                       f"the final weights to {last_path}")
    images, targets, _ = load_split(cfg.data, cfg.seed, "train", cfg.nc, cfg.img)
    # model selection scores the val split, or the train split if the manifest has none
    val_images, val_targets, val_tag = images, targets, "train"
    if any(tag == "val" for _, tag in read_split(cfg.data, cfg.seed)):
        val_images, val_targets, _ = load_split(cfg.data, cfg.seed, "val", cfg.nc, cfg.img)
        val_tag = "val"
    _check_has_boxes(cfg, val_tag, val_targets)

    model = _build(cfg)
    batch, steps_per_epoch = epoch_shape(len(images), cfg.batch)
    iters = cfg.epochs * steps_per_epoch
    if cfg.iters:
        iters = min(iters, cfg.iters)
    best = {"map50": -1.0, "epoch": -1}
    # the best checkpoint so far waits beside out_path until fit returns, so a
    # failed run leaves no weights behind and an earlier file there untouched
    best_tmp = out_path + ".tmp"

    def on_epoch(epoch: int, parts: dict) -> None:
        rep = evaluate_model(model, val_images, val_targets)
        print(f"epoch {epoch:3d}  box {parts['box']:.4f}  obj {parts['obj']:.4f}  "
              f"cls {parts['cls']:.4f}  total {parts['total']:.4f}  "
              f"{val_tag}_map50 {rep.map50:.4f}", flush=True)
        if rep.map50 > best["map50"]:
            best.update(map50=rep.map50, epoch=epoch)
            save_checkpoint(best_tmp, model)

    try:
        fit(model, images, targets, iters=iters, batch=batch, lr=cfg.lr,
            momentum=cfg.momentum, box_kind=cfg.box, seed=cfg.seed,
            augment=cfg.augment, cosine=cfg.cosine, on_epoch=on_epoch)
    except BaseException:
        if os.path.exists(best_tmp):
            os.remove(best_tmp)
        raise
    if best["epoch"] < 0:  # fewer steps than one epoch: keep the final state
        rep = evaluate_model(model, val_images, val_targets)
        best.update(map50=rep.map50, epoch=0)
        save_checkpoint(best_tmp, model)
    os.replace(best_tmp, out_path)
    save_checkpoint(last_path, model)
    done, tail = divmod(iters, steps_per_epoch)  # --iters can stop mid-epoch
    last_at = f"step {iters}" if tail else f"epoch {done - 1}"
    print(f"best checkpoint {out_path} ({val_tag}_map50 {best['map50']:.4f} "
          f"at epoch {best['epoch']}); last checkpoint {last_path} ({last_at})")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    from .data import load_split
    from .train import evaluate_model

    if not cfg.data:
        raise CliError("eval needs --data DIR")
    images, targets, _ = load_split(cfg.data, cfg.seed, cfg.split, cfg.nc, cfg.img)
    _check_has_boxes(cfg, cfg.split, targets)
    model = _build(cfg)
    _load_weights(cfg, model)
    rep = evaluate_model(model, images, targets)
    for cls in sorted(rep.ap_per_class):
        print(f"class {cls}  ap50 {rep.ap_per_class[cls]:.4f}  gt {rep.per_class_counts[cls]}")
    print(f"precision {rep.precision:.4f}  recall {rep.recall:.4f}  "
          f"map50 {rep.map50:.4f}")
    return 0


def cmd_cost(cfg: RunConfig) -> int:
    rows: dict[str, list] = {}
    totals: dict[str, tuple[int, int]] = {}
    for kind in MODEL_KINDS:
        model = _build(cfg, kind)
        kind_rows = model.cost_rows(COST_REF_SIZE)
        rows[kind] = kind_rows
        totals[kind] = (sum(r[1] for r in kind_rows), sum(r[2] for r in kind_rows))
    for kind in MODEL_KINDS:
        for name, params, flops in rows[kind]:
            print(f"{kind}.{name}\t{params}\t{flops}")
        p, f = totals[kind]
        print(f"{kind}.total\t{p}\t{f}")
    (bp, bf), (lp, lf) = totals["baseline"], totals["light"]
    dp = 100.0 * (bp - lp) / bp
    df = 100.0 * (bf - lf) / bf
    print(f"reduction_pct\t{dp:.1f}\t{df:.1f}")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    import numpy as np

    from .model import detect_images

    model = _build(cfg)
    _load_weights(cfg, model)
    x = np.random.default_rng(cfg.seed).random((1, 3, cfg.img, cfg.img),
                                               dtype=np.float32)
    for _ in range(BENCH_WARMUP):
        detect_images(model, x)
    ms = []
    for _ in range(BENCH_REPS):
        t0 = time.perf_counter()
        detect_images(model, x)
        ms.append((time.perf_counter() - t0) * 1e3)
    mean = float(np.mean(ms))
    print(f"mean_ms {mean:.2f}  p95_ms {float(np.percentile(ms, 95)):.2f}  fps {1e3 / mean:.2f}")
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    from .checks import run_checks

    results = run_checks()
    worst = 0.0
    for r in results:
        print(f"{r.name:24s} max_err {r.max_err:.3e}  "
              f"{'ok' if r.ok else 'FAIL'}  ({r.seconds:.2f}s)")
        worst = max(worst, r.max_err)
    n_bad = sum(not r.ok for r in results)
    print(f"{len(results) - n_bad}/{len(results)} checks passed "
          f"(worst {worst:.3e})")
    return 0 if n_bad == 0 else 2


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "cost": cmd_cost,
    "bench": cmd_bench,
    "gradcheck": cmd_gradcheck,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are validation errors, not exit(2)
        raise CliError(message)


def make_parser() -> _Parser:
    p = _Parser(prog="lightdet", description=__doc__)
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", default=None, help="flat key = value file")
    p.add_argument("--profile", choices=sorted(PROFILES), default=None)
    # unset flags stay None, so build_config can tell them from defaults
    for f in dataclasses.fields(RunConfig):
        ty, help_ = _TYPES[f.type], f.metadata.get("help")
        if ty is bool:
            p.add_argument(f"--{f.name}", action="store_const", const=True,
                           default=None, help=help_)
        else:
            p.add_argument(f"--{f.name}", type=ty, choices=f.metadata.get("choices"),
                           default=None, help=help_)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = make_parser().parse_args(argv)
        cfg = build_config(args)  # loads no numpy
        if cfg.threads > 0:
            for var in _THREAD_VARS:  # before numpy first loads
                os.environ[var] = str(cfg.threads)
        return COMMANDS[args.command](cfg)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
