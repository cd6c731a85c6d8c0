"""Bit-level pins of the toy profile, frozen in `tests/data/golden_toy.tsv`.

Under one BLAS thread, each pin must come out the same to the last bit:
- `grad.<kind>`: SHA-256 over every parameter gradient of one batch-16 training
  step of each graph, built as `train --profile toy --seed 0` builds it, with
  BN affines and running stats moved far from identity;
- `eval.<kind>`: SHA-256 over the three output maps of that model, then in eval
  mode under `no_grad`, on two further images;
- `fit.NN`: the loss parts of step NN of the seed-0 toy `fit`, as `float.hex`
  (box, obj, cls, total) and the match count. These are the first 20 steps of
  `train --profile toy --seed 0`: the 20 warm-up steps do not depend on where
  the cosine schedule ends;
- `fit.state`: SHA-256 over the parameters and buffers after those 20 steps.

Float bits depend on numpy and on which OpenBLAS kernels run, so every pin row
is keyed by the numpy version and the loaded OpenBLAS's configuration line,
which names the core its DYNAMIC_ARCH dispatch picked at run time (the line in
`numpy.show_config()` is the build's and names the build host's core). On a key
with no pins the test is skipped, naming the key, and never passes.

A change that moves any bit rewrites the rows of its key in the same commit,
with `PYTHONPATH=src python tests/test_golden.py`, and says why in CHANGES.md.
"""
import conftest  # noqa: F401 - pins BLAS to one thread before numpy loads; also as a script

import ctypes
import hashlib
import os

import numpy as np
import pytest

from lightdet.cli import PROFILES, RunConfig, _build
from lightdet.data import load_split, synth_generate
from lightdet.model import training_loss
from lightdet.tensor import Tensor, no_grad
from lightdet.train import fit

from helpers import with_bn_stats

PATH = os.path.join(os.path.dirname(__file__), "data", "golden_toy.tsv")
FIT_STEPS = 20


def blas_key() -> str:
    """numpy's version and the configuration line of the OpenBLAS it loaded."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
        "openblas configuration", "unknown BLAS")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_config", "openblas_get_config64_",
                    "scipy_openblas_get_config64_", "scipy_openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                config = fn().decode()
                break
    return f"numpy {np.__version__} | {' '.join(config.split())}"


def _sha(arrays) -> str:
    h = hashlib.sha256()
    for name, a in arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def compute_pins(root: str) -> dict:
    cfg = RunConfig(**PROFILES["toy"])
    synth_generate(cfg.images, cfg.seed, root, size=cfg.img)
    images, targets, _ = load_split(root, cfg.seed, "train", cfg.nc, cfg.img)
    pins = {}
    for kind in ("baseline", "light"):
        model = with_bn_stats(_build(cfg, kind), np.random.default_rng(1))
        preds = model(Tensor(images[:cfg.batch]))
        total, _ = training_loss(preds, targets[:cfg.batch], model.detect, cfg.box)
        total.backward()
        pins[f"grad.{kind}"] = _sha((n, p.grad) for n, p in model.named_parameters())
        model.eval()
        with no_grad():
            outs = model(Tensor(images[cfg.batch:cfg.batch + 2]))
        pins[f"eval.{kind}"] = _sha((str(i), o.data) for i, o in enumerate(outs))
    model = _build(cfg)
    trace = fit(model, images, targets, iters=FIT_STEPS, batch=cfg.batch, lr=cfg.lr,
                momentum=cfg.momentum, box_kind=cfg.box, seed=cfg.seed,
                augment=cfg.augment, cosine=cfg.cosine)
    for step, parts in enumerate(trace):
        pins[f"fit.{step:02d}"] = " ".join(
            [float.hex(parts[k]) for k in ("box", "obj", "cls", "total")]
            + [str(parts["matched"])])
    pins["fit.state"] = _sha((n, t.data) for n, t in model.named_state())
    return pins


def read_pins(key: str) -> dict:
    with open(PATH, encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
    return {pin: value for k, pin, value in rows if k == key}


def test_toy_trace_matches_the_frozen_pins(tmp_path):
    key = blas_key()
    frozen = read_pins(key)
    if not frozen:
        pytest.skip(f"no pins for {key!r} in {PATH}: record them with "
                    f"`PYTHONPATH=src python tests/test_golden.py` and check them in")
    got = compute_pins(str(tmp_path))
    changed = sorted(p for p in frozen.keys() | got.keys() if frozen.get(p) != got.get(p))
    assert not changed, f"bits moved at {changed}; a change that means to move them " \
                        f"rewrites the rows of {key!r} and says why"


if __name__ == "__main__":
    import tempfile

    key = blas_key()
    with open(PATH, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with tempfile.TemporaryDirectory() as root:
        pins = compute_pins(root)
    kept = [line for line in lines[1:] if line.split("\t")[0] != key]
    with open(PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0]] + kept + [f"{key}\t{p}\t{v}" for p, v in pins.items()])
                 + "\n")
    print(f"wrote {len(pins)} pins for {key!r} to {PATH}")
