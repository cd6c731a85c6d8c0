import inspect
import os
import pathlib

import numpy as np

import lightdet
from lightdet.model import Light, detect_images
from lightdet.train import fit

from helpers import defaulted_params

# A parameter that no caller passes is an option nobody uses. A change that
# needs a new defaulted parameter raises this number and names the caller.
MAX_DEFAULTED_PARAMS = 41
# Lines of src/lightdet/*.py, as `wc -l` counts them. A change that raises
# this number names why: a measured gain or a closed bug. 3246 -> 3258: class-split
# NMS, eval_toy op_ms_norm -14%. 3258 -> 3277: synth blobs rendered on their own
# windows and a split decoded into one buffer, detect_448 setup_s -34%. 3277 -> 3242:
# detections travel as plain rows, Box and Detection gone. 3242 -> 3249: training
# im2col in blocks of whole images, train_toy peak_rss_mb -12%.
MAX_SRC_LINES = 3249
# Parameter names of the run settings whose one default is RunConfig's (cli.py)
RUN_SETTINGS = {"act", "box_kind", "nc", "width", "img_size", "batch", "lr", "momentum",
                "seed", "rng"}


def test_defaulted_parameters_do_not_grow():
    n = len(list(defaulted_params(os.path.dirname(lightdet.__file__))))
    assert n <= MAX_DEFAULTED_PARAMS, (
        f"src/lightdet has {n} defaulted parameters, above {MAX_DEFAULTED_PARAMS}")


def test_source_lines_do_not_grow():
    paths = pathlib.Path(lightdet.__file__).parent.glob("*.py")
    n = sum(p.read_bytes().count(b"\n") for p in paths)
    assert n <= MAX_SRC_LINES, f"src/lightdet has {n} lines, above {MAX_SRC_LINES}"


def test_run_settings_have_one_default():
    # library calls take every run setting, and an rng, from their caller
    found = [f"{where} {fn}({param}=)" for where, fn, param
             in defaulted_params(os.path.dirname(lightdet.__file__)) if param in RUN_SETTINGS]
    assert not found, f"run settings defaulted outside RunConfig: {', '.join(found)}"


def test_defaults_the_benchmark_reads():
    # perfbench/workloads.py reads detect_images' max_det default and calls fit
    # without augment, so both defaults are part of what the benchmark measures
    assert inspect.signature(detect_images).parameters["max_det"].default == 300
    assert inspect.signature(fit).parameters["augment"].default is False


def test_detections_compare_as_plain_rows():
    # perfbench/workloads.py checks `dets == ref` on detect_images' output, so
    # it must be nested lists of Python floats: an ndarray's `==` gives no bool
    m = Light(nc=2, width=0.125, act="mish", img_size=64, rng=np.random.default_rng(1))
    x = np.random.default_rng(0).standard_normal((2, 3, 64, 64)).astype(np.float32)
    a, b = detect_images(m, x, conf_thr=0.001), detect_images(m, x, conf_thr=0.001)
    assert (a == b) is True
    rows = [row for img in a for row in img]
    assert type(a) is list and all(type(img) is list for img in a) and rows
    assert all(type(row) is list and len(row) == 6 for row in rows)
    assert all(type(v) is float for row in rows for v in row)
