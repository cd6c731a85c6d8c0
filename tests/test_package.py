import inspect
import os
import pathlib

import lightdet
from lightdet.model import detect_images
from lightdet.train import fit

from helpers import defaulted_params

# A parameter that no caller passes is an option nobody uses. A change that
# needs a new defaulted parameter raises this number and names the caller.
MAX_DEFAULTED_PARAMS = 41
# Lines of src/lightdet/*.py, as `wc -l` counts them. A change that raises
# this number names why: a measured gain or a closed bug. 3246 -> 3258: class-split
# NMS, eval_toy op_ms_norm -14%. 3258 -> 3277: synth blobs rendered on their own
# windows and a split decoded into one buffer, detect_448 setup_s -34%.
MAX_SRC_LINES = 3277
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
