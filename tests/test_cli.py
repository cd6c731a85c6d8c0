import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from helpers import ScriptedClock
import lightdet
from lightdet import checks, cli
from lightdet import model as model_mod
from lightdet.boxes import LOSS_KINDS
from lightdet.cli import (
    _THREAD_VARS, ACT_KINDS, BOX_KINDS, MAX_STRIDE, MODEL_KINDS, CliError, PROFILES,
    RunConfig, build_config, main, make_parser, parse_config_text,
)
from lightdet.tensor import ACT_PAIRS, Tensor, grad_check, no_grad


def _cfg(argv):
    return build_config(make_parser().parse_args(argv))


class TestConfigText:
    def test_basic_types(self):
        text = "img = 64\nlr = 0.05\nmodel = baseline\ncosine = true\n"
        got = parse_config_text(text)
        assert got == {"img": 64, "lr": 0.05, "model": "baseline", "cosine": True}

    def test_comments_and_blanks(self):
        text = "# full line\n\nbatch = 4  # trailing\n"
        assert parse_config_text(text) == {"batch": 4}

    def test_unknown_key(self):
        with pytest.raises(CliError, match="unknown key 'lr0'"):
            parse_config_text("lr0 = 0.01")

    def test_bad_value(self):
        with pytest.raises(CliError, match="cannot read 'fast'"):
            parse_config_text("lr = fast")

    def test_missing_equals(self):
        with pytest.raises(CliError, match="expected 'key = value'"):
            parse_config_text("just words")

    def test_bool_words(self):
        assert parse_config_text("augment = off") == {"augment": False}
        assert parse_config_text("augment = YES") == {"augment": True}


class TestPrecedence:
    def test_defaults(self):
        cfg = _cfg(["train"])
        assert cfg.img == 448 and cfg.batch == 16 and cfg.lr == 0.01
        assert cfg.box == "siou" and cfg.act == "mish" and cfg.momentum == 0.937

    def test_profile_layers_over_defaults(self):
        cfg = _cfg(["train", "--profile", "toy"])
        assert cfg.width == PROFILES["toy"]["width"]
        assert cfg.images == 64

    def test_paper_profile_is_the_defaults(self):
        assert _cfg(["train", "--profile", "paper"]) == _cfg(["train"])

    def test_file_overrides_profile(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("width = 0.5\n")
        cfg = _cfg(["train", "--profile", "toy", "--config", str(p)])
        assert cfg.width == 0.5

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("img = 96\nlr = 0.5\n")
        cfg = _cfg(["train", "--config", str(p), "--img", "64"])
        assert cfg.img == 64 and cfg.lr == 0.5

    def test_missing_config_file(self):
        with pytest.raises(CliError, match="cannot read config"):
            _cfg(["train", "--config", "/no/such/file.cfg"])


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("nc", 0), ("img", -32), ("epochs", 0), ("batch", 0), ("images", 0),
    ])
    def test_positive_ints(self, field, value):
        with pytest.raises(CliError, match="positive"):
            RunConfig(**{field: value}).validate()

    def test_momentum_range(self):
        with pytest.raises(CliError, match="momentum"):
            RunConfig(momentum=1.0).validate()

    def test_img_stride_multiple(self):
        with pytest.raises(CliError, match="multiple of 32"):
            RunConfig(img=100).validate()

    def test_enum_fields(self):
        with pytest.raises(CliError, match="box must be"):
            RunConfig(box="l2").validate()
        with pytest.raises(CliError, match="act must be"):
            RunConfig(act="relu6").validate()


def test_kind_lists_match_the_library_without_importing_numpy():
    # cli keeps its own copies because it must not import numpy before
    # --threads has set the BLAS variables
    assert BOX_KINDS == LOSS_KINDS
    assert set(ACT_KINDS) <= set(ACT_PAIRS)
    assert MAX_STRIDE == max(model_mod.STRIDES)
    for kind in MODEL_KINDS:
        m = model_mod.build_model(kind, nc=2, width=0.125, act="mish", img_size=64,
                                  rng=np.random.default_rng(0))
        assert m.kind == kind
    src = os.path.dirname(os.path.dirname(lightdet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import lightdet.cli, sys; assert 'numpy' not in sys.modules"],
                   env=env, check=True)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["cost", "--frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["deploy"]) == 1

    def test_missing_data(self, capsys):
        assert main(["train"]) == 1
        assert "--data" in capsys.readouterr().err

    def test_validation_exit(self):
        assert main(["eval", "--img", "100", "--data", "/tmp"]) == 1

    def test_runtime_exit(self, tmp_path, capsys):
        # weights path is a directory: opening it is an I/O failure, not bad input
        assert main(["bench", "--img", "32", "--width", "0.125",
                     "--weights", str(tmp_path)]) == 2
        assert "runtime failure" in capsys.readouterr().err


class TestThreads:
    def test_sets_env(self, monkeypatch):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        assert main(["cost", "--threads", "1"]) == 0
        for var in _THREAD_VARS:
            assert os.environ[var] == "1"

    def test_sets_env_from_config_file(self, monkeypatch, tmp_path):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\n")
        assert main(["cost", "--config", str(cfg)]) == 0
        for var in _THREAD_VARS:
            assert os.environ[var] == "1"


def _flags(parser) -> dict:
    """--name -> the parser's action for it, for every long option but --help."""
    return {s[2:]: a for a in parser._actions for s in a.option_strings
            if s.startswith("--") and s != "--help"}


class TestParser:
    """The flags are generated from RunConfig; these pin the names, choices and help users see."""

    def test_one_flag_per_field_plus_config_and_profile(self):
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert list(_flags(make_parser())) == ["config", "profile"] + fields

    def test_choices(self):
        flags = _flags(make_parser())
        assert tuple(flags["box"].choices) == ("iou", "giou", "ciou", "siou")
        assert tuple(flags["act"].choices) == ("mish", "silu")
        assert tuple(flags["model"].choices) == ("baseline", "light")
        assert tuple(flags["split"].choices) == ("train", "val", "test")
        assert list(flags["profile"].choices) == ["paper", "toy"]
        assert {n for n, a in flags.items() if a.choices} == {
            "box", "act", "model", "split", "profile"}

    def test_help_strings(self):
        helps = {n: a.help for n, a in _flags(make_parser()).items() if a.help}
        assert helps == {
            "config": "flat key = value file",
            "data": "dataset root directory",
            "weights": "checkpoint path",
            "images": "synth image count",
            "iters": "hard cap on optimizer steps (0 = epochs decide)",
            "cosine": "decay lr to 10%% of base over the run",
            "threads": "pin BLAS/OpenMP thread count (1 = bit-reproducible)",
        }

    def test_types_and_switches(self):
        args = make_parser().parse_args(
            ["train", "--nc", "3", "--lr", "0.5", "--data", "d", "--cosine"])
        assert (args.nc, args.lr, args.data, args.cosine) == (3, 0.5, "d", True)
        assert args.augment is None and args.img is None

    def test_bad_box_exits_1_as_flag_and_as_config_line(self, tmp_path, capsys):
        assert main(["cost", "--box", "l2"]) == 1
        assert "invalid choice: 'l2'" in capsys.readouterr().err
        p = tmp_path / "run.cfg"
        p.write_text("box = l2\n")
        assert main(["cost", "--config", str(p)]) == 1
        assert "box must be one of" in capsys.readouterr().err

    def test_readme_flags_paragraph_names_the_parser_flags(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        para = re.search(r"^Flags:(.*?)\n\n", text, re.M | re.S).group(1)
        documented = {name: tuple(choices.split("|")) if choices else None
                      for name, choices in re.findall(r"--(\w+)(?:\s+\{([^}]*)\})?", para)}
        parsed = {name: tuple(a.choices) if a.choices else None
                  for name, a in _flags(make_parser()).items()}
        assert documented == parsed


class TestCost:
    def test_tsv_shape_and_budgets(self, capsys):
        assert main(["cost"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        totals = {}
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 3, f"not 3-column TSV: {line!r}"
            name, a, b = parts
            if name.endswith(".total"):
                totals[name.split(".")[0]] = (int(a), int(b))
            elif name != "reduction_pct":
                int(a), int(b)
        assert totals["baseline"][0] == pytest.approx(1_770_000, rel=0.05)
        assert totals["light"][0] == pytest.approx(1_290_000, rel=0.08)
        red = lines[-1].split("\t")
        assert red[0] == "reduction_pct"
        assert float(red[1]) == pytest.approx(27.1, abs=3.0)
        assert float(red[2]) == pytest.approx(19.1, abs=3.0)

    def test_deterministic(self, capsys):
        main(["cost"])
        first = capsys.readouterr().out
        main(["cost"])
        assert capsys.readouterr().out == first

    def test_matches_frozen_table(self, capsys):
        # pins every row's params and FLOPs, not only the totals
        path = os.path.join(os.path.dirname(__file__), "data", "cost_640.tsv")
        with open(path, encoding="utf-8") as fh:
            frozen = fh.read()
        assert main(["cost"]) == 0
        assert capsys.readouterr().out == frozen


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    code = main(["synth", "--data", str(root), "--images", "12", "--img", "64",
                 "--seed", "5"])
    assert code == 0
    return str(root)


TRAIN_ARGS = ["--img", "64", "--width", "0.125", "--epochs", "2",
              "--batch", "4", "--lr", "0.01", "--seed", "5"]


class TestSynth:
    def test_layout(self, tiny_dataset):
        assert len(os.listdir(os.path.join(tiny_dataset, "images"))) == 12
        assert len(os.listdir(os.path.join(tiny_dataset, "labels"))) == 12
        assert os.path.exists(os.path.join(tiny_dataset, "split_5.txt"))

    def test_needs_data_flag(self):
        assert main(["synth"]) == 1

    def test_rewrite_splits_every_image_it_wrote(self, tmp_path, capsys):
        root = str(tmp_path / "ds")
        for n in (12, 30):
            assert main(["synth", "--data", root, "--images", str(n), "--img", "64"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("(train 24, val 3, test 3)")
        with open(os.path.join(root, "split_0.txt")) as fh:
            stems = sorted(line.split("\t")[0] for line in fh)
        assert stems == [f"synth_{i:05d}" for i in range(30)]

    def test_too_few_images_fail_before_writing(self, tmp_path, capsys):
        root = tmp_path / "ds"
        assert main(["synth", "--data", str(root), "--images", "9", "--img", "64"]) == 1
        assert not root.exists()
        assert "--images 10 or more" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fit_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fit")
    assert main(["synth", "--data", str(root), "--images", "30", "--img", "64",
                 "--seed", "5"]) == 0
    return str(root)


# On fit_dataset this run logs val map50 0.2500 first at epoch 21 and again at
# the last, epoch 23: best and last are different files with a figure above 0.
FIT_ARGS = ["--img", "64", "--width", "0.125", "--epochs", "24", "--batch", "4",
            "--lr", "0.2", "--cosine", "--seed", "5"]


def _eval_map50(dataset, split, weights, capsys) -> str:
    assert main(["eval", "--data", dataset, "--split", split, "--weights", weights]
                + FIT_ARGS) == 0
    return re.search(r"map50 ([\d.]+)$", capsys.readouterr().out.strip()).group(1)


class TestTrain:
    def test_epoch_lines_and_checkpoint(self, fit_dataset, tmp_path, capsys):
        ckpt = str(tmp_path / "model.ckpt")
        last = str(tmp_path / "last.ckpt")
        code = main(["train", "--data", fit_dataset, "--weights", ckpt] + FIT_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("epoch")]
        assert len(rows) == 24
        for row in rows:
            assert re.search(r"box [\d.]+ {2}obj [\d.]+ {2}cls [\d.]+", row)
            assert "map50" in row
        assert os.path.getsize(ckpt) > 1000
        assert os.path.getsize(last) > 1000
        m = re.search(r"best checkpoint (\S+) \((\w+)_map50 ([\d.]+) at epoch (\d+)\); "
                      r"last checkpoint (\S+) \(epoch 23\)", out)
        assert m, out
        best_path, split, best_map50, best_epoch, last_path = m.groups()
        assert (best_path, last_path) == (ckpt, last)
        last_map50 = re.search(r"map50 ([\d.]+)$", rows[-1]).group(1)
        assert float(best_map50) > 0 and float(last_map50) > 0, out
        with open(ckpt, "rb") as a, open(last, "rb") as b:
            assert (a.read() == b.read()) == (best_epoch == "23")
        # each file reproduces, on the logged split, the figure train printed for it
        assert _eval_map50(fit_dataset, split, ckpt, capsys) == best_map50
        assert _eval_map50(fit_dataset, split, last, capsys) == last_map50

    def test_same_seed_same_trace(self, tiny_dataset, tmp_path, capsys):
        a = str(tmp_path / "a.ckpt")
        b = str(tmp_path / "b.ckpt")
        main(["train", "--data", tiny_dataset, "--weights", a] + TRAIN_ARGS)
        first = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("epoch")]
        main(["train", "--data", tiny_dataset, "--weights", b] + TRAIN_ARGS)
        second = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("epoch")]
        assert first == second

    def test_unreadable_dataset_fails_before_training(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "void")] + TRAIN_ARGS) == 1

    def test_diverging_lr_exits_2_without_last_checkpoint(self, tiny_dataset, tmp_path,
                                                          capsys):
        # epoch 0 ends with a finite loss and is the best so far; a later step
        # diverges, and the best checkpoint of epoch 0 must not be left behind
        ckpt = str(tmp_path / "model.ckpt")
        with np.errstate(all="ignore"):
            code = main(["train", "--data", tiny_dataset, "--weights", ckpt]
                        + TRAIN_ARGS + ["--lr", "1e6"])
        assert code == 2
        out, err = capsys.readouterr()
        assert re.search(r"runtime failure: FloatingPointError: step \d+: ", err)
        assert re.search(r"^epoch +0 .*val_map50", out, re.M)
        assert os.listdir(tmp_path) == []

    def test_diverging_run_leaves_an_earlier_checkpoint_untouched(self, tiny_dataset,
                                                                  tmp_path):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"earlier run")
        with np.errstate(all="ignore"):
            assert main(["train", "--data", tiny_dataset, "--weights", str(ckpt)]
                        + TRAIN_ARGS + ["--lr", "1e6"]) == 2
        assert ckpt.read_bytes() == b"earlier run"
        assert sorted(os.listdir(tmp_path)) == ["model.ckpt"]

    def test_weights_named_last_fails_before_training(self, tiny_dataset, tmp_path,
                                                      capsys):
        ckpt = str(tmp_path / "last.ckpt")
        assert main(["train", "--data", tiny_dataset, "--weights", ckpt]
                    + TRAIN_ARGS) == 1
        assert "cannot be named last.ckpt" in capsys.readouterr().err
        assert not os.path.exists(ckpt)

    def test_split_without_boxes_fails_before_training(self, tmp_path, capsys):
        # empty label files are negative images; a split of only those cannot be scored
        root = tmp_path / "ds"
        assert main(["synth", "--data", str(root), "--images", "12", "--img", "64",
                     "--seed", "5"]) == 0
        for line in (root / "split_5.txt").read_text().splitlines():
            stem, tag = line.split("\t")
            if tag == "val":
                (root / "labels" / f"{stem}.txt").write_text("")
        for argv in (["train"] + TRAIN_ARGS, ["eval", "--split", "val"] + TRAIN_ARGS):
            assert main(argv + ["--data", str(root)]) == 1
            assert f"split 'val' of {root} has no labelled box" in capsys.readouterr().err
        assert not [f for f in os.listdir(root) if f.endswith((".ckpt", ".tmp"))]

    def test_malformed_val_label_fails_before_training(self, tmp_path, capsys):
        root = tmp_path / "ds"
        assert main(["synth", "--data", str(root), "--images", "12", "--img", "64",
                     "--seed", "5"]) == 0
        stem = next(line.split("\t")[0] for line in (root / "split_5.txt").read_text().splitlines()
                    if line.endswith("\tval"))
        label = root / "labels" / f"{stem}.txt"
        label.write_text("7 0.5 0.5 0.2 0.2\n")
        assert main(["train", "--data", str(root)] + TRAIN_ARGS) == 1
        assert f"{label}:1: class 7 outside [0, 2)" in capsys.readouterr().err
        assert not [f for f in os.listdir(root) if f.endswith((".ckpt", ".tmp"))]

    def test_manifest_without_val_selects_on_the_train_split(self, tmp_path, capsys):
        root = tmp_path / "ds"
        assert main(["synth", "--data", str(root), "--images", "12", "--img", "64",
                     "--seed", "5"]) == 0
        manifest = root / "split_5.txt"
        manifest.write_text(manifest.read_text().replace("\tval\n", "\ttest\n"))
        assert main(["train", "--data", str(root)] + TRAIN_ARGS) == 0
        out = capsys.readouterr().out
        assert re.search(r"^epoch +1 .*train_map50", out, re.M)
        assert "(train_map50 " in out


class TestEval:
    def test_report_shape(self, tiny_dataset, capsys):
        code = main(["eval", "--data", tiny_dataset, "--img", "64",
                     "--width", "0.125", "--split", "train", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"class 0 {2}ap50 [\d.]+ {2}gt \d+", out)
        assert re.search(r"precision [\d.]+ {2}recall [\d.]+ {2}map50 [\d.]+", out)

    def test_random_weights_near_zero_map(self, tiny_dataset, capsys):
        main(["eval", "--data", tiny_dataset, "--img", "64", "--width", "0.125",
              "--split", "train", "--seed", "5"])
        out = capsys.readouterr().out
        map50 = float(re.search(r"map50 ([\d.]+)", out).group(1))
        assert map50 < 0.05

    def test_deterministic(self, tiny_dataset, capsys):
        args = ["eval", "--data", tiny_dataset, "--img", "64",
                "--width", "0.125", "--split", "train", "--seed", "5"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_class_count_mismatch(self, tiny_dataset, tmp_path, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        assert main(["train", "--data", tiny_dataset, "--weights", ckpt]
                    + TRAIN_ARGS) == 0
        capsys.readouterr()
        code = main(["eval", "--data", tiny_dataset, "--img", "64",
                     "--width", "0.125", "--seed", "5", "--nc", "3",
                     "--weights", ckpt])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        # same tensors and shapes, other activation: only the config differs
        code = main(["eval", "--data", tiny_dataset, "--img", "64",
                     "--width", "0.125", "--seed", "5", "--act", "silu",
                     "--weights", ckpt])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_yolov5_arm_round_trips_and_names_both_configs(self, tmp_path, capsys,
                                                            monkeypatch):
        # the baseline graph trained as YOLOv5 trains it: SiLU and CIoU
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)  # --threads sets them
        root, ckpt = str(tmp_path / "ds"), str(tmp_path / "best.ckpt")
        assert main(["synth", "--data", root, "--images", "12", "--img", "64"]) == 0
        arm = ["--model", "baseline", "--width", "0.125", "--img", "64", "--threads", "1"]
        assert main(["train", "--data", root, "--weights", ckpt, "--act", "silu",
                     "--box", "ciou", "--iters", "2"] + arm) == 0
        last = str(tmp_path / "last.ckpt")
        assert main(["eval", "--data", root, "--weights", last, "--act", "silu"] + arm) == 0
        capsys.readouterr()
        assert main(["eval", "--data", root, "--weights", last, "--act", "mish"] + arm) == 1
        err = capsys.readouterr().err
        for act in ("silu", "mish"):
            assert f"{{'kind': 'baseline', 'nc': 2, 'width': 0.125, 'act': '{act}'}}" in err


class TestBench:
    def _run(self, capsys, width="0.125"):
        assert main(["bench", "--img", "64", "--width", width, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"mean_ms ([\d.]+) {2}p95_ms ([\d.]+) {2}fps ([\d.]+)", out)
        assert m, out
        return tuple(float(g) for g in m.groups())

    def test_reports_positive_and_stable(self, capsys, monkeypatch):
        # real clock: only what holds on any host
        mean, p95, fps = self._run(capsys)
        assert mean > 0 and p95 >= mean * 0.5 and fps > 0
        # fps is 1000/mean up to the rounding of both printed figures
        half = 0.005  # half a unit in the last printed place
        assert abs(fps - 1e3 / mean) <= 1e3 * half / (mean * (mean - half)) + half

        # scripted clock: the first detect of each run is slow and the rest
        # cost STEADY; both runs read STEADY only if warm-up absorbs the cold call
        real_detect = model_mod.detect_images
        runs = []
        for _ in range(2):
            clock = ScriptedClock()

            def timed_detect(*args, clock=clock, **kwargs):
                out = real_detect(*args, **kwargs)
                clock.tick()
                return out

            monkeypatch.setattr(cli, "time", clock)
            monkeypatch.setattr(model_mod, "detect_images", timed_detect)
            runs.append(self._run(capsys))
        steady_ms = ScriptedClock.STEADY * 1e3
        assert runs[0] == runs[1]
        assert runs[0] == pytest.approx((steady_ms, steady_ms, 1e3 / steady_ms),
                                        abs=half)

    def test_figures_are_mean_and_p95_of_the_timed_calls(self, capsys, monkeypatch):
        # scripted clock that starts once warm-up is over: the first timed
        # detect costs COLD and the rest STEADY
        clock, calls = ScriptedClock(), []
        real_detect = model_mod.detect_images

        def timed_detect(*args, **kwargs):
            out = real_detect(*args, **kwargs)
            calls.append(out)
            if len(calls) > cli.BENCH_WARMUP:
                clock.tick()
            return out

        monkeypatch.setattr(cli, "time", clock)
        monkeypatch.setattr(model_mod, "detect_images", timed_detect)
        got = self._run(capsys)
        assert len(calls) == cli.BENCH_WARMUP + cli.BENCH_REPS
        times = [ScriptedClock.COLD * 1e3] + [ScriptedClock.STEADY * 1e3] * (cli.BENCH_REPS - 1)
        mean = np.mean(times)
        assert got == pytest.approx((mean, np.percentile(times, 95), 1e3 / mean), abs=0.005)

    def test_wider_model_slower(self, capsys):
        mean_small, _, _ = self._run(capsys, width="0.125")
        mean_big, _, _ = self._run(capsys, width="0.5")
        assert mean_big > mean_small


def _wrong_gradient_probe() -> float:
    # forward computes t*t, but the second factor is rebuilt outside the
    # graph each call, so the analytic gradient reports x instead of 2x
    x = Tensor(np.linspace(0.5, 1.5, 5), requires_grad=True)

    def f(t):
        with no_grad():
            const = Tensor(t.data.copy())
        return (t * const).sum()

    err, _ = grad_check(f, [x])
    return err


class TestGradcheckCmd:
    def test_cli_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= len(checks.CHECKS)
        assert "FAIL" not in out
        for line in out.splitlines()[:-1]:
            assert re.search(r"max_err \d\.\d{3}e[+-]\d{2}", line)

    def test_registry_covers_required_layers(self):
        need = {"conv2d", "conv1x1", "conv_strided_grouped", "conv_stem",
                "conv_output_side",
                "depthwise_conv", "max_pool_sppf", "max_pool_strided",
                "layernorm",
                "mish", "mish_wide", "relu", "silu", "gelu", "window_attention",
                "cross_window_attention", "sepvit_block", "c3", "dss_conv", "dss_c3",
                "gam", "gam_bottleneck", "training_loss"}
        need |= {f"box_{k}" for k in ("iou", "giou", "ciou", "siou")}
        need |= {f"bn_act_{a}" for a in ("mish", "relu", "silu", "gelu")}
        assert need <= set(checks.CHECKS)

    def test_injected_wrong_gradient_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "CHECKS", {"conv2d": checks.CHECKS["conv2d"],
                                               "stub": _wrong_gradient_probe})
        results = checks.run_checks()
        assert [r.name for r in results] == ["conv2d", "stub"]
        assert results[0].ok and not results[1].ok
        assert main(["gradcheck"]) == 2
        out = capsys.readouterr().out
        assert re.search(r"^stub +max_err .* FAIL", out, re.M)
        assert "1/2 checks passed" in out
