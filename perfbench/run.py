"""lightdet benchmark: one workload per process, single-threaded BLAS.

    python3 perfbench/run.py --workload train_toy --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 [--record FILE]

Run from the root of a lightdet source tree; the library is imported from its
`src/`. With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics that BENCHMARK.json names; with `--trace 1` it holds the
per-layer metrics of a separate, traced run. A full record of each run, with
its context, goes to `perfbench/out/`. `--workload all` runs every workload,
untraced and then traced, each in its own process, and prints one table.

The gated times are normalised to a reference kernel timed between ops and
between set-ups (see reference.py), so that they follow lightdet and not the
drifting speed of a shared host; the raw times are printed and recorded too.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5
WORKLOAD_NAMES = ("train_toy", "detect_448", "eval_toy")


class SetupError(Exception):
    """The tree cannot be benchmarked: no lightdet sources, or the wrong ones."""


def import_lightdet():
    """Pins BLAS to one thread, as `lightdet --threads 1` does, then imports
    numpy and the library from this tree's `src/`, never an installed copy."""
    src = ROOT / "src"
    if not (src / "lightdet" / "__init__.py").is_file():
        raise SetupError(f"no lightdet sources under {src}")
    sys.path.insert(0, str(src))
    from lightdet.cli import _THREAD_VARS  # stdlib-only module, safe before numpy

    for var in _THREAD_VARS:
        os.environ[var] = "1"
    import lightdet

    if Path(lightdet.__file__).resolve().parent != (src / "lightdet").resolve():
        raise SetupError(f"lightdet was imported from {lightdet.__file__}, not {src}")
    import workloads  # numpy and the heavy lightdet modules load here

    return workloads, _THREAD_VARS


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def run_context(args, thread_vars) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        rev = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lightdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        "git_rev": rev, "src_sha256": digest.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
    }


def run_one(args) -> int:
    try:
        wl_mod, thread_vars = import_lightdet()
    except (SetupError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    import_s = time.perf_counter() - T_START
    from measure import Tracer, normalised, per_window, summarize_ms
    from reference import REF_MS, Reference

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    context = run_context(args, thread_vars)
    ref = Reference(wl_mod.WORKLOADS[args.workload].ref_stream_mb)
    work = OUT / f"work-{os.getpid()}"
    try:
        reps = []
        setup_ref_ms = [ref.run()]
        for k in range(SETUP_REPS):
            # a fresh workload each time: the last set-up's state is freed
            # first, so the peak RSS does not hold two of them
            wl = None
            wl = wl_mod.WORKLOADS[args.workload](args.seed)
            t: dict = {}
            t0 = time.perf_counter()
            wl.setup(str(work / f"rep{k}"), t)
            t["total_s"] = time.perf_counter() - t0
            setup_ref_ms.append(ref.run())
            reps.append(t)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reps_s = [r["total_s"] for r in reps]
    setup_s = import_s + statistics.median(reps_s)
    setup_norm = normalised(reps_s, setup_ref_ms, REF_MS)
    # the import ran before numpy could time the reference: scale it by the median
    import_norm = import_s * statistics.median(s / r for s, r in zip(setup_norm, reps_s))
    warm = wl.warmup(args.seconds)
    tracer = Tracer() if args.trace else None
    res = wl.measure(args.seconds, tracer, ref)

    op_ms = wl_mod.durations_ms(res.windows["op"])
    if not op_ms:
        print(f"error: no op completed; {res.failures}", file=sys.stderr)
        return 2
    ru0, ru1 = res.ru0, res.ru1
    e2e = {
        "op_ms_norm": statistics.median(normalised(op_ms, res.ref_ms, REF_MS)),
        "setup_s": import_norm + statistics.median(setup_norm),
        "peak_rss_mb": ru1.ru_maxrss / 1024,
    }
    named = {"error_rate": [res.failed / max(res.attempted, 1), "ratio"],
             "ops_timed": [len(op_ms), "count"],
             "op_ms_p50": [statistics.median(op_ms), "ms"],
             "setup_raw_s": [setup_s, "s"],
             "ref_ms_p50": [statistics.median(res.ref_ms), "ms"]}
    named.update(wl.named(res))
    layer = {k: statistics.median(r[k] for r in reps) for k in reps[0] if k != "total_s"}
    layer.update(res.extra)
    layer.update({
        "op.ms_p50": named["op_ms_p50"][0],
        "proc.minflt_per_op": (ru1.ru_minflt - ru0.ru_minflt) / len(op_ms),
        "proc.sys_share": (ru1.ru_stime - ru0.ru_stime) / (res.t1 - res.t0),
    })
    if tracer is not None:
        layer.update(wl_mod.span_metrics(per_window(tracer, res.windows[wl.main_kind])))
        if "baseline" in res.windows:
            layer.update(wl_mod.span_metrics(per_window(tracer, res.windows["baseline"]), "base."))
    if "light_over_baseline_p50" in named:
        layer["detect.light_ms_p50"] = named["light_ms_p50"][0]
        layer["detect.baseline_ms_p50"] = named["baseline_ms_p50"][0]
        layer["detect.light_over_baseline"] = named["light_over_baseline_p50"][0]

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else e2e
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in group}
    record = {
        "context": context, "import_s": import_s, "setup_reps": reps, "warmup": warm,
        "end_to_end": e2e, "named": named, "op_ms": summarize_ms(op_ms), "op_ms_all": op_ms,
        "ref_ms_all": res.ref_ms, "setup_ref_ms": setup_ref_ms,
        "per_layer": layer if args.trace else None,
        "attempted": res.attempted, "failed": res.failed, "failures": res.failures,
        "spans": ([[s.name, s.start, s.end, s.parent] for s in tracer.spans]
                  if tracer is not None else None),
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(op_ms)} timed ops, "
          f"{warm['ops']} warm-up ops (settled: {warm['settled']}), record {out_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in named.items():
            print(f"{name:28s} {value:14.6g} {unit}")
    for msg in res.failures:
        print(f"FAILED: {msg}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    table: dict = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            rec = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json")
                             .read_text(encoding="utf-8"))
            table.setdefault(name, {})["traced" if trace else "untraced"] = rec
    summary: dict = {"context": table[WORKLOAD_NAMES[0]]["untraced"]["context"],
                     "workloads": {}}
    for name, recs in table.items():
        plain, traced = recs["untraced"], recs["traced"]
        # normalised times, so that host drift between the two runs cancels
        overhead = traced["end_to_end"]["op_ms_norm"] - plain["end_to_end"]["op_ms_norm"]
        summary["workloads"][name] = {
            "end_to_end": plain["end_to_end"], "named": plain["named"],
            "warmup": plain["warmup"],
            "loadavg_at_start": {"untraced": plain["context"]["loadavg_at_start"],
                                 "traced": traced["context"]["loadavg_at_start"]},
            "errors": plain["failed"] + traced["failed"],
            "tracing_overhead_ms": overhead,
            "tracing_overhead_share": overhead / plain["end_to_end"]["op_ms_norm"],
            "per_layer": traced["per_layer"],
        }
    summary["context"]["workload"] = "all"
    del summary["context"]["loadavg_at_start"]
    print(format_table(summary))
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["errors"] == 0 for w in summary["workloads"].values()) else 1


def format_table(summary: dict) -> str:
    wls = summary["workloads"]
    names = list(wls)
    lines = [f"{'metric':30s}" + "".join(f"{n:>14s}" for n in names)]

    def row(label, values):
        lines.append(f"{label:30s}" + "".join(
            f"{v:14.4g}" if isinstance(v, (int, float)) else f"{'-':>14s}" for v in values))

    for key in wls[names[0]]["end_to_end"]:
        row(key, [w["end_to_end"][key] for w in wls.values()])
    for key in sorted({k for w in wls.values() for k in w["named"]}):
        row(key, [w["named"].get(key, [None])[0] for w in wls.values()])
    row("tracing_overhead_ms", [w["tracing_overhead_ms"] for w in wls.values()])
    row("warmup_ops", [w["warmup"]["ops"] for w in wls.values()])
    lines.append("per layer (traced run; absent layers are 0)")
    for key in sorted({k for w in wls.values() for k in w["per_layer"]}):
        row("  " + key, [w["per_layer"].get(key) for w in wls.values()])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", default=None,
                   help="with --workload all: write the summary JSON here")
    args = p.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    if args.seed < 0 or args.seconds <= 0:
        p.error("seed must be >= 0 and seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
