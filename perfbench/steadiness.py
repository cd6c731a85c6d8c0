"""Run-to-run spread of the end-to-end metrics, as the benchmark's gate sees it.

    python3 perfbench/steadiness.py --seeds 11-20 [--workloads train_toy,eval_toy]
        [--seconds 25] [--record FILE]

Runs `run.py --trace 0` once per workload and seed, one run at a time, and
prints for each end-to-end metric the median of the runs and the spread:
the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("11-20"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--record", default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            runs.append({"seed": seed, "wall_s": wall,
                         **{k: m["value"] for k, m in result["metrics"].items()}})
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values) if len(values) > 1 else None,
                             "third_of_bound": bound / 3, "values": values}
            print(f"  {wl} {name}: median {summary[name]['median']:.4g}, spread "
                  f"{summary[name]['spread'] or 0:.3f} (a third of the bound: {bound / 3:.3f})")
        out["workloads"][wl] = {"metrics": summary,
                                "wall_s": [r["wall_s"] for r in runs]}
    if args.record:
        Path(args.record).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
