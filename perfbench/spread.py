"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace-seed N] [--out FILE]

For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound in
BENCHMARK.json, then the same for the op statistics the report prints but
BENCHMARK.json does not bound. With --out it writes every run's values
there, which is how perfbench/baseline.json is recorded; --trace-seed adds
one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNBOUNDED = ("op_p10_s", "op_p50_s", "op_tail_s", "ops_per_s",
             "cli_pattern_s", "cli_ratio_sweep_s", "cli_stability_s", "cli_scan_s")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t
    result["seed"] = seed
    path = next(line.split("result: ", 1)[1] for line in lines if line.startswith("  result: "))
    result["report"] = json.loads(Path(path).read_text())["report"]
    return result


def spread(values: list) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, bench["run_seconds"], 0) for s in _seeds(args.seeds)]
        runs[workload] = {"untraced": results}
        print(f"{workload}: {len(results)} runs, {sum(r['wall_s'] for r in results):.0f} s, "
              f"correct={all(r['correct'] for r in results)} "
              f"failed={[r['failed'] for r in results]}/{[r['attempted'] for r in results]}")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            share = spread(values)
            steady = metric["name"] == "setup_s" or share < metric["bound"] / 3
            ok &= steady
            print(f"  {metric['name']:12s} median {statistics.median(values):.6g} {metric['unit']:5s} "
                  f"spread {share:.4f} bound {metric['bound']} {'ok' if steady else 'NOT STEADY'}")
        for name in UNBOUNDED:  # printed for comparison by hand
            values = [r["report"][name] for r in results if name in r["report"]]
            if values and all(math.isfinite(v) for v in values):
                print(f"  {name:12s} median {statistics.median(values):.6g} {'':5s} "
                      f"spread {spread(values):.4f} (not bounded)")
        if args.trace_seed is not None:
            runs[workload]["traced"] = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
