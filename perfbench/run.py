"""tiltbeam benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Runs from the root of a source checkout; the package is imported from
`src/`, nothing needs installing. Every workload is a closed loop with one
client and one single-threaded worker process at a time. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). The lines before it name every metric with its unit, and the
whole result, with per-op samples and the machine block, is written to
`.perfbench_work/`.

--trace 1 runs a fixed, seed-determined op list twice, in fresh processes:
untraced, then with the tracer installed. Per-layer numbers come from the
traced pass; tracing overhead is the traced total minus the untraced total.

--quick makes the --trace 1 run of every workload with a handful of ops, to
keep this harness exercised (see test_perfbench_quick.py). Its numbers are
not measurements: it skips the cli_cold commands that evaluate the post and
sets up once. Its run time is mostly four J0 calibrations, one per warm
worker.
"""

from __future__ import annotations

import argparse
import functools
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

# Workers and CLI processes are pinned to one thread each: nproc is 2 and
# the driver itself needs a core.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
# Set-up is repeated in each run and its median reported. A warm set-up
# pays the 7-10 s J0 calibration, so warm runs set up twice; each further
# set-up would add another calibration to every warm run.
CLI_SETUPS = 5
WARM_SETUPS = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_BEYOND = 10
# A run must end within 180 s; workers still alive at this point are killed.
DEADLINE_S = 170.0
CONSOLE = "import sys; from tiltbeam.cli import main; sys.exit(main())"

# ---------------------------------------------------------------------------
# Workload definitions. Operations come from --seed alone; workers receive
# only the generated inputs.

CLI_CONFIGS = {
    "default": {},
    "band": {"frequency_grid": {"start_ghz": 28.0, "stop_ghz": 38.0, "step_ghz": 1.0}},
    # Exits 3 (quadrature budget exhausted) at the commit that added this
    # benchmark. It stays in the workload at this size so the defect shows
    # in failed_frac until it is fixed; do not drop or shrink it.
    "large_ground": {"geometry": {"monopole": {"ground_radius_mm": 300.0}}},
}
# (op name, CLI command, config); the op name is the reference directory.
CLI_OPS = (
    ("pattern", "pattern", "default"),
    ("ratio_sweep", "ratio-sweep", "default"),
    ("stability", "stability", "band"),
    ("scan", "scan", "default"),
    ("resonance", "resonance", "default"),
    ("loss", "loss", "default"),
    ("pattern_large_ground", "pattern", "large_ground"),
)
QUICK_CLI_OPS = ("scan", "resonance", "loss")

# design_sweep draws ka = k * ground radius, which sets the quadrature cost,
# near the centres of equal strata of [1.5, 6.5], one geometry per stratum
# per cycle, so every cycle carries the same spread of problem size (0.3-1.6
# s per geometry at the commit that added this benchmark) and seeds differ
# in values, not in the size mix. The 16 ops of a run could not average out
# a size mix drawn at random.
DESIGN_KA = (1.5, 6.5)
DESIGN_STRATA = 16
DESIGN_JITTER = 0.1  # share of a stratum's width
DESIGN_SPOTS = 3

# warm_reuse's pool: four geometries whose fields set-up computes, 4 x 361
# entries of the package's field cache.
WARM_POOL = (
    {"monopole": {"height_mm": 1.2, "ground_radius_mm": 2.0, "current_model": "sinusoidal"},
     "array": {"count_nx": 1, "count_ny": 2}, "f_ghz": 32.4},
    {"monopole": {"height_mm": 1.0, "ground_radius_mm": 1.5, "current_model": "triangular"},
     "array": {"count_nx": 2, "count_ny": 1, "spacing_dx_mm": 1.5}, "f_ghz": 38.0},
    {"monopole": {"height_mm": 1.5, "ground_radius_mm": 2.5, "current_model": "sinusoidal"},
     "array": {"count_nx": 3, "count_ny": 1, "spacing_dx_mm": 1.2}, "f_ghz": 28.0},
    {"monopole": {"height_mm": 0.8, "ground_radius_mm": 1.2, "current_model": "triangular"},
     "array": {"count_nx": 1, "count_ny": 1}, "f_ghz": 44.0},
)
WARM_TRACE_OPS = 20
# design_sweep's first monopole_pattern call, made in set-up: a small disc no
# op draws, so set-up pays the calibration and little else.
DESIGN_FIRST = {"geometry": {"monopole": {"ground_radius_mm": 1.0}},
                "frequency_grid": {"start_ghz": 20.0, "stop_ghz": 20.0, "step_ghz": 1.0}}
SUBSTRATES = ("FR4", "RO4003", "RO5880", "F4B", "TU768")


def _ratios(rng: random.Random) -> list:
    return sorted(rng.uniform(0.05, 1.5) for _ in range(10))


def _frequency(f_ghz: float, count: int = 1, step: float = 1.0) -> dict:
    return {"start_ghz": f_ghz, "stop_ghz": f_ghz + (count - 1) * step, "step_ghz": step}


def design_ops(seed: int, quick: bool = False):
    """Endless stream of (op, starts_cycle): one unseen geometry per op."""
    rng = random.Random(f"design_sweep:{seed}")
    width = (DESIGN_KA[1] - DESIGN_KA[0]) / DESIGN_STRATA
    centres = [1.25] if quick else [DESIGN_KA[0] + (i + 0.5) * width for i in range(DESIGN_STRATA)]
    while True:
        order = list(centres)
        rng.shuffle(order)
        for position, centre in enumerate(order):
            ka = centre + rng.uniform(-DESIGN_JITTER, DESIGN_JITTER) * width
            while True:  # frequency in 20-45 GHz with a 1-12 mm ground disc
                f_ghz = rng.uniform(20.0, 45.0)
                radius_mm = ka * 300.0 / (2.0 * math.pi * f_ghz)
                if 1.0 <= radius_mm <= 12.0:
                    break
            config = {
                "geometry": {
                    "monopole": {"height_mm": rng.uniform(0.8, 1.6), "ground_radius_mm": radius_mm,
                                 "current_model": rng.choice(("sinusoidal", "triangular"))},
                    "array": {"count_nx": rng.randint(1, 4), "count_ny": rng.randint(1, 2),
                              "spacing_dx_mm": rng.uniform(0.8, 1.6), "spacing_dy_mm": rng.uniform(0.8, 1.6)},
                },
                "frequency_grid": _frequency(f_ghz),
                "weights": {"ratios": _ratios(rng)},
            }
            spots = [math.radians(0.25 * i) for i in sorted(rng.sample(range(1, 361), DESIGN_SPOTS))]
            yield {"type": "op", "workload": "design_sweep", "config": config, "spot_theta": spots}, position == 0


def _pool_config(member: dict) -> dict:
    geometry = {k: member[k] for k in ("monopole", "array")}
    return {"geometry": geometry, "frequency_grid": _frequency(member["f_ghz"])}


def warm_ops(seed: int, pool_size: int):
    """Endless stream of (op, starts_cycle) over the pool's geometries."""
    rng = random.Random(f"warm_reuse:{seed}")
    while True:
        member = WARM_POOL[rng.randrange(pool_size)]
        config = _pool_config(member)
        config["geometry"]["strip"] = {
            "substrate": rng.choice(SUBSTRATES), "width_mm": rng.uniform(0.15, 0.4),
            "length_mm": rng.uniform(1.5, 2.5), "roughness_um": rng.uniform(0.0, 1.0),
        }
        config["frequency_grid"] = _frequency(member["f_ghz"], rng.randint(5, 10), rng.uniform(0.5, 1.5))
        config["weights"] = {"s1": rng.uniform(0.5, 1.5), "s2": rng.uniform(0.05, 1.0), "ratios": _ratios(rng)}
        yield {"type": "op", "workload": "warm_reuse", "config": config}, True


def cli_ops(seed: int, quick: bool = False):
    """Endless stream of (op, starts_cycle): each cycle runs every command once."""
    rng = random.Random(f"cli_cold:{seed}")
    ops = [op for op in CLI_OPS if op[0] in QUICK_CLI_OPS] if quick else list(CLI_OPS)
    while True:
        order = list(ops)
        rng.shuffle(order)
        for position, op in enumerate(order):
            yield op, position == 0


# ---------------------------------------------------------------------------
# Processes


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(0.1, self.end - time.monotonic())


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn_wait(argv, deadline: Deadline, log: Path):
    """Run a process to completion: (exit code, wall s, peak RSS MB).

    The child's ru_maxrss includes this driver's resident set at fork, a
    stdlib-only process well below a tiltbeam process that has imported numpy.
    """
    with open(log, "w", encoding="utf-8") as out:
        t = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        timer = threading.Timer(deadline.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class WorkerDied(RuntimeError):
    pass


class Worker:
    """A warm worker process, spoken to in JSON lines."""

    def __init__(self, deadline: Deadline, log: Path, trace_path: Path | None = None):
        self.spawned = time.monotonic()
        argv = [sys.executable, str(WORKER), "warm", "--spawned", repr(self.spawned)]
        if trace_path:
            argv += ["--trace", str(trace_path)]
        self.log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
                                     env=_env(), cwd=ROOT, text=True)
        self.timer = threading.Timer(deadline.left(), self.proc.kill)
        self.timer.start()

    def ask(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerDied("worker exited early") from exc
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied("worker exited early; see " + self.log.name)
        return json.loads(line)

    def setup(self, msg: dict) -> float:
        self.ask(msg)
        return time.monotonic() - self.spawned

    def close(self) -> dict:
        try:
            return self.ask({"type": "end"})
        finally:
            self.stop()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.timer.cancel()
        self.log.close()


# ---------------------------------------------------------------------------
# Statistics


def percentile(ordered: list, p: float) -> float:
    """Linear-interpolated percentile of a sorted list (inf allowed)."""
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    if pos == lo:
        return ordered[lo]
    return ordered[lo] + (ordered[lo + 1] - ordered[lo]) * (pos - lo)


def summarize(samples: list, busy_s: float) -> dict:
    """End-to-end op statistics. A failed op (None) is slower than every limit."""
    ok = sorted(x for x in samples if x is not None)
    ordered = ok + [math.inf] * (len(samples) - len(ok))
    tail_p = next((p for p in TAIL_PERCENTILES if len(ordered) * (1 - p / 100.0) >= TAIL_BEYOND), 50.0)
    return {
        "ops_per_s": len(ok) / busy_s,
        "op_p10_s": percentile(ordered, 10.0),
        "op_p50_s": percentile(ordered, 50.0),
        "op_tail_s": percentile(ordered, tail_p),
        "tail_percentile": tail_p,
        "samples": len(ordered),
        "failed_frac": (len(ordered) - len(ok)) / len(ordered),
    }


# ---------------------------------------------------------------------------
# Workload runners. Each returns a dict with "ops" (per-op records),
# "setup_s" samples, "peak_rss_mb", "total_s" and, when traced, "trace".


def _closed_loop(stream, seconds: float, op_limit: int | None):
    """Yield ops one at a time: the first op_limit of them, or whole cycles
    until `seconds` have passed. The caller runs each op before the next."""
    t0 = time.perf_counter()
    for count, (op, starts_cycle) in enumerate(stream):
        if count == op_limit:
            return
        if op_limit is None and starts_cycle and count and time.perf_counter() - t0 >= seconds:
            return
        yield op


def _cli_setup(deadline: Deadline, work: Path) -> float:
    t = time.monotonic()
    log = work / "setup.log"
    code = "import time; import tiltbeam.cli; print(repr(time.monotonic()))"
    rc, _, _ = _spawn_wait([sys.executable, "-c", code], deadline, log)
    if rc != 0:
        raise RuntimeError("cannot import tiltbeam.cli; see " + str(log))
    return float(log.read_text().strip()) - t


def _run_cli_op(op, work: Path, index: int, deadline: Deadline, traced: bool) -> dict:
    name, command, config = op
    out = work / f"{index:03d}-{name}"
    args = [command, "--config", str(work / f"{config}.json"), "--out", str(out), "--svg"]
    trace_path = work / f"{index:03d}-{name}.spans.json"
    if traced:
        argv = [sys.executable, str(WORKER), "cli", "--spawned", repr(time.monotonic()),
                "--trace", str(trace_path), "--"] + args
    else:
        argv = [sys.executable, "-c", CONSOLE] + args
    rc, wall, rss = _spawn_wait(argv, deadline, work / f"{index:03d}-{name}.log")
    record = {"op": name, "exit": rc, "measured_s": wall, "peak_rss_mb": rss, "check_errors": []}
    if traced and Path(str(trace_path) + ".raw.json").exists():
        record["trace"] = json.loads(Path(str(trace_path) + ".raw.json").read_text())
    if rc != 0:
        lines = (work / f"{index:03d}-{name}.log").read_text(encoding="utf-8").strip().splitlines()
        record["error"] = f"exit {rc}: {lines[-1] if lines else ''}"
        return record
    ref = REFERENCE / name
    record["check_errors"] = checks.compare_dir(ref, out) if ref.is_dir() else checks.check_pattern_dir(out)
    shutil.rmtree(out)
    return record


def run_cli_cold(seed, seconds, deadline, work, op_limit=None, traced=False, quick=False, setups=CLI_SETUPS):
    for name, cfg in CLI_CONFIGS.items():
        (work / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
    # Set-up probes go between ops, so their median samples the machine at
    # several moments rather than in one burst.
    setup, records = [], []
    for op in _closed_loop(cli_ops(seed, quick), seconds, op_limit):
        if len(setup) < setups:
            setup.append(_cli_setup(deadline, work))
        records.append(_run_cli_op(op, work, len(records), deadline, traced))
    setup += [_cli_setup(deadline, work) for _ in range(setups - len(setup))]
    busy = _settle(records)
    return {
        "ops": records,
        "setup_s": setup,
        "busy_s": busy,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "total_s": busy,
        "trace": _sum_raw(r.get("trace") for r in records) if traced else None,
    }


def _setup_message(workload: str, quick: bool) -> dict:
    if workload == "design_sweep":
        return {"type": "setup", "first": DESIGN_FIRST}
    pool = [_pool_config(m) for m in WARM_POOL[: 1 if quick else None]]
    return {"type": "setup", "first": pool[0], "pool": pool}


def run_warm(workload, seed, seconds, deadline, work, op_limit=None, traced=False, quick=False, setups=WARM_SETUPS):
    msg = _setup_message(workload, quick)
    setup = []
    for i in range(setups):  # every set-up but the last is measured and discarded
        worker = Worker(deadline, work / f"worker-{i}.log",
                        work / "spans.json" if traced and i == setups - 1 else None)
        try:
            setup.append(worker.setup(msg))
        except BaseException:
            worker.stop()
            raise
        if i < setups - 1:
            worker.close()
    stream = (design_ops(seed, quick) if workload == "design_sweep"
              else warm_ops(seed, len(msg["pool"])))
    try:
        records = [worker.ask(op) for op in _closed_loop(stream, seconds, op_limit)]
        final = worker.close()
    except BaseException:
        worker.stop()
        raise
    if workload == "design_sweep":  # independent oracle, after the timed loop
        import oracle

        reference = oracle.Oracle()
        for r in records:
            if r.get("extra"):
                r["check_errors"] += checks.check_spots(reference, [r["extra"]])
    busy = _settle(records)
    return {
        "ops": records,
        "setup_s": setup,
        "busy_s": busy,
        "peak_rss_mb": final["peak_rss_mb"],
        "total_s": setup[-1] + busy,
        "trace": final.get("trace"),
    }


def _settle(records: list) -> float:
    """Mark failed ops (latency None) and return the time all ops took."""
    for r in records:
        r.setdefault("check_errors", [])
        failed = r.get("error") or r["check_errors"] or r.get("exit", 0) != 0
        r["latency_s"] = None if failed else r["measured_s"]
    return sum(r.get("measured_s", 0.0) for r in records)


def _sum_raw(raws) -> dict:
    total = {key: 0 for key in tracing.RAW_KEYS}
    for raw in raws:
        for key, value in (raw or {}).items():
            total[key] = total.get(key, 0) + value
    return total


RUNNERS = {
    "cli_cold": run_cli_cold,
    "design_sweep": functools.partial(run_warm, "design_sweep"),
    "warm_reuse": functools.partial(run_warm, "warm_reuse"),
}

# Why each workload is in the benchmark.
# design_sweep is not in BENCHMARK.json: a run of it takes about 50 s (two
# set-ups, each a J0 calibration, and one 16-op cycle), and three workloads
# of that length made the ten-seed measurements too long. cli_cold's
# pattern, ratio-sweep and stability commands evaluate new geometries too;
# run design_sweep by hand to look at quadrature alone.
WHY = {
    "cli_cold": "Each CLI command in a fresh process, as a user launches tiltbeam: every "
                "process pays the J0 calibration, and the 300 mm ground op shows the exit-3 defect.",
    "design_sweep": "ratio_sweep on a geometry the warm process has not seen: field "
                    "quadrature does almost all the work and calibration none.",
    "warm_reuse": "Studies on a pool of geometries whose fields set-up cached: the per-angle "
                  "Python loops of synthesis, arrayfactor and scanstudy set the time.",
}

# ---------------------------------------------------------------------------
# Reporting

CLI_DETAIL = {name: f"cli_{name}_s" for name, _, _ in CLI_OPS}
# Per-layer metrics in the result line: counts, and times that are non-zero
# on both workloads of BENCHMARK.json (stability and artifact writes happen
# only in cli_cold, so their counts stand in). The report prints them all.
PER_LAYER = (
    "radiators.calibration_s", "radiators.new_geometry_s", "radiators.new_geometries",
    "radiators.monopole_pattern_calls", "radiators.monopole_pattern_self_s", "radiators.field_reuse_ratio",
    "specfun.integrate_calls", "specfun.integrate_self_s", "specfun.kernel_evals",
    "specfun.kernel_evals_per_geometry", "specfun.bessel_j1_calls", "specfun.bessel_j1_s",
    "specfun.convergence_errors", "synthesis.synthesize_self_s", "synthesis.metrics_s",
    "synthesis.ratio_sweep_self_s", "synthesis.stability_calls", "arrayfactor.calls", "arrayfactor.s",
    "scanstudy.scan_self_s", "svgplot.render_s", "svgplot.bytes", "circuitmodel.s",
    "cli.process_start_s", "cli.write_bytes", "config.load_s", "trace.overhead_s", "trace.overhead_frac",
)


def unit_of(name: str) -> str:
    if name in ("tail_percentile", "samples"):
        return ""
    if name == "ops_per_s":
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def end_to_end(result: dict) -> tuple[dict, dict]:
    """(metrics for the result line, further named metrics for the report).

    The result line carries set-up time and peak RSS only. Op latency is
    reported, not bounded: the VM this was written on switches between a
    fast and a slow speed, about 1.8x apart, every few seconds, and the
    share of time in each changes from run to run. Over sets of five to ten
    seeds every op statistic spread 12-44 % of its median in some set
    (README.md gives the figures), so a bound would reject changes on noise.
    """
    stats = summarize([r["latency_s"] for r in result["ops"]], result["busy_s"])
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    detail = {key: stats[key] for key in
              ("op_p10_s", "op_p50_s", "op_tail_s", "ops_per_s", "failed_frac", "tail_percentile", "samples")}
    by_op = {}
    for r in result["ops"]:
        if "op" in r:
            by_op.setdefault(r["op"], []).append(math.inf if r["latency_s"] is None else r["latency_s"])
    for name, values in by_op.items():
        detail[CLI_DETAIL[name]] = statistics.median(values)
    return metrics, detail


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy_version, "commit": commit, "seed": seed,
        "threads": dict(THREAD_ENV),
    }


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run_one(workload, seed, seconds, trace, quick=False) -> dict:
    """One benchmark run; returns the full result record."""
    deadline = Deadline(DEADLINE_S)
    work = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = RUNNERS[workload]
    kwargs = {"quick": quick}
    if quick:
        kwargs["setups"] = 1
    record = {"workload": workload, "why": WHY[workload], "seconds": seconds, "trace": trace,
              "quick": quick, "machine": machine(seed)}
    if trace:
        limit = {"cli_cold": len(QUICK_CLI_OPS if quick else CLI_OPS),
                 "design_sweep": 1 if quick else DESIGN_STRATA,
                 "warm_reuse": 3 if quick else WARM_TRACE_OPS}[workload]
        kwargs.update(op_limit=limit, setups=1)
        (work / "untraced").mkdir()
        (work / "traced").mkdir()
        plain = runner(seed, seconds, deadline, work / "untraced", **kwargs)
        traced = runner(seed, seconds, deadline, work / "traced", traced=True, **kwargs)
        layers = tracing.finalize(traced["trace"])
        layers["trace.untraced_total_s"] = plain["total_s"]
        layers["trace.traced_total_s"] = traced["total_s"]
        layers["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["total_s"]
        ops = plain["ops"] + traced["ops"]
        record.update(plain=plain, traced=traced, layers=layers)
        plain_metrics, plain_detail = end_to_end(plain)
        metrics = {name: layers[name] for name in PER_LAYER}
        if quick:
            metrics.update(plain_metrics)
        report = {**plain_metrics, **plain_detail, **layers}
    else:
        result = runner(seed, seconds, deadline, work, **kwargs)
        metrics, detail = end_to_end(result)
        ops = result["ops"]
        record.update(result=result, detail=detail)
        report = {**metrics, **detail}
    record["correct"] = all(not r.get("check_errors") for r in ops)
    record["attempted"] = len(ops)
    record["failed"] = sum(1 for r in ops if r["latency_s"] is None)
    record["metrics"] = {name: {"value": value, "unit": unit_of(name)}
                         for name, value in metrics.items()}
    record["report"] = report
    record["path"] = str(work / "result.json")
    Path(record["path"]).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def print_report(record: dict) -> None:
    m = record["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
          f"commit={m['commit']} seed={m['seed']} threads={','.join(f'{k}={v}' for k, v in m['threads'].items())}")
    print(f"workload {record['workload']} (trace {record['trace']}): {record['why']}")
    for name, value in record["report"].items():
        print(f"  {name} = {_fmt(value)} {unit_of(name)}".rstrip())
    runs = [record[key] for key in ("result", "plain", "traced") if key in record]
    for r in (op for run in runs for op in run["ops"]):
        for err in r.get("check_errors", []) + ([r["error"]] if r.get("error") else []):
            print(f"  failed op {r.get('op', '')}: {err}")
    print(f"  attempted = {record['attempted']}, failed = {record['failed']}, correct = {record['correct']}")
    print(f"  result: {record['path']}")


def result_line(record: dict) -> str:
    return json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "tiltbeam" / "__init__.py").is_file():
        print(f"error: no tiltbeam source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.quick:
        records = [run_one(w, args.seed, 0.0, 1, quick=True) for w in RUNNERS]
        for record in records:
            print_report(record)
        print(json.dumps({
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{name}": v for r in records for name, v in r["metrics"].items()},
        }))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = run_one(args.workload, args.seed, args.seconds, args.trace)
    print_report(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
