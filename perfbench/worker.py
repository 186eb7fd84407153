"""Benchmark worker: one process that runs operations sent by run.py.

    python3 perfbench/worker.py warm --spawned T [--trace SPANS_PATH]
        Reads JSON lines on stdin: one `setup` message, then `op` messages,
        then `end`. Answers each with one JSON line on stdout.
    python3 perfbench/worker.py cli --spawned T --trace SPANS_PATH -- ARGS...
        Runs `tiltbeam.cli.main(ARGS)` once with tracing installed, as the
        traced form of one cold `tiltbeam` process.

T is the parent's time.monotonic() at spawn; CLOCK_MONOTONIC is shared by
the processes of one Linux machine.

Op timing stays inside this process, around the package calls only; output
checks run after the timer stops, with tracing paused.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import tracer as tracing  # noqa: E402


def _peak_rss_mb() -> float:
    # VmHWM covers this process image only; ru_maxrss also counts the
    # parent's resident set at fork, which survives exec.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class WarmWorker:
    def __init__(self, tracer, spawned):
        from tiltbeam import circuitmodel, config, radiators, scanstudy, svgplot, synthesis

        self.circuitmodel, self.config, self.radiators = circuitmodel, config, radiators
        self.scanstudy, self.svgplot, self.synthesis = scanstudy, svgplot, synthesis
        self.tracer = tracer
        self.process_start_s = time.monotonic() - spawned

    def _stop_tracing(self):
        # Checks call the package too; they are not part of the traced op.
        if self.tracer:
            self.tracer.enabled = False

    def _inputs(self, cfg_dict):
        cfg = self.config.parse_config(cfg_dict)
        ctx = self.radiators.FrequencyContext.from_frequency(cfg.frequencies_hz()[0])
        return cfg, ctx

    def setup(self, msg):
        # The first monopole_pattern call pays the J0 calibration; warming a
        # pool evaluates each pool geometry over the whole theta grid.
        cfg, ctx = self._inputs(msg["first"])
        self.radiators.monopole_pattern(0.5 * math.pi, cfg.monopole_spec(), ctx)
        for cfg_dict in msg.get("pool", ()):
            cfg, ctx = self._inputs(cfg_dict)
            self.synthesis.synthesize_pattern(
                self.synthesis.ExcitationWeights(0.0, 1.0), cfg.theta_grid_rad(),
                cfg.slot_spec(), cfg.monopole_spec(), cfg.array_layout(), ctx,
            )
        return {"process_start_s": self.process_start_s}

    def design_sweep(self, op):
        t = time.perf_counter()
        cfg, ctx = self._inputs(op["config"])
        result = self.synthesis.ratio_sweep(cfg.weights.ratios, cfg.geometry(), ctx, cfg.theta_grid_rad())
        latency = time.perf_counter() - t
        self._stop_tracing()
        errors = []
        if result.best_ratio not in cfg.weights.ratios:
            errors.append(f"best_ratio {result.best_ratio} not among the ratios")
        mono = cfg.monopole_spec()
        spot = [self.radiators.monopole_pattern(th, mono, ctx) for th in op["spot_theta"]]
        return latency, errors, {
            "kh": ctx.wavenumber_k * mono.height_H,
            "ka": ctx.wavenumber_k * mono.ground_radius_a,
            "model": mono.current_model.value,
            "spot_theta": op["spot_theta"],
            "spot": [[v.real, v.imag] for v in spot],
        }

    def warm_reuse(self, op):
        syn = self.synthesis
        t = time.perf_counter()
        cfg, ctx = self._inputs(op["config"])
        grid = cfg.theta_grid_rad()
        geometry = cfg.geometry()
        cut = syn.synthesize_pattern(
            cfg.excitation_weights(), grid, geometry.slot, geometry.monopole, geometry.layout, ctx,
        )
        metrics = syn.pattern_metrics(cut)
        sweep = syn.ratio_sweep(cfg.weights.ratios, geometry, ctx, grid)
        self.scanstudy.default_scan_study(geometry, ctx, theta_grid=grid)
        svg = self.svgplot.render_polar_svg(cut, metrics)
        strip = cfg.strip_spec()
        for f in cfg.frequencies_hz():
            self.circuitmodel.loss_budget(strip, f)
        latency = time.perf_counter() - t
        self._stop_tracing()
        errors = []
        if abs(float(abs(cut.values).max()) - 1.0) > 1e-12:
            errors.append("synthesized cut does not have unit peak")
        if sweep.best_ratio not in cfg.weights.ratios:
            errors.append(f"best_ratio {sweep.best_ratio} not among the ratios")
        post = syn.synthesize_pattern(
            syn.ExcitationWeights(0.0, 1.0), grid, geometry.slot, geometry.monopole, geometry.layout, ctx,
        ).values
        zero = [i for i, th in enumerate(grid) if th == 0.0]
        if not zero or post[zero[0]] != 0:
            errors.append("post term is not null at broadside")
        if float(abs(post + post[::-1]).max()) > 1e-12:
            errors.append("post term is not odd in theta")
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            errors.append("svg is not a complete document")
        return latency, errors, None

    def run_op(self, op):
        try:
            latency, errors, extra = getattr(self, op["workload"])(op)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {"ok": not errors, "measured_s": latency, "check_errors": errors, "extra": extra}


def _serve(spawned, trace_path):
    tracer = tracing.Tracer() if trace_path else None
    worker = WarmWorker(tracer, spawned)
    if tracer:
        tracing.install(tracer)
        tracer.counts["cli.process_start_s"] = worker.process_start_s
    out = sys.stdout
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["type"] == "setup":
            reply = worker.setup(msg)
        elif msg["type"] == "op":
            reply = worker.run_op(msg)
            if tracer:
                tracer.enabled = True
        else:
            reply = {"peak_rss_mb": _peak_rss_mb()}
            if tracer:
                reply["trace"] = tracer.raw()
                tracer.dump(trace_path)
            out.write(json.dumps(reply) + "\n")
            out.flush()
            return 0
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 1


def _run_cli(spawned, trace_path, argv):
    from tiltbeam import cli

    tracer = tracing.Tracer()
    tracer.counts["cli.process_start_s"] = time.monotonic() - spawned
    tracing.install(tracer)
    try:
        return cli.main(argv)
    finally:
        with open(trace_path + ".raw.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.raw(), fh)
        tracer.dump(trace_path)


def main(argv):
    if argv[:1] == ["warm"]:
        trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
        return _serve(float(argv[argv.index("--spawned") + 1]), trace_path)
    if argv[:1] == ["cli"]:
        sep = argv.index("--")
        opts = argv[1:sep]
        spawned = float(opts[opts.index("--spawned") + 1])
        return _run_cli(spawned, opts[opts.index("--trace") + 1], argv[sep + 1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
