"""In-memory spans and counters at the tiltbeam layer boundaries.

The package source is not modified. `install` replaces each traced function
at every name a tiltbeam module binds it under (`cli.synthesize_pattern`,
`scanstudy.synthesize_pattern`, `synthesis.synthesize_pattern`, ...), so a
call is recorded at the name its calling layer uses. A target that a later
version of the package no longer has is skipped, and its metrics read 0.

Coarse boundaries (a few thousand calls per operation at most) are spans:
name, start, end, parent, and the part of the interval that child spans and
charged leaf calls cover, from which self time follows. Hot leaves (the
quadrature kernel, J1, the array factors) are only counted and timed, since a
span record per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import time

_now = time.perf_counter

_MODULES = (
    "tiltbeam", "tiltbeam.cli", "tiltbeam.config", "tiltbeam.radiators", "tiltbeam.specfun",
    "tiltbeam.synthesis", "tiltbeam.arrayfactor", "tiltbeam.scanstudy", "tiltbeam.svgplot",
    "tiltbeam.circuitmodel",
)

# (defining module, attribute, span or leaf name, kind)
_TARGETS = (
    ("tiltbeam.cli", "main", "cli.main", "span"),
    ("tiltbeam.cli", "_write_text", "cli.write", "write"),
    ("tiltbeam.config", "load_config", "config.load", "span"),
    ("tiltbeam.config", "parse_config", "config.load", "span"),
    ("tiltbeam.synthesis", "synthesize_pattern", "synthesis.synthesize", "span"),
    ("tiltbeam.synthesis", "pattern_metrics", "synthesis.metrics", "span"),
    ("tiltbeam.synthesis", "ratio_sweep", "synthesis.ratio_sweep", "span"),
    ("tiltbeam.synthesis", "beam_stability", "synthesis.stability", "span"),
    ("tiltbeam.radiators", "monopole_pattern", "radiators.monopole_pattern", "monopole"),
    ("tiltbeam.radiators", "_peak_reference", "radiators.peak_reference", "peak_reference"),
    ("tiltbeam.radiators", "_ground_current_amplitude", "radiators.calibration", "calibration"),
    ("tiltbeam.specfun", "integrate_complex", "specfun.integrate", "integrate"),
    ("tiltbeam.specfun", "bessel_j1", "specfun.bessel_j1", "uncharged_leaf"),
    ("tiltbeam.arrayfactor", "array_factor", "arrayfactor", "leaf"),
    ("tiltbeam.arrayfactor", "steered_array_factor", "arrayfactor", "leaf"),
    ("tiltbeam.scanstudy", "default_scan_study", "scanstudy.scan", "span"),
    ("tiltbeam.svgplot", "render_polar_svg", "svgplot.render", "render"),
    ("tiltbeam.circuitmodel", "loss_budget", "circuitmodel", "span"),
    ("tiltbeam.circuitmodel", "effective_permittivity", "circuitmodel", "span"),
    ("tiltbeam.circuitmodel", "half_wave_resonance", "circuitmodel", "span"),
)

# Span name -> (self-time metric, call-count metric).
_SPAN_METRICS = {
    "config.load": ("config.load_s", "config.calls"),
    "cli.write": ("cli.write_s", "cli.write_calls"),
    "synthesis.synthesize": ("synthesis.synthesize_self_s", "synthesis.synthesize_calls"),
    "synthesis.metrics": ("synthesis.metrics_s", "synthesis.metrics_calls"),
    "synthesis.ratio_sweep": ("synthesis.ratio_sweep_self_s", "synthesis.ratio_sweep_calls"),
    "synthesis.stability": ("synthesis.stability_self_s", "synthesis.stability_calls"),
    "radiators.monopole_pattern": ("radiators.monopole_pattern_self_s", "radiators.monopole_pattern_calls"),
    "specfun.integrate": ("specfun.integrate_self_s", "specfun.integrate_calls"),
    "scanstudy.scan": ("scanstudy.scan_self_s", "scanstudy.calls"),
    "svgplot.render": ("svgplot.render_s", "svgplot.calls"),
    "circuitmodel": ("circuitmodel.s", "circuitmodel.calls"),
}

# Every additive quantity a traced process reports; sums over processes
# stay additive, and `finalize` derives the ratios from them.
RAW_KEYS = tuple(sorted(
    {name for pair in _SPAN_METRICS.values() for name in pair}
    | {
        "cli.process_start_s", "cli.write_bytes", "svgplot.bytes",
        "radiators.calibration_s", "radiators.new_geometries", "radiators.new_geometry_s",
        "radiators.field_reuse_calls", "specfun.kernel_evals", "specfun.calibration_kernel_evals",
        "specfun.kernel_s", "specfun.bessel_j1_calls", "specfun.bessel_j1_s",
        "specfun.convergence_errors", "arrayfactor.calls", "arrayfactor.s", "trace.spans",
    }
))


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self):
        self.enabled = True
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Each span: [name id, start, end, parent index or -1, covered by children].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.misses: list[int] = []  # peak_reference spans that computed a new geometry
        self.calibrations: list[int] = []
        self.integrations = 0  # live count, for spotting calls that did quadrature
        self.counts = {key: 0 for key in RAW_KEYS}

    # span bookkeeping -------------------------------------------------------

    def _open(self, name_id: int) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name_id, 0.0, 0.0, parent, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = _now()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = _now()
        self.stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][4] += rec[2] - rec[1]

    def _charge(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # wrapper factories ------------------------------------------------------

    def wrap(self, kind: str, name: str, fn):
        return getattr(self, "_wrap_" + kind)(self._id(name), fn)

    def _wrap_span(self, name_id, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _wrap_write(self, name_id, fn):
        span = self._wrap_span(name_id, fn)

        def traced(path, text):
            if self.enabled:
                self.counts["cli.write_bytes"] += len(text.encode("utf-8"))
            return span(path, text)
        return traced

    def _wrap_render(self, name_id, fn):
        span = self._wrap_span(name_id, fn)

        def traced(*args, **kwargs):
            svg = span(*args, **kwargs)
            if self.enabled:
                self.counts["svgplot.bytes"] += len(svg.encode("utf-8"))
            return svg
        return traced

    def _wrap_monopole(self, name_id, fn):
        counts = self.counts
        span = self._wrap_span(name_id, fn)

        def traced(*args, **kwargs):
            before = self.integrations
            value = span(*args, **kwargs)
            if self.enabled and self.integrations == before:
                counts["radiators.field_reuse_calls"] += 1
            return value
        return traced

    def _wrap_peak_reference(self, name_id, fn):
        # An lru_cache miss is a geometry evaluated for the first time,
        # including its normalization over the 361-angle grid.
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses
            rec = self._open(name_id)
            index = len(self.spans) - 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if fn.cache_info().misses != misses:
                    self.misses.append(index)
        return traced

    def _wrap_calibration(self, name_id, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            evals = counts["specfun.kernel_evals"]
            rec = self._open(name_id)
            self.calibrations.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                counts["specfun.calibration_kernel_evals"] += counts["specfun.kernel_evals"] - evals
        return traced

    def _wrap_integrate(self, name_id, fn):
        counts = self.counts

        def traced(f, *args, **kwargs):
            if not self.enabled:
                return fn(f, *args, **kwargs)
            acc = [0.0, 0]

            def kernel(x):
                t = _now()
                value = f(x)
                acc[0] += _now() - t
                acc[1] += 1
                return value

            self.integrations += 1
            rec = self._open(name_id)
            try:
                return fn(kernel, *args, **kwargs)
            except ArithmeticError:
                counts["specfun.convergence_errors"] += 1
                raise
            finally:
                rec[4] += acc[0]  # the integrand is radiators code, not specfun
                self._close(rec)
                counts["specfun.kernel_evals"] += acc[1]
                counts["specfun.kernel_s"] += acc[0]
        return traced

    def _wrap_leaf(self, name_id, fn):
        counts = self.counts
        calls, seconds = self.names[name_id] + ".calls", self.names[name_id] + ".s"

        def traced(*args):
            if not self.enabled:
                return fn(*args)
            t = _now()
            value = fn(*args)
            dt = _now() - t
            counts[calls] += 1
            counts[seconds] += dt
            self._charge(dt)
            return value
        return traced

    def _wrap_uncharged_leaf(self, name_id, fn):
        # J1 runs inside the quadrature kernel, whose time is charged already.
        counts = self.counts

        def traced(x):
            if not self.enabled:
                return fn(x)
            t = _now()
            value = fn(x)
            counts["specfun.bessel_j1_s"] += _now() - t
            counts["specfun.bessel_j1_calls"] += 1
            return value
        return traced

    # results ----------------------------------------------------------------

    def _within(self, index: int, ancestors: set) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if parent in ancestors:
                return True
            parent = self.spans[parent][3]
        return False

    def raw(self) -> dict:
        """Additive totals of this process: self times, calls and counts."""
        out = dict(self.counts)
        ids = {self._name_ids[n]: n for n in _SPAN_METRICS if n in self._name_ids}
        for name_id, start, end, _parent, covered in self.spans:
            if name_id in ids:
                self_key, calls_key = _SPAN_METRICS[ids[name_id]]
                out[self_key] += (end - start) - covered
                out[calls_key] += 1
        calibration = [self.spans[i][2] - self.spans[i][1] for i in self.calibrations]
        out["radiators.calibration_s"] = sum(calibration)
        misses = set(self.misses)
        nested = sum(dt for i, dt in zip(self.calibrations, calibration) if self._within(i, misses))
        out["radiators.new_geometries"] = len(misses)
        out["radiators.new_geometry_s"] = sum(self.spans[i][2] - self.spans[i][1] for i in misses) - nested
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "covered"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Route every tiltbeam binding of each target through the tracer."""
    modules = [importlib.import_module(m) for m in _MODULES]
    by_name = {m.__name__: m for m in modules}
    for module_name, attr, name, kind in _TARGETS:
        original = getattr(by_name[module_name], attr, None)
        if original is None:
            continue
        if kind == "peak_reference" and not hasattr(original, "cache_info"):
            kind = "span"
        traced = tracer.wrap(kind, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def finalize(raw: dict) -> dict:
    """Per-layer metrics from summed raw totals, ratios included."""
    out = {key: raw.get(key, 0) for key in RAW_KEYS}
    geometries = out["radiators.new_geometries"]
    evals = out["specfun.kernel_evals"] - out["specfun.calibration_kernel_evals"]
    out["specfun.kernel_evals_per_geometry"] = evals / geometries if geometries else 0.0
    calls = out["radiators.monopole_pattern_calls"]
    out["radiators.field_reuse_ratio"] = out["radiators.field_reuse_calls"] / calls if calls else 0.0
    return out
