"""The benchmark's own tests: the artifact comparison, and a --quick run of
every workload, untraced and traced, so the harness cannot rot unnoticed."""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402


def test_compare_text_tolerates_last_digits_only():
    ref = "kind,ratio,tilt_deg\nrow,0.1,25.6455855\n"
    assert checks.compare_text(ref, "kind,ratio,tilt_deg\nrow,0.1,25.6455857\n", csv=True) is None
    assert checks.compare_text(ref, "kind,ratio,tilt_deg\nrow,0.1,25.6456855\n", csv=True)
    assert checks.compare_text(ref, "kind,ratio,tilt\nrow,0.1,25.6455855\n", csv=True)
    svg = '<line x1="320.000" y1="60.125"/><text>tilt 31.25&#176;</text>'
    assert checks.compare_text(svg, svg.replace("60.125", "60.126"), csv=False) is None
    assert checks.compare_text(svg, svg.replace("60.125", "60.128"), csv=False)
    assert checks.compare_text(svg, svg.replace("31.25", "31.27"), csv=False)


def test_quick_mode_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert f"{workload['name']}.{metric['name']}" in result["metrics"]
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
