"""Regenerate the cli_cold reference artifacts under perfbench/reference/.

    python3 perfbench/make_references.py

Runs each cli_cold command once, as run.py does, and keeps the artifacts of
every command that succeeds. A command that fails gets no reference; run.py
then checks its output, once it succeeds, for invariants only. Regenerate
only for a change that is meant to alter the CLI's results, and say so in
that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    deadline = run.Deadline(600.0)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        work = Path(tmp)
        for name, cfg in run.CLI_CONFIGS.items():
            (work / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        for index, (name, command, config) in enumerate(run.CLI_OPS):
            out = work / name
            argv = [sys.executable, "-c", run.CONSOLE, command, "--config", str(work / f"{config}.json"),
                    "--out", str(out), "--svg"]
            rc, wall, _ = run._spawn_wait(argv, deadline, work / f"{name}.log")
            target = run.REFERENCE / name
            if target.exists():
                shutil.rmtree(target)
            if rc != 0:
                print(f"{name}: exit {rc} after {wall:.1f} s; no reference kept")
                continue
            target.mkdir(parents=True)
            for path in sorted(out.iterdir()):
                if not path.name.startswith("."):
                    shutil.copy(path, target / path.name)
            print(f"{name}: {len(list(target.iterdir()))} artifacts in {wall:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
