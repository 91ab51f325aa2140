"""Self-test of the outside-in tracer.

    python3 bench/selftest.py

Run from the root of a source checkout. Fails (exit 1) when
  1. a traced function is not restored at every binding after the
     tracer is removed; or
  2. a traced run reports incorrect output. Every traced run fails if a
     loaded psdo module still holds an unwrapped original after the
     tracer is installed, or if its traced passes disagree on a count;
     or
  3. two traced runs of a workload on the same seed disagree on any
     count (`.calls`, `.dim_max`, `.dim3_sum`), compared as in run.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import psdo.cli  # noqa: E402,F401  (loads every psdo module the workloads use)
from run import OUT, count_mismatches  # noqa: E402
from tracer import PSDO_TARGETS, Tracer  # noqa: E402

SEED = 0
SECONDS = 2.0


def check_restore() -> list[str]:
    originals = {name: getattr(sys.modules[m], a) for name, (m, a) in PSDO_TARGETS.items()}
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    return [f"not restored after uninstall: {m}.{a}" for name, (m, a) in PSDO_TARGETS.items()
            if getattr(sys.modules[m], a) is not originals[name]]


def traced_run(workload: str) -> tuple[dict, dict]:
    """(result line, first traced pass) of one traced run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    trace = json.loads((OUT / f"trace-{workload}-seed{SEED}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), trace["passes"][0]


def check_counts() -> list[str]:
    errors = []
    for workload in ("battery", "index", "assemble"):
        (a, pass_a), (b, pass_b) = traced_run(workload), traced_run(workload)
        for run in (a, b):
            if not run["correct"]:
                errors.append(f"{workload}: traced run reports incorrect output")
        errors += [f"{workload}: {m}" for m in count_mismatches([pass_a, pass_b])]
        print(f"{workload}: counts of {len(pass_a['layers'])} spans compared")
    return errors


def main() -> int:
    errors = check_restore() + check_counts()
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
