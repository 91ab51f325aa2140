"""psdo benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload battery|index|assemble --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; psdo is imported from ./src.
With --trace 0 the last stdout line carries the end-to-end metrics,
with --trace 1 the per-layer metrics; both name the metrics and units
listed in BENCHMARK.json. bench/README.md describes the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 10
# A fresh interpreter imports the CLI and assembles one tiny operator.
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import psdo.cli; "
    "from psdo.geometry import Circle; from psdo.quantize import op_circle; "
    "from psdo.symexpr import parse; op_circle(Circle(8), parse('1 + chi(xi)')).norm()"
)
STAT_KEYS = ("calls", "total_s", "self_s", "dim_max", "dim3_sum")
COUNT_KEYS = ("calls", "dim_max", "dim3_sum")


def _child_env(**extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PSDO_THREADS"}
    env.update(extra)
    return env


# ---------------------------------------------------------------------------
# Passes


def run_pass(ops) -> dict:
    """Run every operation once. Only the calls into psdo are timed; the
    oracles run between them."""
    wall = cpu = 0.0
    attempted = failed = 0
    for run, check in ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = run()
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            a, f = check(out)
            del out  # free the operator before the next one is assembled
        except Exception:
            # An operation that raises counts as one failed operation.
            traceback.print_exc(file=sys.stderr)
            a, f = 1, 1
        attempted, failed = attempted + a, failed + f
    return {"wall_s": wall, "cpu_s": cpu, "attempted": attempted, "failed": failed}


def run_for(ops, seconds: float, min_passes: int, before_pass=None, after_pass=None) -> list[dict]:
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if before_pass:
            before_pass()
        p = run_pass(ops)
        if after_pass:
            p.update(after_pass())
        passes.append(p)
    return passes


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def time_setup() -> float:
    """Wall seconds of one fresh interpreter, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))], check=True,
                   cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_sampler(seconds: float):
    """(samples, hook): the hook, run before each pass, spawns the set-up
    interpreters that are due so that they spread over the run and see
    the same machine conditions as the passes."""
    samples: list[float] = []
    start = time.perf_counter()

    def hook() -> None:
        while (len(samples) < SETUP_SPAWNS
               and time.perf_counter() - start >= len(samples) * seconds / SETUP_SPAWNS):
            samples.append(time_setup())

    return samples, hook


# ---------------------------------------------------------------------------
# Run record


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _openblas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"), "threads": None}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def run_record(args, **extra) -> dict:
    import numpy as np
    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        # battery only: whether the canonical payload was compared with a
        # recorded digest (seeds 0..63)
        "digest_checked": (workloads.recorded_digest(args.seed) is not None
                           if args.workload == "battery" else None),
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        **extra,
    }


# ---------------------------------------------------------------------------
# Traced run


def pass_summary(tracer) -> dict:
    """Per-layer counters of one traced pass."""
    stats = {}
    for name in tracer.calls:
        stats[name] = {
            "calls": tracer.calls[name],
            "total_s": tracer.total_s[name],
            "self_s": tracer.self_s[name],
            "dim_max": tracer.dim_max.get(name, 0),
            "dim3_sum": tracer.dim3_sum.get(name, 0),
        }
    return {"layers": stats, "quantizer_repeats": tracer.quantizer_repeats}


def layer_value(name: str, summaries: list[dict], derived: dict) -> float:
    """A per-layer metric by name: `<span>.<stat>` with stat one of
    STAT_KEYS (counts from the first traced pass, times as the median
    over traced passes), or one of the derived values."""
    if name in derived:
        return derived[name]
    span, stat = name.rsplit(".", 1)
    if stat not in STAT_KEYS:
        raise KeyError(f"no per-layer metric {name!r}")
    values = [s["layers"].get(span, {}).get(stat, 0) for s in summaries]
    return values[0] if stat in COUNT_KEYS else statistics.median(values)


def count_mismatches(summaries: list[dict]) -> list[str]:
    first = summaries[0]
    bad = []
    for i, s in enumerate(summaries[1:], start=2):
        for span in set(first["layers"]) | set(s["layers"]):
            for key in COUNT_KEYS:
                a = first["layers"].get(span, {}).get(key, 0)
                b = s["layers"].get(span, {}).get(key, 0)
                if a != b:
                    bad.append(f"pass {i}: {span}.{key} {b} != {a}")
        if s["quantizer_repeats"] != first["quantizer_repeats"]:
            bad.append(f"pass {i}: quantizer repeats differ")
    return bad


def single_thread_pass(args) -> dict:
    """One warm pass in a child process with OPENBLAS_NUM_THREADS=1."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--single-pass"],
        check=True, cwd=ROOT, env=_child_env(OPENBLAS_NUM_THREADS="1"),
        stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Entry point


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("battery", "index", "assemble"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--single-pass", action="store_true",
                   help="internal: warm-up plus one pass, printed as JSON")
    return p


def measure_untraced(args, ops, warm: dict):
    """End-to-end metrics: passes for --seconds, set-up spawns spread
    over the same time."""
    setup, hook = setup_sampler(args.seconds)
    passes = run_for(ops, args.seconds, 1, before_pass=hook)
    setup += [time_setup() for _ in range(SETUP_SPAWNS - len(setup))]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": _median(passes, "wall_s"),
        "cpu_s": _median(passes, "cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = run_record(args, warmup_s=warm["wall_s"], setup_samples_s=setup,
                        passes=len(passes), wall_samples_s=[p["wall_s"] for p in passes])
    return values, record, passes, []


def measure_traced(args, ops, warm: dict, names: list[str]):
    """Per-layer metrics: untraced passes for half of --seconds, traced
    passes for the other half (at least two), then the single-thread
    child. The spans of the last traced pass go to OUT."""
    from tracer import QUANTIZERS, Tracer

    untraced = run_for(ops, args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    problems = [f"unwrapped binding: {b}" for b in tracer.unwrapped_bindings()]
    try:
        traced = run_for(ops, args.seconds / 2, 2, before_pass=tracer.reset,
                         after_pass=lambda: pass_summary(tracer))
    finally:
        tracer.uninstall()
    problems += count_mismatches(traced)
    base_wall = _median(untraced, "wall_s")
    one_thread = single_thread_pass(args)
    quantizer_calls = sum(traced[0]["layers"].get(q, {}).get("calls", 0) for q in QUANTIZERS)
    derived = {
        "quantize.repeat_frac": traced[0]["quantizer_repeats"] / max(quantizer_calls, 1),
        "trace.overhead_frac": _median(traced, "wall_s") / base_wall - 1.0,
        "threads1.wall_s": one_thread["wall_s"],
        "threads1.wall_ratio": one_thread["wall_s"] / base_wall,
    }
    values = {name: layer_value(name, traced, derived) for name in names}
    record = run_record(args, warmup_s=warm["wall_s"], passes=len(untraced),
                        traced_passes=len(traced),
                        untraced_wall_samples_s=[p["wall_s"] for p in untraced],
                        traced_wall_samples_s=[p["wall_s"] for p in traced],
                        single_thread=one_thread)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "record": record,
        "metrics": values,
        "passes": traced,
        "spans_last_pass": [[n, s - t0, e - t0, parent] for n, s, e, parent in tracer.spans],
    }))
    return values, record, untraced + traced + [one_thread], problems


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "psdo" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"no psdo source tree under {SRC} (run from a source checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PSDO_THREADS", None)
    import psdo

    if Path(psdo.__file__).resolve().parent != SRC / "psdo":
        print(f"psdo imported from {psdo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads(spec_file.read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
        ops = workloads.WORKLOADS[args.workload](args.seed, Path(work_dir))
        warm = run_pass(ops)
        if args.single_pass:
            print(json.dumps(run_pass(ops)))
            return 0
        if args.workload == "battery" and workloads.recorded_digest(args.seed) is None:
            print(f"seed {args.seed} has no recorded digest: the canonical payload "
                  "is not compared", file=sys.stderr)
        if args.trace:
            names = [m["name"] for m in metric_specs]
            values, record, passes, problems = measure_traced(args, ops, warm, names)
        else:
            values, record, passes, problems = measure_untraced(args, ops, warm)
    for problem in problems:
        print(f"trace self-test: {problem}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in [warm] + passes)
    failed = sum(p["failed"] for p in [warm] + passes)
    print("run-record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
