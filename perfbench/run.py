"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``; no
install or build step is needed. The launcher pins every BLAS and OpenMP
pool to one thread, writes the seeded instance files, and then runs each
step in a fresh worker process (see worker.py), one after another:
reference optima, ``SETUP_PROBES`` set-up probes (untraced runs only,
after one discarded warm-up probe), and the measurement. Working files and
a full result record (machine facts, every set-up time, failures, per-case
counters) go to ``.bench_results/``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json lists: its ``end_to_end`` metrics untraced,
its ``per_layer`` metrics traced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import write_cases  # noqa: E402

PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s, whatever a step does


class StepFailed(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multiflow" / "__init__.py").is_file():
        print(f"error: no multiflow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    results = ROOT / ".bench_results"
    run_dir = results / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cases = workloads.cases(args.workload, args.seed)
    write_cases(cases, run_dir)
    env = dict(os.environ, **PIN, PYTHONHASHSEED="0")

    def step(*words: str) -> str:
        remaining = DEADLINE_S - (time.monotonic() - started)
        command = [sys.executable, str(HERE / "worker.py"), *words]
        try:
            proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise StepFailed(f"step {words[0]} ran past the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise StepFailed(f"step {words[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
        return proc.stdout

    common = (args.workload, str(args.seed), str(run_dir))
    try:
        step("reference", *common)
        setups: list[float] = []
        if not args.trace:
            step("setup", *common)
            setups = [json.loads(step("setup", *common))["setup_s"] for _ in range(SETUP_PROBES)]
        result = json.loads(step("measure", *common, str(args.seconds), str(args.trace)))
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    measured = dict(result["metrics"])
    if setups:
        measured["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_pinning": PIN,
        "setup_s_probes": setups,
        "error_rate": result["failed"] / result["attempted"],
        **result,
        "metrics": metrics,
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['attempted']} calls, {result['failed']} failed; record in {out}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
