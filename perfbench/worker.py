"""The benchmark's measuring process; ``run.py`` starts it, one step at a time.

    worker.py setup WORKLOAD SEED RUN_DIR
        Import multiflow and load every instance and demand file of the
        workload, then print the seconds that took.
    worker.py reference WORKLOAD SEED RUN_DIR
        Compute reference optima (see reference.py) into RUN_DIR/reference.json.
    worker.py measure WORKLOAD SEED RUN_DIR SECONDS TRACE
        Untraced (TRACE 0): one pass over the seeded cases, then passes over
        the fixed cases until SECONDS of call time have been spent, checking
        every output. Traced (TRACE 1): one untraced and one traced pass
        over every case, for per-layer metrics and the tracing overhead.
        Prints one JSON object.
    worker.py golden
        Rewrite golden.json: digests of the fixed cases' reports, which the
        traced run compares against (cli.json_identical).

Each step runs in a fresh process so that import time can be measured and
the reference work does not raise the measured process's peak memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (stdlib only: importing it costs no package time)

GOLDEN = HERE / "golden.json"


def case_paths(run_dir: Path, case) -> tuple[Path, Path | None]:
    demand = run_dir / f"{case.name}.demand.json" if case.demand is not None else None
    return run_dir / f"{case.name}.json", demand


def write_cases(cases, run_dir: Path) -> None:
    for case in cases:
        path, demand = case_paths(run_dir, case)
        workloads.gen.write_json(path, case.instance)
        if demand is not None:
            workloads.gen.write_json(demand, case.demand)


def setup(cases, run_dir: Path) -> float:
    """Import the package and load every file the workload's calls read."""
    start = time.perf_counter()
    from multiflow.instance import load_demand, load_instance

    for case in cases:
        path, demand = case_paths(run_dir, case)
        inst = load_instance(path)
        if demand is not None:
            load_demand(demand, inst.network)
    return time.perf_counter() - start


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


class Runner:
    """Makes one case's call and checks its output."""

    def __init__(self, cases, run_dir: Path, refs: dict):
        import multiflow.cli
        import multiflow.mmf
        import numpy as np

        import check

        self.check = check
        self.cli = multiflow.cli
        self.mmf = multiflow.mmf
        self.cases = cases
        self.run_dir = run_dir
        self.refs = refs
        self.geo = {c.name: check.geometry(c.instance) for c in cases}
        self.demand = {
            c.name: check.demand_array(self.geo[c.name], c.demand) if c.demand is not None else np.zeros(0)
            for c in cases
        }
        self.loaded: dict = {}
        self.reports: dict = {}

    def load_library_cases(self) -> None:
        import multiflow.instance

        for case in self.cases:
            if case.command == "certify":
                path, _ = case_paths(self.run_dir, case)
                self.loaded[case.name] = multiflow.instance.load_instance(path)

    def call(self, case) -> tuple[float, list[str], int]:
        """Returns (seconds, problems, output bytes)."""
        if case.command == "certify":
            inst = self.loaded[case.name]
            start = time.perf_counter()
            try:
                sol = self.mmf.solve_mmf(
                    inst.network, inst.commodities, mode=case.mode,
                    cap=int(workloads.BIG_CAP), exact_check=True,
                )
            except Exception:
                return time.perf_counter() - start, [traceback.format_exc(limit=3)], 0
            seconds = time.perf_counter() - start
            return seconds, self._verified(self.verify_certificate, case, sol), 0

        path, demand = case_paths(self.run_dir, case)
        argv = [case.command, str(path), *case.options, "--format", "json"]
        if demand is not None:
            argv += ["--demand", str(demand)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:
                code = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
        text = out.getvalue()
        if code != 0:
            return seconds, [f"exit {code}: {err.getvalue().strip()}"], len(text)
        self.reports[case.name] = text
        return seconds, self._verified(self.verify_report, case, text), len(text)

    @staticmethod
    def _verified(verify, case, output) -> list[str]:
        try:
            return verify(case, output)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"malformed output: {exc!r}"]

    def verify_report(self, case, text: str) -> list[str]:
        report = json.loads(text)
        check, geo, ref = self.check, self.geo[case.name], self.refs[case.name]
        if case.command == "solve":
            problems = check.check_solve(geo, case.commodities, report, ref["throughput"])
            if report["mode"] != case.mode:
                problems.append(f"mode {report['mode']} != {case.mode}")
            return problems
        if case.command == "compare":
            return check.check_compare(report, ref["plain"], ref["coding"])
        if case.command == "inspect":
            return check.check_inspect(geo, report, ref)
        return check.check_schedule(geo, self.demand[case.name], report, ref.get("length"))

    def verify_certificate(self, case, sol) -> list[str]:
        """Render a library solution as a `solve` report, then check it like one."""
        geo = self.geo[case.name]
        report = {
            "mode": sol.mode,
            "throughput": sol.throughput,
            "schedule_length": sum(sol.schedule_weights.values()),
            "schedule": [
                {
                    "hyperarcs": sorted(sol.catalog.hyperarc_sets[j]),
                    "links": sorted(sol.catalog.sublink_sets[j]),
                    "lambda": w,
                }
                for j, w in sorted(sol.schedule_weights.items())
            ],
            "commodities": [
                {
                    "source": s,
                    "sink": t,
                    "value": sol.per_commodity[i],
                    "flow": {f"{a}-{b}": float(r) for (a, b), r in zip(geo.links, sol.flows[i]) if r > 0},
                }
                for i, (s, t) in enumerate(case.commodities)
            ],
        }
        problems = self.check.check_solve(geo, case.commodities, report, self.refs[case.name]["throughput"])
        if not isinstance(sol.exact_throughput, Fraction):
            problems.append("no exact certificate value")
        elif abs(float(sol.exact_throughput) - sol.throughput) > self.check.TOL:
            problems.append(f"exact value {sol.exact_throughput} != float value {sol.throughput}")
        return problems


def passes(runner: Runner, cases, budget: float = 0.0, on_call=None) -> tuple[list[tuple[object, float]], list[str], int]:
    """Whole passes over ``cases`` while ``budget`` seconds of call time are not yet spent.

    One pass at least; no new pass starts when half a pass more would
    reach the budget, so a run ends within half a pass of it.

    Returns (case, seconds) per call, one message per failed call, and the bytes printed.
    """
    timed: list[tuple[object, float]] = []
    failures: list[str] = []
    output = 0
    done = 0
    while not done or sum(t for _, t in timed) * (1 + 0.5 / done) < budget:
        done += 1
        for case in cases:
            t, problems, size = runner.call(case)
            timed.append((case, t))
            output += size
            if problems:
                failures.append(f"{case.name}: " + "; ".join(problems))
            if on_call is not None:
                on_call(case)
    return timed, failures, output


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(cases, run_dir: Path, budget: float) -> dict:
    """One checked pass over the seeded cases, then timed passes over the fixed cases.

    The timing metrics cover the fixed cases only: their work is the same
    for every seed, while a seeded case's cost can change several-fold with
    its inputs. The seeded pass also warms the process up; its calls count
    in ``attempted`` and ``failed``.
    """
    refs = json.loads((run_dir / "reference.json").read_text())
    runner = Runner(cases, run_dir, refs)
    runner.load_library_cases()
    fixed = [case for case in cases if case.fixed]
    checked, failures, _ = passes(runner, [case for case in cases if not case.fixed])
    timed, timed_failures, _ = passes(runner, fixed, budget)
    failures += timed_failures
    seconds = [t for _, t in timed]
    return {
        "attempted": len(checked) + len(timed),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            "calls_per_s": len(seconds) / sum(seconds),
            "call_s_p50": quantile(seconds, 50),
            "call_s_p90": quantile(seconds, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "samples": {"timed_calls": len(seconds), "passes": len(seconds) // len(fixed)},
        "busy_s": sum(seconds),
        "checked_pass_s": {case.name: t for case, t in checked},
        "case_median_s": {c.name: statistics.median(t for case, t in timed if case is c) for c in fixed},
    }


def measure_traced(cases, run_dir: Path) -> dict:
    from tracing import Tracer

    refs = json.loads((run_dir / "reference.json").read_text())
    runner = Runner(cases, run_dir, refs)
    runner.load_library_cases()
    untraced, failures, _ = passes(runner, cases)

    tracer = Tracer()
    per_case: dict = {}
    before = [tracer.counters.copy()]

    def on_call(case):
        per_case[case.name] = dict(tracer.counters - before[0])
        before[0] = tracer.counters.copy()
        tracer.call += 1

    tracer.install()
    try:
        runner.loaded.clear()
        runner.load_library_cases()
        before[0] = tracer.counters.copy()
        traced, traced_failures, output = passes(runner, cases, on_call=on_call)
    finally:
        tracer.uninstall()
    failures += traced_failures

    total, own = tracer.times()
    c = tracer.counters
    metrics = {
        "lp.solve_s": total["lp.solve"],
        "lp.pivots": c["lp.pivots"],
        "lp.calls": c["lp.calls"],
        "lp.certificate_s": total["lp.certificate"],
        "mmf.assemble_s": own["mmf.solve"],
        "mmf.lp_rows": c["mmf.lp_rows"],
        "mmf.lp_cols": c["mmf.lp_cols"],
        "conflict.graph_hyperarc_s": total["conflict.graph_hyperarc"],
        "conflict.graph_link_s": total["conflict.graph_link"],
        "conflict.edges_hyperarc": c["conflict.edges_hyperarc"],
        "conflict.edges_link": c["conflict.edges_link"],
        "conflict.enumerate_s": total["conflict.enumerate"],
        "conflict.catalog_sets": c["conflict.catalog_sets"],
        "conflict.isn_s": total["conflict.isn"],
        "cfs.schedule_s": total["cfs.schedule"],
        "cfs.rounds": c["cfs.rounds"],
        "cfs.length_over_bound": _length_over_bound(runner),
        "cfs.length_over_optimal": _length_over_optimal(runner),
        "model.build_network_s": total["model.build_network"],
        "model.links": c["model.links"],
        "model.hyperarcs": c["model.hyperarcs"],
        "instance.load_s": total["instance.load"],
        "cli.render_s": total["cli.render"],
        "cli.output_bytes": output,
        "cli.self_s": own["cli.main"] + own["cli.cmd"],
        "cli.json_identical": _json_identical(runner),
        "trace.overhead": sum(t for _, t in traced) / sum(t for _, t in untraced) - 1,
    }
    spans = run_dir / "spans.json"
    spans.write_text(json.dumps({"spans": tracer.dump(), "per_case": per_case}))
    return {
        "attempted": len(untraced) + len(traced),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "per_case_counters": per_case,
        "spans_file": str(spans),
    }


def _length_over_bound(runner: Runner) -> float:
    ratios = [
        r["length"] / r["neighborhood_bound"]
        for name, text in runner.reports.items()
        if (r := json.loads(text)).get("algorithm") == "cfs" and r["neighborhood_bound"] > 0
    ]
    return statistics.fmean(ratios) if ratios else 0.0


def _length_over_optimal(runner: Runner) -> float:
    """Greedy length over the reference optimum, on the cases with an exact optimum."""
    from multiflow.cfs import cfs_schedule, coding_first_ordering
    from multiflow.conflict import build_conflict_graph
    from multiflow.instance import load_demand, load_instance

    ratios = []
    for case in runner.cases:
        optimum = runner.refs[case.name].get("length")
        if not optimum:
            continue
        path, demand = case_paths(runner.run_dir, case)
        net = load_instance(path).network
        gh = build_conflict_graph(net, "hyperarc")
        sched = cfs_schedule(net, gh, coding_first_ordering(gh), load_demand(demand, net))
        ratios.append(sched.length / optimum)
    return statistics.fmean(ratios) if ratios else 0.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_identical(runner: Runner) -> float:
    golden = json.loads(GOLDEN.read_text())
    names = [c.name for c in runner.cases if c.fixed and c.name in golden]
    same = [runner.reports.get(name) is not None and _digest(runner.reports[name]) == golden[name] for name in names]
    return sum(same) / len(same) if same else 0.0


def golden() -> None:
    from reference import reference

    run_dir = HERE.parent / ".bench_results" / "golden"
    digests = {}
    for name in workloads.WORKLOADS:
        cases = [c for c in workloads.cases(name, 0) if c.fixed and c.command != "certify"]
        write_cases(cases, run_dir)
        runner = Runner(cases, run_dir, {c.name: reference(c, *case_paths(run_dir, c)) for c in cases})
        for case in cases:
            problems = runner.call(case)[1]
            if problems:
                raise SystemExit(f"{case.name}: {problems}")
            digests[case.name] = _digest(runner.reports[case.name])
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    step = argv[0]
    if step == "golden":
        golden()
        return 0
    workload, seed, run_dir = argv[1], int(argv[2]), Path(argv[3])
    cases = workloads.cases(workload, seed)
    if step == "setup":
        print(json.dumps({"setup_s": setup(cases, run_dir)}))
    elif step == "reference":
        from reference import reference

        refs = {}
        for case in cases:
            path, demand = case_paths(run_dir, case)
            refs[case.name] = reference(case, path, demand)
        (run_dir / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True))
    elif step == "measure":
        budget, traced = float(argv[4]), argv[5] == "1"
        result = measure_traced(cases, run_dir) if traced else measure(cases, run_dir, budget)
        result["machine"] = machine()
        print(json.dumps(result))
    else:
        raise SystemExit(f"unknown step {step!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
