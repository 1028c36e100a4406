"""Command line front end: solve, schedule, inspect, compare, demo."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .cfs import cfs_length_bound, cfs_schedule, coding_first_ordering
from .conflict import (
    DEFAULT_ENUMERATION_CAP,
    _row_lists,
    build_conflict_graph,
    closed_neighborhoods,
    enumerate_schedulable_sets,
    inductive_schedulable_number,
)
from .errors import EnumerationCapError, SolverError, ValidationError
from .instance import demo_instances, load_demand, load_instance
from .mmf import optimal_fractional_schedule, solve_mmf

_JSON_ITEMS = 1024


def _round9(value: float) -> float:
    # 9 significant digits for every number we print; + 0.0 turns -0.0 into 0.0
    return float(f"{float(value):.9g}") + 0.0


def _fmt(value: float) -> str:
    return f"{_round9(value):.9g}"


def _json(obj, pad: str) -> str:
    # json.dumps(obj, indent=2, sort_keys=True) nested at pad, floats rounded to 9 digits:
    # int lists through str, and other lists joined _JSON_ITEMS item strings at a time
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(obj.items()))
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            return f"[\n{inner}{sep.join(map(str, obj))}\n{pad}]"
        starts = range(0, len(obj), _JSON_ITEMS)
        blocks = ([_json(v, inner) for v in obj[k : k + _JSON_ITEMS]] for k in starts)
        return f"[\n{inner}{sep.join([sep.join(block) for block in blocks])}\n{pad}]"
    if isinstance(obj, float):
        value = _round9(obj)
        return repr(value) if math.isfinite(value) else json.dumps(value)
    return json.dumps(obj)


def render_json(report: dict) -> str:
    return _json(report, "")


def _resolve_mode(requested: str, network) -> str:
    if requested != "auto":
        return requested
    return "coding" if network.max_weight > 1 else "plain"


def cmd_solve(args) -> dict:
    inst = load_instance(args.instance)
    mode = _resolve_mode(args.mode, inst.network)
    sol = solve_mmf(
        inst.network, inst.commodities, mode=mode, bandwidth=inst.bandwidth, cap=args.cap
    )
    commodities = []
    for i, com in enumerate(inst.commodities):
        flow = {}
        for lk in inst.network.links:
            rate = float(sol.flows[i, lk.index - 1])
            if rate:
                flow[f"{lk.tail}-{lk.head}"] = rate
        commodities.append(
            {
                "source": com.source,
                "sink": com.sink,
                "value": sol.per_commodity[i],
                "flow": flow,
            }
        )
    schedule = [
        {
            "hyperarcs": sorted(sol.catalog.hyperarc_sets[j]),
            "links": sorted(sol.catalog.sublink_sets[j]),
            "lambda": sol.schedule_weights[j],
        }
        for j in sorted(sol.schedule_weights)
    ]
    return {
        "mode": mode,
        "throughput": sol.throughput,
        "commodities": commodities,
        "schedule": schedule,
        "schedule_length": sum(sol.schedule_weights.values(), 0.0),
    }


def cmd_compare(args) -> dict:
    inst = load_instance(args.instance)
    plain, coded = (
        solve_mmf(inst.network, inst.commodities, mode=m, bandwidth=inst.bandwidth, cap=args.cap)
        for m in ("plain", "coding")
    )
    alike = _round9(coded.throughput) == _round9(plain.throughput)  # no gain below print precision
    report = {
        "plain_throughput": plain.throughput,
        "coding_throughput": coded.throughput,
        "absolute_gain": 0.0 if alike else coded.throughput - plain.throughput,
    }
    if plain.throughput > 0:
        report["relative_gain"] = coded.throughput / plain.throughput
    return report


def cmd_inspect(args) -> dict:
    inst = load_instance(args.instance)
    net = inst.network
    g = build_conflict_graph(net, "link")
    gh = build_conflict_graph(net, "hyperarc")
    closed = closed_neighborhoods(g)
    report = {
        "links": net.link_count,
        "hyperarcs": net.hyperarc_count,
        "link_graph": {"vertices": g.vertex_count, "edges": g.edge_count},
        "hyperarc_graph": {"vertices": gh.vertex_count, "edges": gh.edge_count},
        "max_conflict_degree": g.max_conflict_degree,
    }
    try:
        catalog = enumerate_schedulable_sets(gh, args.cap)
    except EnumerationCapError as exc:
        report["note"] = f"catalog omitted: {exc}"
        return report
    if len(catalog):
        report["inductive_schedulable_number"] = inductive_schedulable_number(catalog, closed)
    report["catalog_size"] = len(catalog)
    report["catalog"] = _row_lists(catalog.incidence)  # sorted sub-link sets, in catalog order
    return report


def cmd_schedule(args) -> dict:
    inst = load_instance(args.instance)
    net = inst.network
    demand = load_demand(args.demand, net)
    gh = build_conflict_graph(net, "hyperarc")
    bound = cfs_length_bound(demand, closed_neighborhoods(gh))

    try:
        catalog = enumerate_schedulable_sets(gh, args.cap)
        sched, optimal = optimal_fractional_schedule(demand, catalog)
    except EnumerationCapError:
        if args.algorithm == "exact":
            raise
        optimal = None
    length = optimal
    if args.algorithm == "cfs":
        sched = cfs_schedule(net, gh, coding_first_ordering(gh), demand)
        length = sched.length

    report = {
        "algorithm": args.algorithm,
        "schedule": [{"set": sorted(vs), "lambda": lam} for vs, lam in sched.entries],
        "length": length,
        "neighborhood_bound": bound,
    }
    if optimal is not None:
        report["optimal_length"] = optimal
        if optimal > 0:
            report["ratio"] = length / optimal
    return report


def cmd_demo(args) -> dict:
    out = Path(args.dir)
    written = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, data in demo_instances().items():
            path = out / f"{name}.json"
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
            written.append(str(path))
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from None
    return {"written": written}


def _cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, dict):  # a conflict graph's size
        return f"{value['vertices']} vertices, {value['edges']} edges"
    return str(value)


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _grid(header: list[str], rows: list[list[str]]) -> list[str]:
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table]


def _table(report: dict) -> list[str]:
    """The aligned text view of a report: its non-list entries in report order, then its lists."""
    rows = [(k, _cell(v)) for k, v in report.items() if not isinstance(v, list) and k != "note"]
    width = max((len(key) for key, _ in rows), default=0)
    lines = [f"{key.ljust(width)}  {value}" for key, value in rows]
    if report.get("commodities"):
        grid = [
            [
                f"{com['source']}->{com['sink']}",
                _fmt(com["value"]),
                " ".join(f"{key}:{_fmt(rate)}" for key, rate in sorted(com["flow"].items())),
            ]
            for com in report["commodities"]
        ]
        lines += [""] + _grid(["commodity", "value", "flow"], grid)
    if report.get("schedule"):
        columns = [key for key in report["schedule"][0] if key != "lambda"]
        grid = [[_fmt(e["lambda"])] + [_joined(e[c]) for c in columns] for e in report["schedule"]]
        lines += [""] + _grid(["lambda", "hyperarcs", "links"][: 1 + len(columns)], grid)
    if "catalog" in report:
        lines.append("catalog")
        lines += ["  {" + _joined(ls) + "}" for ls in report["catalog"]]
    if "note" in report:
        lines.append(report["note"])
    return lines + [f"wrote {path}" for path in report.get("written", ())]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # one parser per process; each handler looks its command up when called
    parser = argparse.ArgumentParser(
        prog="multiflow",
        description="Maximum multiflow and fractional link scheduling "
        "for multihop wireless networks with broadcast coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_ENUMERATION_CAP,
            help="largest conflict graph enumerated exactly",
        )

    p = sub.add_parser("solve", help="maximum throughput of an instance")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("auto", "plain", "coding"), default="auto")
    common(p)
    p.set_defaults(handler=lambda args: cmd_solve(args))

    p = sub.add_parser("compare", help="plain versus coding throughput")
    p.add_argument("instance")
    common(p)
    p.set_defaults(handler=lambda args: cmd_compare(args))

    p = sub.add_parser("inspect", help="conflict graphs and schedulable sets")
    p.add_argument("instance")
    common(p)
    p.set_defaults(handler=lambda args: cmd_inspect(args))

    p = sub.add_parser("schedule", help="fractional schedule for a demand")
    p.add_argument("instance")
    p.add_argument("--demand", required=True, help="JSON file mapping \"tail-head\" to rates")
    p.add_argument("--algorithm", choices=("cfs", "exact"), default="cfs")
    common(p)
    p.set_defaults(handler=lambda args: cmd_schedule(args))

    p = sub.add_parser("demo", help="write the bundled two-way relay instances")
    p.add_argument("--dir", default=".")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=lambda args: cmd_demo(args))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationCapError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(report))
    else:
        print("\n".join(_table(report)))
    return 0
