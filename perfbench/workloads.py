"""The benchmark's workloads: which calls each one makes, on which inputs.

A workload is a list of cases. Each pass of the timed loop makes every
case's call once, fixed cases first and seeded cases after them in a
seeded order. Fixed cases are the same for every seed, so their work
counters and reports can be compared across runs and commits; seeded
cases are drawn from ``--seed`` through ``instances``.

Case sizes are set so that one pass over the fixed cases takes a few
seconds on a 2-CPU machine; the README gives each workload's reason and
the layers it stresses. Each workload has an odd number of fixed cases
(3, 5 or 7) with well-separated call times, so that the median and the
90th percentile of their calls fall inside one case's calls and not on
the edge between two cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import instances as gen

BIG_CAP = "100000"  # lets every catalog these cases need be enumerated


@dataclass(frozen=True, eq=False)
class Case:
    """One call the benchmark makes.

    ``command`` is the CLI subcommand (``certify`` means the library call
    ``solve_mmf(..., exact_check=True)``), ``options`` its extra arguments.
    ``pinned`` holds known optima that stand in for a computed reference.
    """

    name: str
    command: str
    instance: dict
    options: tuple[str, ...] = ()
    demand: dict | None = None
    fixed: bool = False
    pinned: dict = field(default_factory=dict)

    @property
    def commodities(self) -> list[tuple[int, int]]:
        return [(c["source"], c["sink"]) for c in self.instance.get("commodities", ())]

    @property
    def mode(self) -> str:
        """The throughput mode a solve or certify call runs in."""
        if "--mode" in self.options:
            return self.options[self.options.index("--mode") + 1]
        return "coding" if "coding_nodes" in self.instance else "plain"


def _corner_case(command, width, height, coded, pinned, mirrored=False, options=()):
    name = f"{command}-{width}x{height}{'c' if coded else ''}-{'mirror' if mirrored else 'corner'}"
    inst = gen.with_commodities(gen.grid(width, height, coded), gen.corner_triple(width, height, mirrored))
    return Case(name, command, inst, options, fixed=True, pinned=pinned)


def _triple_case(seed, label, k, command, width, height, options=()):
    rng = gen.rng_for(seed, label, k)
    inst = gen.with_commodities(gen.grid(width, height, coded=True), gen.commodity_triple(rng, width * height))
    return Case(f"{label}-{k}", command, inst, options)


def throughput_lp(seed: int) -> tuple[list[Case], list[Case]]:
    plain, cap = ("--mode", "plain", "--cap", BIG_CAP), ("--cap", BIG_CAP)
    two_thirds, coded43 = Fraction(2, 3), Fraction(131, 151)
    fixed = [
        _corner_case("solve", 4, 4, False, {"throughput": two_thirds}, options=plain),
        _corner_case("solve", 4, 4, False, {"throughput": two_thirds}, mirrored=True, options=plain),
        _corner_case("compare", 4, 3, True, {"plain": two_thirds, "coding": coded43}, options=cap),
        _corner_case("solve", 4, 3, True, {"throughput": coded43}, options=cap),
        _corner_case("solve", 4, 3, True, {"throughput": coded43}, mirrored=True, options=cap),
        _corner_case("certify", 3, 3, True, {"throughput": Fraction(1)}),
        _corner_case("certify", 4, 3, True, {"throughput": coded43}),
    ]
    seeded = [_triple_case(seed, "solve-4x3c", k, "solve", 4, 3, cap) for k in range(3)]
    seeded += [_triple_case(seed, "compare-4x3c", k, "compare", 4, 3, cap) for k in range(3)]
    seeded += [_triple_case(seed, "certify-3x3c", k, "certify", 3, 3) for k in range(2)]
    seeded += [_triple_case(seed, "certify-4x3c", 0, "certify", 4, 3)]
    return fixed, seeded


def _cfs_case(seed, name, columns, rows, fixed=False):
    inst = gen.random_geometric(gen.rng_for(seed, name, "nodes"), columns, rows)
    demand = gen.uniform_demand(gen.rng_for(seed, name, "demand"), inst)
    return Case(name, "schedule", inst, ("--algorithm", "cfs"), demand, fixed)


def greedy_coded(seed: int) -> tuple[list[Case], list[Case]]:
    sizes = {64: (8, 8), 80: (10, 8), 100: (10, 10)}
    fixed = [_cfs_case("fixed", f"cfs-{n}-fixed", c, r, fixed=True) for n, (c, r) in sizes.items()]
    seeded = [_cfs_case(seed, f"cfs-{n}", *sizes[n]) for n in (64, 80)]
    return fixed, seeded


def _exact_case(seed, name, width, height, coded, pinned=None):
    inst = gen.grid(width, height, coded=coded)
    demand = gen.uniform_demand(gen.rng_for(seed, name), inst)
    options = ("--algorithm", "exact", "--cap", BIG_CAP)
    return Case(name, "schedule", inst, options, demand, fixed=pinned is not None, pinned=pinned or {})


def catalog_exact(seed: int) -> tuple[list[Case], list[Case]]:
    fixed = [
        Case("inspect-5x5", "inspect", gen.grid(5, 5), ("--cap", BIG_CAP), fixed=True,
             pinned={"catalog_size": 31770}),
        Case("inspect-4x4c", "inspect", gen.grid(4, 4, coded=True), ("--cap", BIG_CAP), fixed=True,
             pinned={"catalog_size": 2861}),
        Case("inspect-4x4", "inspect", gen.grid(4, 4), ("--cap", BIG_CAP), fixed=True,
             pinned={"catalog_size": 830}),
        # lengths of the fixed demands, confirmed by HiGHS in tests/test_bench_reference.py
        _exact_case("fixed", "exact-4x4-fixed", 4, 4, False, {"length": 0.426132}),
        _exact_case("fixed", "exact-4x4c-fixed", 4, 4, True, {"length": 0.31042683333333}),
    ]
    seeded = [_exact_case(seed, f"exact-4x4-{k}", 4, 4, False) for k in range(6)]
    return fixed, seeded


WORKLOADS = {
    "throughput_lp": throughput_lp,
    "greedy_coded": greedy_coded,
    "catalog_exact": catalog_exact,
}


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases in pass order: fixed ones, then seeded ones shuffled by seed."""
    fixed, seeded = WORKLOADS[workload](seed)
    gen.rng_for(seed, workload, "order").shuffle(seeded)
    return fixed + seeded
