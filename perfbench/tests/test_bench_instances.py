"""Seeded generators are reproducible and the fixed cases reproduce the known work counts."""

from __future__ import annotations

import filecmp

import pytest

import instances as gen
import workloads
import multiflow.mmf
from multiflow import Commodity, build_conflict_graph, enumerate_schedulable_sets, load_instance
from tracing import Tracer
from worker import write_cases


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write_cases(workloads.cases(workload, 7), first)
    write_cases(workloads.cases(workload, 7), second)
    write_cases(workloads.cases(workload, 8), other)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert len(names) == len({c.name for c in workloads.cases(workload, 7)}) + sum(
        c.demand is not None for c in workloads.cases(workload, 7)
    )
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == []
    seeded = [p.name for p in first.iterdir() if not p.name.startswith(tuple(
        c.name + "." for c in workloads.cases(workload, 7) if c.fixed))]
    assert [(first / n).read_bytes() for n in sorted(seeded)] != [(other / n).read_bytes() for n in sorted(seeded)]


def test_fixed_cases_do_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        a = [c for c in workloads.cases(workload, 1) if c.fixed]
        b = [c for c in workloads.cases(workload, 2) if c.fixed]
        assert [(c.name, c.instance, c.demand) for c in a] == [(c.name, c.instance, c.demand) for c in b]


def test_generated_links_follow_the_package_order(tmp_path):
    inst = gen.random_geometric(gen.rng_for(5, "net"), 6, 5)
    net = load_instance(gen.write_json(tmp_path / "g.json", inst)).network
    assert gen.link_keys(inst) == [(lk.tail, lk.head) for lk in net.links]
    assert len(inst["nodes"]) == 30


def test_commodity_triples_are_distinct_pairs():
    for k in range(50):
        pairs = gen.commodity_triple(gen.rng_for(k), 12)
        assert len(set(pairs)) == 3 and all(s != t and 1 <= s <= 12 and 1 <= t <= 12 for s, t in pairs)


def test_fixed_instances_reproduce_the_baseline_counters(tmp_path):
    """4,529 pivots and 830 sets on the 4x4 corner triple; 31,770 sets on the 5x5 grid."""
    net = load_instance(gen.write_json(tmp_path / "g.json", gen.grid(4, 4))).network
    tracer = Tracer()
    tracer.install()
    try:
        sol = multiflow.mmf.solve_mmf(net, [Commodity(s, t) for s, t in gen.corner_triple(4, 4)], cap=1000)
    finally:
        tracer.uninstall()
    assert tracer.counters["lp.pivots"] == 4529
    assert tracer.counters["conflict.catalog_sets"] == len(sol.catalog) == 830
    assert tracer.counters["lp.calls"] == 1
    assert [s.name for s in tracer.spans if s.parent is None] == ["mmf.solve"]

    big = load_instance(gen.write_json(tmp_path / "h.json", gen.grid(5, 5))).network
    assert len(enumerate_schedulable_sets(build_conflict_graph(big, "hyperarc"), 10**6)) == 31770
