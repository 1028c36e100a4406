"""Throughput LP, polytope membership, and optimal fractional schedules."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from multiflow import (
    Commodity,
    Node,
    SchedulableSetCatalog,
    build_network,
    SolverError,
    UncoverableDemandError,
    ValidationError,
    build_conflict_graph,
    enumerate_schedulable_sets,
    optimal_fractional_schedule,
    polytope_membership,
    solve_mmf,
)
from multiflow.instance import parse_demand
from multiflow.schedule import check_per_link

from helpers import (
    assert_valid_solution,
    random_commodities,
    random_network,
    relay_coded,
    relay_commodities,
    relay_plain,
    schedule_capacity,
)


def plain_catalog():
    return enumerate_schedulable_sets(build_conflict_graph(relay_plain(), "link"))


def coded_catalog():
    return enumerate_schedulable_sets(build_conflict_graph(relay_coded(), "hyperarc"))


def test_two_way_relay_plain_throughput():
    net = relay_plain()
    coms = relay_commodities()
    sol = solve_mmf(net, coms, mode="plain", exact_check=True)
    assert abs(sol.throughput - 0.5) <= 1e-9
    assert sol.exact_throughput == Fraction(1, 2)
    assert sol.mode == "plain"
    assert_valid_solution(net, coms, sol)


def test_the_audit_rejects_a_scheduled_set_that_conflicts():
    # relay links 1 and 2 conflict, so no scheduled set may hold both
    net, coms = relay_plain(), relay_commodities()
    sol = solve_mmf(net, coms, mode="plain")
    assert all(len(sol.catalog.hyperarc_sets[j]) == 1 for j in sol.schedule_weights)
    both = tuple(frozenset(s | {1, 2}) for s in sol.catalog.hyperarc_sets)
    tampered = dataclasses.replace(sol, catalog=dataclasses.replace(sol.catalog, hyperarc_sets=both))
    with pytest.raises(AssertionError):
        assert_valid_solution(net, coms, tampered)


def test_two_way_relay_coded_throughput():
    net = relay_coded()
    coms = relay_commodities()
    sol = solve_mmf(net, coms, mode="coding", exact_check=True)
    assert abs(sol.throughput - 2.0 / 3.0) <= 1e-9
    assert sol.exact_throughput == Fraction(2, 3)
    assert_valid_solution(net, coms, sol)
    # the broadcast set {3, 4} must carry weight at any optimum
    used = [
        sol.catalog.sublink_sets[j]
        for j, w in sol.schedule_weights.items()
        if w > 1e-9
    ]
    assert frozenset({3, 4}) in used


def test_plain_mode_ignores_hyperarcs():
    sol = solve_mmf(relay_coded(), relay_commodities(), mode="plain")
    assert abs(sol.throughput - 0.5) <= 1e-9
    assert all(len(s) == 1 for s in sol.catalog.hyperarc_sets)


def test_bandwidth_scales_throughput():
    net = relay_plain()
    sol = solve_mmf(net, relay_commodities(), mode="plain", bandwidth=np.full(4, 2.0))
    assert abs(sol.throughput - 1.0) <= 1e-9
    assert_valid_solution(net, relay_commodities(), sol, bandwidth=np.full(4, 2.0))
    half = solve_mmf(net, relay_commodities(), mode="plain", bandwidth=np.full(4, 0.5))
    assert abs(half.throughput - 0.25) <= 1e-9


@pytest.mark.parametrize("bw", [1e-12, 1e-9, 1e9, 1e12])
@pytest.mark.parametrize(
    "mode, q", [("plain", Fraction(1, 2)), ("coding", Fraction(2, 3))], ids=["plain", "coding"]
)
def test_bandwidths_far_from_one_scale_the_relay_throughput(mode, q, bw):
    # 1/bw in a capacity row would meet the simplex's absolute tolerances
    bandwidth = np.full(4, bw)
    sol = solve_mmf(relay_coded(), relay_commodities(), mode, bandwidth, exact_check=True)
    assert sol.exact_throughput == q * Fraction(bw)
    assert math.isclose(sol.throughput, float(q) * bw, rel_tol=1e-12)
    # flows come back in the bandwidth's unit too
    assert math.isclose(sum(sol.per_commodity), sol.throughput, rel_tol=1e-12)
    assert np.all(sol.flows.sum(axis=0) <= schedule_capacity(sol, bandwidth) * (1 + 1e-12))


def test_throughput_is_homogeneous_in_the_bandwidth():
    rng = np.random.default_rng(1515)
    positive = 0
    for _ in range(25):
        net = random_network(rng)
        coms = random_commodities(rng, net)
        bw = rng.uniform(0.5, 2.0, net.link_count)
        for mode in ("plain", "coding"):
            base = solve_mmf(net, coms, mode, bw).throughput
            positive += base > 0
            for s in (1e-12, 1e-9, 1e9, 1e12):
                scaled = solve_mmf(net, coms, mode, s * bw).throughput
                assert math.isclose(scaled, s * base, rel_tol=1e-9), (mode, s, base, scaled)
    assert positive >= 20


def test_one_way_commodity():
    net = relay_plain()
    sol = solve_mmf(net, [Commodity(1, 2)], mode="plain")
    # route 1 -> 3 -> 2 with the two links alternating
    assert abs(sol.throughput - 0.5) <= 1e-9


def test_unreachable_sink_gives_zero():
    nodes = list(relay_plain().nodes) + [Node(9, 30.0, 30.0, 1.0, 1.0)]
    far = build_network(nodes)
    sol = solve_mmf(far, [Commodity(1, 9)], mode="plain")
    assert abs(sol.throughput) <= 1e-9


def test_no_commodities():
    sol = solve_mmf(relay_plain(), [], mode="plain", exact_check=True)
    assert sol.throughput == 0.0
    assert sol.flows.shape == (0, 4)
    assert sol.exact_throughput == Fraction(0)


def test_solve_validation():
    net = relay_plain()
    with pytest.raises(ValidationError):
        solve_mmf(net, relay_commodities(), mode="magic")
    with pytest.raises(ValidationError):
        solve_mmf(net, [Commodity(1, 99)])
    with pytest.raises(ValidationError):
        Commodity(2, 2)
    with pytest.raises(ValidationError):
        solve_mmf(net, relay_commodities(), bandwidth=np.ones(3))
    with pytest.raises(ValidationError):
        solve_mmf(net, relay_commodities(), bandwidth=np.zeros(4))


def test_parse_demand_on_the_relay():
    net = relay_plain()
    d = parse_demand({"1-3": 0.25, "3-2": 0.25}, net)
    assert d.tolist() == [0.25, 0.0, 0.0, 0.25]
    with pytest.raises(ValidationError, match="not a link"):
        parse_demand({"1-2": 1.0}, net)


def test_validate_demand():
    n = relay_plain().link_count
    with pytest.raises(ValidationError):
        check_per_link([1.0, 2.0], n)
    with pytest.raises(ValidationError):
        check_per_link([1.0, 1.0, 1.0, -0.1], n)
    with pytest.raises(ValidationError):
        check_per_link([1.0, 1.0, 1.0, float("nan")], n)
    out = check_per_link([0.0, 0.1, 0.2, 0.3], n)
    assert out.shape == (4,)


def test_membership_canonical():
    quarter = np.full(4, 0.25)
    third = np.full(4, 1.0 / 3.0)
    assert polytope_membership(quarter, plain_catalog()).inside
    assert not polytope_membership(third, plain_catalog()).inside
    got = polytope_membership(third, coded_catalog())
    assert got.inside
    assert sum(got.certificate.values()) <= 1.0 + 1e-9
    cat = coded_catalog()
    cover = np.zeros(4)
    for j, w in got.certificate.items():
        cover += w * cat.incidence[j]
    assert np.all(cover >= third - 1e-9)


def test_membership_brackets_the_boundary():
    # scale the symmetric demand up and down around the known frontier
    cat = coded_catalog()
    assert polytope_membership(np.full(4, 1.0 / 3.0 - 1e-3), cat).inside
    assert not polytope_membership(np.full(4, 1.0 / 3.0 + 1e-3), cat).inside


def test_membership_empty_catalog():
    empty = SchedulableSetCatalog(
        hyperarc_sets=(), sublink_sets=(), incidence=np.zeros((0, 2)), link_count=2
    )
    assert polytope_membership(np.zeros(2), empty).inside
    assert not polytope_membership(np.array([0.1, 0.0]), empty).inside


def test_empty_programs_take_the_lp_path():
    # no link, so no variable: the one budget row alone, solved and certified
    net = build_network([Node(1, 0.0, 0.0, 1.0, 1.0), Node(2, 5.0, 0.0, 1.0, 1.0)])
    sol = solve_mmf(net, [Commodity(1, 2)], exact_check=True)
    assert sol.throughput == 0.0 and sol.per_commodity == (0.0,)
    assert sol.flows.shape == (1, 0) and sol.schedule_weights == {}
    assert sol.exact_throughput == Fraction(0)
    empty = SchedulableSetCatalog(
        hyperarc_sets=(), sublink_sets=(), incidence=np.zeros((0, 2)), link_count=2
    )
    sched, length = optimal_fractional_schedule(np.zeros(2), empty)
    assert sched.entries == () and math.copysign(1.0, length) == 1.0 and length == 0.0


def test_membership_validation():
    with pytest.raises(ValidationError):
        polytope_membership(np.ones(3), coded_catalog())
    with pytest.raises(ValidationError):
        polytope_membership(np.array([0.1, 0.1, 0.1, -0.1]), coded_catalog())


def test_optimal_schedule_canonical():
    sched, length = optimal_fractional_schedule(np.full(4, 0.25), plain_catalog())
    assert abs(length - 1.0) <= 1e-9
    assert abs(sched.length - 1.0) <= 1e-9
    sched, length = optimal_fractional_schedule(np.full(4, 1.0 / 3.0), coded_catalog())
    assert abs(length - 1.0) <= 1e-9
    picked = {frozenset(vs) for vs, _ in sched.entries}
    assert frozenset({5}) in picked


def test_optimal_schedule_zero_demand():
    sched, length = optimal_fractional_schedule(np.zeros(4), coded_catalog())
    assert length == 0.0
    assert len(sched) == 0


def test_optimal_schedule_covers_demand():
    rng = np.random.default_rng(31)
    cat = coded_catalog()
    for _ in range(10):
        d = rng.uniform(0.0, 0.5, 4)
        sched, length = optimal_fractional_schedule(d, cat)
        cover = np.zeros(4)
        for vs, lam in sched.entries:
            j = cat.hyperarc_sets.index(frozenset(vs))
            cover += lam * cat.incidence[j]
        assert np.all(cover >= d - 1e-9)
        assert abs(sched.length - length) <= 1e-9


def test_uncoverable_demand():
    catalog = SchedulableSetCatalog(
        hyperarc_sets=(frozenset({1}),),
        sublink_sets=(frozenset({1}),),
        incidence=np.array([[1.0, 0.0]]),
        link_count=2,
    )
    with pytest.raises(UncoverableDemandError) as err:
        optimal_fractional_schedule(np.array([0.5, 0.3]), catalog)
    assert "2" in str(err.value)
    # zero demand on the uncovered link is fine
    sched, length = optimal_fractional_schedule(np.array([0.5, 0.0]), catalog)
    assert abs(length - 0.5) <= 1e-9


def test_uncoverable_demand_names_every_missing_link():
    # links 2 and 3 lie in no set
    catalog = SchedulableSetCatalog(
        hyperarc_sets=(frozenset({1}), frozenset({2})),
        sublink_sets=(frozenset({1}), frozenset({4})),
        incidence=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
        link_count=4,
    )
    expected = "links [2, 3] have positive demand but appear in no schedulable set"
    with pytest.raises(UncoverableDemandError) as err:
        optimal_fractional_schedule(np.array([0.5, 0.25, 0.125, 0.5]), catalog)
    assert str(err.value) == expected
    assert not polytope_membership(np.array([0.0, 0.0, 0.125, 0.0]), catalog).inside
    sched, length = optimal_fractional_schedule(np.array([0.5, 0.0, 0.0, 0.25]), catalog)
    assert abs(length - 0.75) <= 1e-9


def test_membership_agrees_with_schedule_length():
    rng = np.random.default_rng(47)
    for _ in range(25):
        net = random_network(rng)
        cat = enumerate_schedulable_sets(build_conflict_graph(net, "hyperarc"))
        d = rng.uniform(0.0, 0.4, net.link_count)
        inside = polytope_membership(d, cat).inside
        _, length = optimal_fractional_schedule(d, cat)
        assert inside == (length <= 1.0 + 1e-9)


def test_random_solutions_are_feasible():
    rng = np.random.default_rng(53)
    for _ in range(15):
        net = random_network(rng)
        coms = random_commodities(rng, net)
        for mode in ("plain", "coding"):
            sol = solve_mmf(net, coms, mode=mode)
            assert_valid_solution(net, coms, sol)
            assert sol.throughput >= -1e-9
