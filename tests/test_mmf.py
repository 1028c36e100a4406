"""Throughput LP, polytope membership, and optimal fractional schedules."""

import dataclasses
import hashlib
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
import multiflow.mmf as mmf_module
from multiflow.instance import parse_demand
from multiflow.schedule import check_per_link

from helpers import (
    assert_exact_zeros,
    assert_valid_solution,
    coded_grid,
    every_set_priced,
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
    both = sol.catalog.member.copy()
    both[:, :2] = True  # every set gains vertices 1 and 2
    tampered = dataclasses.replace(sol, catalog=dataclasses.replace(sol.catalog, member=both))
    assert all({1, 2} <= s for s in tampered.catalog.hyperarc_sets)
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


@pytest.mark.parametrize("width", [3, 4])
def test_lp_rows_keep_every_bit_of_a_float_incidence_assembly(monkeypatch, width):
    # the boolean incidence is negated in float: -1.0 and -0.0 entries, as from a float one
    programs = []
    solve_lp = mmf_module.solve_lp
    monkeypatch.setattr(mmf_module, "solve_lp", lambda p, **kw: programs.append(p) or solve_lp(p, **kw))

    def assert_same_bits(rows, want):
        assert np.array_equal(rows, want)
        assert np.array_equal(np.signbit(rows), np.signbit(want))

    net = coded_grid(width, 3)
    last = width * 3
    coms = (Commodity(1, last), Commodity(last, 1), Commodity(width, last - width + 1))
    k, n = len(coms), net.link_count
    for mode in ("plain", "coding"):
        sol = solve_mmf(net, coms, mode=mode, cap=1000)
        program = programs.pop()
        incidence = sol.catalog.incidence
        if mode == "coding":  # the LP prices the link-maximal sets alone
            incidence = incidence[sol.catalog.link_maximal]
        else:
            assert sol.catalog.link_maximal is None
        float_incidence = incidence.astype(np.float64)
        want = program.rows.copy()
        want[np.count_nonzero(program.equal) : -1, k * n :] = -float_incidence.T
        assert_same_bits(program.rows, want)
    d = np.random.default_rng(width).uniform(0.0, 0.2, n)
    optimal_fractional_schedule(d, sol.catalog)
    assert_same_bits(programs.pop().rows, -float_incidence.T)
    assert not programs


# sha256 of each plain program's objective, rows, bounds and equality marks, byte for byte:
# a link catalog marks no set, so the link-maximal filter leaves every plain LP as it was
PLAIN_PROGRAMS = {
    "4x4 corner": "3a006c02bcf63aa80d55fdbb7717d36c1067680ee1977574fe856f80d0feac55",
    "relay": "c552b7b6579f0f529e7708f421131c017ca4094a17e38a32960d6b1a023690a1",
    "30 random": "704d477c023158bf1a1aa5dd91056d3a9de00d91336ea1046488ca3b74db5dc6",
    "4x4 covering": "e3cc2803372871751310a349a3fa32f58dec23c5afebd15d69cf188ccf491014",
}


def test_plain_programs_keep_every_byte(monkeypatch):
    programs = []
    solve_lp = mmf_module.solve_lp
    monkeypatch.setattr(mmf_module, "solve_lp", lambda p, **kw: programs.append(p) or solve_lp(p, **kw))

    def digest(program):
        h = hashlib.sha256()
        for array in (program.objective, program.rows, program.bounds, program.equal):
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()

    got = {}
    triple = (Commodity(1, 16), Commodity(16, 1), Commodity(4, 13))
    solve_mmf(coded_grid(4, 4), triple, mode="plain", cap=100)
    got["4x4 corner"] = digest(programs.pop())
    solve_mmf(relay_coded(), relay_commodities(), mode="plain")
    got["relay"] = digest(programs.pop())
    rng, chain = np.random.default_rng(5), hashlib.sha256()
    for _ in range(30):
        net = random_network(rng)
        solve_mmf(net, random_commodities(rng, net), mode="plain")
        chain.update(digest(programs.pop()).encode())
    got["30 random"] = chain.hexdigest()
    catalog = enumerate_schedulable_sets(build_conflict_graph(coded_grid(4, 4), "link"), 100)
    optimal_fractional_schedule(np.random.default_rng(9).uniform(0, 0.2, 48), catalog)
    got["4x4 covering"] = digest(programs.pop())
    assert got == PLAIN_PROGRAMS


def test_the_link_maximal_sets_reach_every_exact_optimum(monkeypatch):
    corner = (Commodity(1, 12), Commodity(12, 1), Commodity(4, 9))
    cases = [(relay_coded(), relay_commodities()), (coded_grid(4, 3), corner)]
    rng = np.random.default_rng(61)
    for _ in range(25):
        net = random_network(rng)
        cases.append((net, random_commodities(rng, net)))
    filtered = [solve_mmf(net, coms, "coding", cap=100, exact_check=True) for net, coms in cases]
    assert filtered[1].exact_throughput == Fraction(131, 151)
    # the covering LP over the same catalogs, too
    covered = []
    for sol, (net, coms) in zip(filtered, cases):
        assert_valid_solution(net, coms, sol)
        marks = sol.catalog.link_maximal
        assert marks is None or all(marks[j] for j in sol.schedule_weights)
        d = rng.uniform(0.0, 0.3, net.link_count)
        sched, length = optimal_fractional_schedule(d, sol.catalog)
        assert np.all(sched.capacity(net) >= d - 1e-9)
        covered.append((d, length))
    every_set_priced(monkeypatch)
    for sol, (net, coms), (d, length) in zip(filtered, cases, covered):
        full = solve_mmf(net, coms, "coding", cap=100, exact_check=True)
        assert full.exact_throughput == sol.exact_throughput
        _, full_length = optimal_fractional_schedule(d, sol.catalog)
        assert length == pytest.approx(full_length, rel=1e-9, abs=1e-12)


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


@pytest.mark.parametrize("bw", [1e-13, 1e-12, 1e-9, 1e9, 1e12])
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
    assert_exact_zeros(sol, bandwidth)


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
                sol = solve_mmf(net, coms, mode, s * bw)
                assert math.isclose(sol.throughput, s * base, rel_tol=1e-9), (mode, s, base)
                assert_exact_zeros(sol, s * bw)
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
        member=np.zeros((0, 0), dtype=bool), incidence=np.zeros((0, 2), dtype=bool)
    )
    assert empty.link_count == 2
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
        member=np.zeros((0, 0), dtype=bool), incidence=np.zeros((0, 2), dtype=bool)
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


@pytest.mark.parametrize("unit", [1e-13, 1e-9])
def test_exact_schedule_covers_demands_in_small_units(unit):
    # an absolute 1e-12 share cutoff once dropped every share of a 1e-13 demand
    net, d = relay_coded(), np.full(4, unit)
    sched, length = optimal_fractional_schedule(d, coded_catalog())
    assert length == pytest.approx(3 * unit, rel=1e-9)
    assert sched.length == pytest.approx(length, rel=1e-9)
    assert np.all(sched.capacity(net) >= d * (1 - 1e-9))
    membership = polytope_membership(d, coded_catalog())
    assert membership.inside and sum(membership.certificate.values()) == pytest.approx(length)


def test_uncoverable_demand():
    catalog = SchedulableSetCatalog(member=np.array([[True]]), incidence=np.array([[True, False]]))
    with pytest.raises(UncoverableDemandError) as err:
        optimal_fractional_schedule(np.array([0.5, 0.3]), catalog)
    assert "2" in str(err.value)
    # zero demand on the uncovered link is fine
    sched, length = optimal_fractional_schedule(np.array([0.5, 0.0]), catalog)
    assert abs(length - 0.5) <= 1e-9


def test_uncoverable_demand_names_every_missing_link():
    # links 2 and 3 lie in no set
    catalog = SchedulableSetCatalog(
        member=np.array([[True, False], [False, True]]),
        incidence=np.array([[True, False, False, False], [False, False, False, True]]),
    )
    assert catalog.sublink_sets == (frozenset({1}), frozenset({4}))
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
