"""Greedy coding-first scheduling and its length guarantees."""

import math
import tracemalloc

import numpy as np
import pytest

from multiflow import (
    FractionalSchedule,
    Node,
    ValidationError,
    build_conflict_graph,
    build_network,
    cfs_length_bound,
    cfs_schedule,
    closed_neighborhoods,
    coding_first_ordering,
    enumerate_schedulable_sets,
    optimal_fractional_schedule,
)
import multiflow.cfs as cfs_module
from multiflow.conflict import compat_masks, inductive_schedulable_number

from helpers import (
    coded_grid,
    coding_first_mwis,
    loop_capacity,
    loop_cfs_schedule,
    loop_coding_first_mwis,
    make_conflict_graph,
    neighbor_sets,
    random_demand,
    random_network,
    relay_coded,
    relay_plain,
    sublink_sets,
    sum_length_bound,
)


def coded_setup():
    net = relay_coded()
    gh = build_conflict_graph(net, "hyperarc")
    return net, gh, coding_first_ordering(gh)


def test_ordering_puts_heavy_arcs_first():
    _, _, omega = coded_setup()
    assert omega == (5, 1, 2, 3, 4)


def test_ordering_breaks_ties_by_index():
    cg = make_conflict_graph(4, [], sublinks=[{1}, {1, 2}, {3, 4}, {3}])
    assert coding_first_ordering(cg) == (2, 3, 1, 4)


def test_ordering_matches_the_sorted_weight_rule():
    # the old rule: sort (-weight, vertex) tuples; random sub-link counts tie often
    rng = np.random.default_rng(23)
    graphs = [build_conflict_graph(random_network(rng), "hyperarc") for _ in range(20)]
    for _ in range(60):
        n, links = int(rng.integers(0, 40)), int(rng.integers(1, 9))
        sublinks = [
            (rng.choice(links, size=int(rng.integers(1, min(4, links) + 1)), replace=False) + 1)
            for _ in range(n)
        ]
        graphs.append(make_conflict_graph(n, [], sublinks=sublinks, link_count=links))
    for cg in graphs:
        weights = [len(s) for s in sublink_sets(cg)]
        want = tuple(v for _, v in sorted((-w, v) for v, w in enumerate(weights, 1)))
        assert coding_first_ordering(cg) == want


def test_capacity_matches_the_union_loop_bit_for_bit():
    rng = np.random.default_rng(47)
    for _ in range(40):
        net = random_network(rng)
        gh = build_conflict_graph(net, "hyperarc")
        d = random_demand(rng, net, low=0.05)
        greedy = cfs_schedule(net, gh, coding_first_ordering(gh), d)
        exact, _ = optimal_fractional_schedule(d, enumerate_schedulable_sets(gh))
        for sched in (greedy, exact):
            assert np.array_equal(sched.capacity(net), loop_capacity(sched, net))
    # an entry's hyperarcs may overlap (3 and 5 both serve link 3): the union counts once
    net = relay_coded()
    overlapping = FractionalSchedule(((frozenset({3, 5}), 0.5), (frozenset({3}), 0.25)))
    assert overlapping.capacity(net).tolist() == [0.0, 0.0, 0.75, 0.5]
    assert np.array_equal(overlapping.capacity(net), loop_capacity(overlapping, net))
    for vertices, bad in (({0, 5, 6}, 0), ({5, 7, 9}, 7), ({1, 2**70}, 2**70)):
        with pytest.raises(ValidationError, match=rf"^hyperarc index {bad} outside 1..5$"):
            FractionalSchedule(((frozenset(vertices), 1.0),)).capacity(net)


@pytest.mark.parametrize("weight", [0, -1, float("nan"), float("inf")])
def test_a_schedule_weight_must_be_positive_and_finite(weight):
    message = rf"^schedule weight must be positive, got {float(weight)}$"
    with pytest.raises(ValidationError, match=message):
        FractionalSchedule(((frozenset({1}), weight),))


def test_mwis_greedy_properties():
    cg = make_conflict_graph(3, [(1, 2)], sublinks=[{1, 2}, {1}, {3}])
    omega = coding_first_ordering(cg)
    assert omega == (1, 2, 3)
    picked = coding_first_mwis({1, 2, 3}, omega, cg)
    assert picked == frozenset({1, 3})
    # restricted to later candidates the scan starts there
    assert coding_first_mwis({2, 3}, omega, cg) == frozenset({2, 3})
    with pytest.raises(ValidationError):
        coding_first_mwis(set(), omega, cg)


def test_mwis_respects_candidates_and_independence():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.4
        ]
        cg = make_conflict_graph(n, edges)
        omega = coding_first_ordering(cg)
        cands = {v for v in range(1, n + 1) if rng.random() < 0.7} or {1}
        picked = coding_first_mwis(cands, omega, cg)
        assert picked <= cands
        assert cg.is_independent(picked)
        # maximal within the candidates
        adjacency = neighbor_sets(cg)
        for v in cands - picked:
            assert adjacency[v - 1] & picked
        first = next(v for v in omega if v in cands)
        assert first in picked


def weight3_network(rng):
    """Random geometric network with every node coding up to degree 3."""
    count = int(rng.integers(8, 15))
    nodes = [
        Node(i + 1, float(rng.uniform(0, 2.5)), float(rng.uniform(0, 2.5)), 1.0, 1.5)
        for i in range(count)
    ]
    return build_network(nodes, coding_nodes=range(1, count + 1), max_coding_degree=3)


def oracle_demands(rng, net):
    yield np.zeros(net.link_count)
    # few distinct values: equal residuals make ties decide every pick
    yield rng.choice([0.0, 0.25, 0.5], net.link_count)
    yield np.full(net.link_count, 0.1)
    # leftovers of 1e-10 must survive the 1e-12 residual cutoff; decimal
    # rates leave rounding leftovers below it
    yield rng.choice([0.25, 0.25 + 1e-10, 0.5], net.link_count)
    yield rng.choice([0.1, 0.2, 0.3], net.link_count)
    yield random_demand(rng, net)


def test_cfs_matches_loop_oracle_exactly():
    rng = np.random.default_rng(89)
    networks = [random_network(rng) for _ in range(40)]
    networks += [weight3_network(rng) for _ in range(6)]
    networks += [relay_plain(), relay_coded()]
    assert max(net.max_weight for net in networks) == 3
    for net in networks:
        gh = build_conflict_graph(net, "hyperarc")
        omega = coding_first_ordering(gh)
        for d in oracle_demands(rng, net):
            got = cfs_schedule(net, gh, omega, d)
            assert got.entries == loop_cfs_schedule(net, gh, omega, d).entries
        for _ in range(5):
            cands = {v for v in range(1, gh.vertex_count + 1) if rng.random() < 0.5} or {1}
            assert coding_first_mwis(cands, omega, gh) == loop_coding_first_mwis(cands, omega, gh)


def test_canonical_trace():
    net, gh, omega = coded_setup()
    sched = cfs_schedule(net, gh, omega, np.full(4, 1.0 / 3.0))
    got = [(sorted(vs), round(lam, 12)) for vs, lam in sched.entries]
    assert got == [([5], round(1.0 / 3.0, 12)), ([1], round(1.0 / 3.0, 12)), ([2], round(1.0 / 3.0, 12))]
    assert abs(sched.length - 1.0) <= 1e-12
    assert np.allclose(sched.capacity(net), np.full(4, 1.0 / 3.0), atol=1e-12)


def test_asymmetric_trace():
    net, gh, omega = coded_setup()
    sched = cfs_schedule(net, gh, omega, np.array([0.2, 0.1, 0.3, 0.4]))
    got = [(sorted(vs), round(lam, 12)) for vs, lam in sched.entries]
    assert got == [([5], 0.3), ([1], 0.2), ([2], 0.1), ([4], 0.1)]
    assert abs(sched.length - 0.7) <= 1e-12


def test_zero_demand_schedules_nothing():
    net, gh, omega = coded_setup()
    sched = cfs_schedule(net, gh, omega, np.zeros(4))
    assert len(sched) == 0
    assert sched.length == 0.0


def test_cfs_validation():
    net, gh, omega = coded_setup()
    with pytest.raises(ValidationError):
        cfs_schedule(net, gh, omega, np.ones(3))
    with pytest.raises(ValidationError):
        cfs_schedule(net, gh, omega, np.array([1.0, 1.0, 1.0, -1.0]))
    plain = relay_plain()
    g = build_conflict_graph(plain, "link")
    small = make_conflict_graph(2, [], sublinks=[{1}, {2}])
    with pytest.raises(ValidationError):
        cfs_schedule(net, small, coding_first_ordering(small), np.ones(4))
    assert g.link_count == 4  # same network shape, so this one is fine


def test_cfs_delivers_demand_exactly():
    rng = np.random.default_rng(61)
    for _ in range(40):
        net = random_network(rng)
        gh = build_conflict_graph(net, "hyperarc")
        omega = coding_first_ordering(gh)
        d = random_demand(rng, net)
        sched = cfs_schedule(net, gh, omega, d)
        assert np.all(np.abs(sched.capacity(net) - d) <= 1e-9)
        assert len(sched) <= net.link_count
        for vs, lam in sched.entries:
            assert lam > 0
            assert gh.is_independent(vs)


def test_cfs_length_bound_canonical():
    net = relay_coded()
    nb = closed_neighborhoods(build_conflict_graph(net, "link"))
    d = np.full(4, 1.0 / 3.0)
    assert abs(cfs_length_bound(d, nb) - 4.0 / 3.0) <= 1e-12
    assert cfs_length_bound(np.zeros(4), nb) == 0.0
    with pytest.raises(ValidationError):
        cfs_length_bound(np.ones(3), nb)


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_length_bound_is_bit_equal_to_an_ascending_sum(monkeypatch, block):
    monkeypatch.setattr(cfs_module, "_BOUND_ROWS", block)
    rng = np.random.default_rng(149)
    nets = [random_network(rng) for _ in range(30)] + [coded_grid(4, 4), relay_coded()]
    for net in nets:
        closed = closed_neighborhoods(build_conflict_graph(net, "link"))
        n = net.link_count
        for d in (10.0 ** rng.uniform(-14, 3, n), rng.choice([0.0, 1e-14, 0.1, 0.3, 1e3], n)):
            assert cfs_length_bound(d, closed).hex() == sum_length_bound(d, closed).hex()
    empty = closed_neighborhoods(build_conflict_graph(build_network([]), "link"))
    assert cfs_length_bound(np.zeros(0), empty) == 0.0


def test_cfs_length_within_bound():
    rng = np.random.default_rng(67)
    for _ in range(60):
        net = random_network(rng)
        gh = build_conflict_graph(net, "hyperarc")
        nb = closed_neighborhoods(build_conflict_graph(net, "link"))
        d = random_demand(rng, net)
        sched = cfs_schedule(net, gh, coding_first_ordering(gh), d)
        assert sched.length <= cfs_length_bound(d, nb) + 1e-9


def test_cfs_against_optimal_and_inductive_number():
    # the degree bound on the inductive schedulable number needs every
    # link to conflict with at least as many links as the widest
    # broadcast, so the sampler skips instances below that premise
    rng = np.random.default_rng(71)
    accepted = 0
    while accepted < 20:
        net = random_network(rng, require_conflict=True)
        g = build_conflict_graph(net, "link")
        nb = closed_neighborhoods(g)
        if g.max_conflict_degree < net.max_weight:
            continue
        gh = build_conflict_graph(net, "hyperarc")
        catalog = enumerate_schedulable_sets(gh)
        alpha = inductive_schedulable_number(catalog, nb)
        assert max(1, net.max_weight) <= alpha <= g.max_conflict_degree
        d = random_demand(rng, net, low=0.05)
        sched = cfs_schedule(net, gh, coding_first_ordering(gh), d)
        _, optimal = optimal_fractional_schedule(d, catalog)
        assert sched.length <= alpha * optimal + 1e-6
        accepted += 1


def test_inductive_membership():
    net = relay_coded()
    nb = closed_neighborhoods(build_conflict_graph(net, "link"))
    assert cfs_length_bound(np.full(4, 0.25), nb) <= 1.0 + 1e-12
    assert not cfs_length_bound(np.full(4, 1.0 / 3.0), nb) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "ordering", [(0, 1, 2, 3, 4), (5, 1, 2), (7, 1, 2, 3, 4), (5, 5, 1, 2, 3, 4), ()]
)
def test_cfs_rejects_an_ordering_that_is_not_a_permutation(ordering):
    net, gh, _ = coded_setup()
    with pytest.raises(ValidationError, match=r"not a permutation of 1\.\.5"):
        cfs_schedule(net, gh, ordering, np.full(4, 0.25))


# ---------------------------------------------------------------------------
# the bitmask rounds against the loop oracle on their edge cases


def line_network(nodes: int):
    """Unit-spaced nodes on a line with r = 1: 2 * (nodes - 1) links."""
    return build_network([Node(i + 1, float(i), 0.0, 1.0, 1.5) for i in range(nodes)])


def synthetic_graph(rng, vertices: int, links: int):
    """Random graph whose vertices deliver 1-3 of the links; vertices sharing a link conflict."""
    sublinks = [
        set((rng.choice(links, size=int(rng.integers(1, 4)), replace=False) + 1).tolist())
        for _ in range(vertices)
    ]
    p = float(rng.uniform(0.05, 0.6))
    edges = [
        (u, v)
        for u in range(1, vertices + 1)
        for v in range(u + 1, vertices + 1)
        if sublinks[u - 1] & sublinks[v - 1] or rng.random() < p
    ]
    return make_conflict_graph(vertices, edges, sublinks=sublinks, link_count=links)


def edge_demands(rng, links: int):
    yield rng.uniform(0.0, 1.0, links)
    yield np.zeros(links)
    # exact zeros and values at or under the 1e-12 cutoff kill their holders at the start
    d = rng.choice([0.0, 0.25, 0.5], links)
    d[rng.random(links) < 0.3] = rng.choice([1e-12, 5e-13, 1e-15, 1e-300])
    yield d
    yield rng.choice([0.0, 1e-12, 0.3], links)


def assert_matches_oracle(net, gh, omega, d):
    got = cfs_schedule(net, gh, omega, d)
    assert got.entries == loop_cfs_schedule(net, gh, omega, d).entries
    return got


@pytest.mark.parametrize("vertices", [1, 7, 8, 9, 63, 64, 65, 129])
def test_cfs_matches_loop_oracle_across_mask_widths(vertices):
    rng = np.random.default_rng(1000 + vertices)
    net = line_network(7)  # 12 links
    for _ in range(3):
        gh = synthetic_graph(rng, vertices, net.link_count)
        omegas = [coding_first_ordering(gh), tuple((rng.permutation(vertices) + 1).tolist())]
        for omega in omegas:
            for d in edge_demands(rng, net.link_count):
                assert_matches_oracle(net, gh, omega, d)
            for _ in range(3):
                cands = {v for v in range(1, vertices + 1) if rng.random() < 0.5} or {vertices}
                want = loop_coding_first_mwis(cands, omega, gh)
                assert coding_first_mwis(cands, omega, gh) == want


def test_scan_masks_pack_the_compat_masks_and_each_links_holders():
    rng = np.random.default_rng(64)
    net = line_network(7)
    gh = synthetic_graph(rng, 129, net.link_count)
    omega = tuple((rng.permutation(129) + 1).tolist())
    order = np.array(omega) - 1
    compat, holders = cfs_module._scan_masks(gh, order)
    assert compat == compat_masks(gh, order)
    # bit j of holders[a]: the vertex at scan position j delivers link a
    sublinks = sublink_sets(gh)
    for a in range(net.link_count):
        assert [(holders[a] >> j) & 1 for j in range(129)] == [
            int(a + 1 in sublinks[v]) for v in order
        ]
    for d in edge_demands(rng, net.link_count):
        assert_matches_oracle(net, gh, omega, d)


def test_cfs_entries_repr_match_the_loop_oracle_off_the_coding_first_order():
    rng = np.random.default_rng(151)
    nets = [random_network(rng) for _ in range(20)] + [coded_grid(3, 3), coded_grid(4, 3)]
    for net in nets:
        gh = build_conflict_graph(net, "hyperarc")
        omega = coding_first_ordering(gh)
        while omega == coding_first_ordering(gh) and gh.vertex_count > 1:
            omega = tuple((rng.permutation(gh.vertex_count) + 1).tolist())
        for d in (random_demand(rng, net), rng.choice([0.0, 1e-13, 0.25, 0.5], net.link_count)):
            got = cfs_schedule(net, gh, omega, d)
            assert repr(got.entries) == repr(loop_cfs_schedule(net, gh, omega, d).entries)


def test_cfs_matches_loop_oracle_on_any_scan_order():
    rng = np.random.default_rng(97)
    for _ in range(30):
        net = random_network(rng)
        gh = build_conflict_graph(net, "hyperarc")
        for _ in range(3):
            omega = tuple((rng.permutation(gh.vertex_count) + 1).tolist())
            for d in edge_demands(rng, net.link_count):
                sched = assert_matches_oracle(net, gh, omega, d)
                assert all(gh.is_independent(vs) for vs, _ in sched.entries)


def test_demand_at_or_under_the_cutoff_schedules_nothing():
    # the cutoff is 1e-12 times the largest demand while that demand is under 1
    net, gh, omega = coded_setup()
    assert assert_matches_oracle(net, gh, omega, np.zeros(4)).entries == ()
    # links 1, 3 and 4 at or under 1e-12 next to a demand of 1: only hyperarc 2 runs
    sched = assert_matches_oracle(net, gh, omega, np.array([1e-12, 1.0, 5e-13, 1e-300]))
    assert [(sorted(vs), lam) for vs, lam in sched.entries] == [([2], 1.0)]
    # link 2 at the cutoff: hyperarc 5 (links 3 and 4) still runs, hyperarc 2 never does
    sched = assert_matches_oracle(net, gh, omega, np.array([0.2, 1e-12 * 0.4, 0.3, 0.4]))
    got = [(sorted(vs), round(lam, 12)) for vs, lam in sched.entries]
    assert got == [([5], 0.3), ([1], 0.2), ([4], 0.1)]


def test_a_residual_left_exactly_at_the_cutoff_settles():
    # x - lam is exactly 1e-12, which counts as served: vertex 2 never runs;
    # link 3, which no vertex holds, puts the largest demand at 1
    lam, x = 1.0000000000000004e-12, 2.0000000000000004e-12
    assert x - lam == 1e-12
    gh = make_conflict_graph(2, [(1, 2)], sublinks=[{1, 2}, {2}], link_count=4)
    sched = assert_matches_oracle(line_network(3), gh, (1, 2), np.array([lam, x, 1.0, 0.0]))
    assert sched.entries == ((frozenset({1}), lam),)


@pytest.mark.parametrize("unit", [1e-13, 1e-9])
def test_demands_in_small_units_are_delivered(unit):
    net, gh, omega = coded_setup()
    for d in (np.full(4, unit), np.array([1.0, 0.0, 0.5, 0.25]) * unit):
        sched = assert_matches_oracle(net, gh, omega, d)
        assert np.allclose(loop_capacity(sched, net), d, rtol=1e-9, atol=0.0)
    sched = cfs_schedule(net, gh, omega, np.full(4, unit))
    assert [sorted(vs) for vs, _ in sched.entries] == [[5], [1], [2]]
    assert sched.length == pytest.approx(3 * unit, rel=1e-9)


def test_a_link_no_surviving_vertex_holds_is_left_unserved():
    net = line_network(3)  # 4 links
    # link 4 is only delivered by vertex 3, which also holds the zero-demand link 1;
    # link 2 has no vertex at all
    gh = make_conflict_graph(3, [(1, 3)], sublinks=[{1}, {3}, {1, 4}], link_count=4)
    d = np.array([0.0, 0.5, 0.25, 0.75])
    sched = assert_matches_oracle(net, gh, coding_first_ordering(gh), d)
    assert [(sorted(vs), lam) for vs, lam in sched.entries] == [([2], 0.25)]
    rates = np.zeros(4)
    for vs, lam in sched.entries:
        for v in vs:
            rates[[a - 1 for a in sublink_sets(gh)[v - 1]]] += lam
    assert rates.tolist() == [0.0, 0.0, 0.25, 0.0]


def stratified_coded_network(seed: int, columns: int, rows: int):
    """Coded nodes at two per unit area, one drawn in each cell of a square lattice."""
    rng = np.random.default_rng(seed)
    cells = np.transpose(np.meshgrid(np.arange(columns), np.arange(rows))).reshape(-1, 2)
    xy = (cells + rng.random(cells.shape)) / math.sqrt(2)
    nodes = [Node(k + 1, float(x), float(y), 1.0, 1.5) for k, (x, y) in enumerate(xy)]
    return build_network(nodes, coding_nodes=range(1, len(nodes) + 1), max_coding_degree=2)


def test_graph_and_greedy_peak_below_twice_the_squared_vertex_count():
    # the H x H matrix, its permuted blocks and the links' float distances
    # took 3.5 H^2 bytes together; gathering from the link relation takes 0.64 H^2
    net = stratified_coded_network(289, 17, 17)
    h = net.hyperarc_count
    assert 3500 <= h <= 5000, h
    demand = np.random.default_rng(289).uniform(0.0, 0.05, net.link_count)
    tracemalloc.start()
    try:
        gh = build_conflict_graph(net, "hyperarc")
        schedule = cfs_schedule(net, gh, coding_first_ordering(gh), demand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * h * h, peak / h**2
    assert "matrix" not in vars(gh)
    assert np.allclose(schedule.capacity(net), demand, rtol=0, atol=1e-12)
