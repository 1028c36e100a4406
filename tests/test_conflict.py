"""Conflict graphs, schedulable-set enumeration, and neighborhood bounds."""

import itertools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from multiflow import (
    ConflictGraph,
    EnumerationCapError,
    Node,
    SchedulableSetCatalog,
    ValidationError,
    build_conflict_graph,
    build_network,
    closed_neighborhoods,
    coding_first_ordering,
    enumerate_schedulable_sets,
    solve_mmf,
)
import multiflow.conflict as conflict_module
from multiflow.conflict import _row_lists, compat_masks, inductive_schedulable_number

from helpers import (
    brute_force_max_independent_sets,
    closed_sets,
    coded_grid,
    distance,
    eager_conflict_matrix,
    hyperarcs_conflict,
    is_independent,
    ix_compat_masks,
    links_conflict,
    loop_inductive_schedulable_number,
    loop_schedulable_sets,
    make_conflict_graph,
    neighbor_sets,
    node_map,
    pairwise_adjacency,
    permuted_compat_masks,
    random_graph,
    random_network,
    relation_matrix,
    relay_coded,
    relay_commodities,
    relay_plain,
    sublink_sets,
)


def line_network(spacing: float, r: float = 1.0, rho: float = 1.0):
    nodes = [Node(i + 1, i * spacing, 0.0, r, rho) for i in range(4)]
    return build_network(nodes)


def test_links_conflict_is_symmetric_and_inclusive():
    # 1-2 and 3-4 on a line: node 3 sits exactly on rho from node 2
    net = line_network(1.0, r=1.0, rho=1.0)
    nodes = node_map(net)
    a = net.find_link(1, 2)
    b = net.find_link(3, 4)
    assert links_conflict(a, b, nodes)
    assert links_conflict(b, a, nodes)


def test_far_links_do_not_conflict():
    nodes = [Node(i + 1, x, 0.0, 1.0, 1.0) for i, x in enumerate((0.0, 1.0, 5.0, 6.0))]
    net = build_network(nodes)
    a = net.find_link(1, 2)
    b = net.find_link(3, 4)
    assert not links_conflict(a, b, node_map(net))
    g = build_conflict_graph(net, "link")
    assert is_independent(g, (a.index, b.index))


def test_interference_radius_controls_conflicts():
    # with rho = r the two outer links are compatible, a larger rho kills that
    near = line_network(1.0, r=1.0, rho=1.0)
    g = build_conflict_graph(near, "link")
    a = near.find_link(1, 2).index
    b = near.find_link(4, 3).index
    assert is_independent(g, (a, b))
    loud = line_network(1.0, r=1.0, rho=2.0)
    g2 = build_conflict_graph(loud, "link")
    assert not is_independent(g2, (loud.find_link(1, 2).index, loud.find_link(4, 3).index))


def test_same_tail_hyperarcs_always_conflict():
    net = relay_coded()
    nodes = node_map(net)
    arcs = {h.index: h for h in net.hyperarcs}
    for u in (3, 4, 5):
        for v in (3, 4, 5):
            if u != v:
                assert hyperarcs_conflict(arcs[u], arcs[v], nodes)


def test_hyperarc_conflict_is_existential():
    # a hyperarc conflicts as soon as one of its sub-links does
    nodes = [
        Node(1, 0.0, 0.0, 2.0, 2.0),
        Node(2, -2.0, 0.0, 1.0, 1.0),
        Node(3, 2.0, 0.0, 1.0, 1.0),
        Node(4, 3.1, 0.0, 1.2, 1.2),
        Node(5, 4.1, 0.0, 1.0, 1.0),
    ]
    net = build_network(nodes, hyperarcs=[(1, (2, 3))])
    nm = node_map(net)
    coded = net.hyperarcs[-1]
    assert coded.weight == 2
    other = next(h for h in net.hyperarcs if h.tail == 4 and h.heads == frozenset({5}))
    solo = next(h for h in net.hyperarcs if h.tail == 1 and h.heads == frozenset({2}))
    # the (1, {2}) part alone is fine, but node 4 interferes at node 3
    assert not hyperarcs_conflict(solo, other, nm)
    assert hyperarcs_conflict(coded, other, nm)
    assert hyperarcs_conflict(other, coded, nm)


def test_canonical_conflict_graphs_are_complete():
    g = build_conflict_graph(relay_plain(), "link")
    assert g.vertex_count == 4 and g.edge_count == 6
    gh = build_conflict_graph(relay_coded(), "hyperarc")
    assert gh.vertex_count == 5 and gh.edge_count == 10
    assert [len(s) for s in sublink_sets(gh)] == [1, 1, 1, 1, 2]
    assert sublink_sets(gh)[4] == frozenset({3, 4})
    assert gh.sublink_index.tolist() == [[0, 4], [1, 4], [2, 4], [3, 4], [2, 3]]
    assert not is_independent(gh, [1, 5])
    assert is_independent(gh, [5])


def coded_geometric_network(seed: int):
    """40 to 60 nodes at two per unit area, every node coding at degree 2."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(40, 61))
    side = float(np.sqrt(count / 2.0))
    nodes = [
        Node(i + 1, float(rng.uniform(0, side)), float(rng.uniform(0, side)), 1.0, 1.5)
        for i in range(count)
    ]
    return build_network(nodes, coding_nodes=range(1, count + 1), max_coding_degree=2)


def assert_matches_pairwise(net):
    for level in ("link", "hyperarc"):
        g = build_conflict_graph(net, level)
        expected = pairwise_adjacency(net, level)
        assert neighbor_sets(g) == expected
        assert g.edge_count == sum(len(a) for a in expected) // 2
        assert g.max_conflict_degree == max(map(len, expected), default=0)


def test_graphs_match_pairwise_oracle_on_random_networks():
    rng = np.random.default_rng(101)
    for _ in range(120):
        assert_matches_pairwise(random_network(rng))
    assert_matches_pairwise(relay_plain())
    assert_matches_pairwise(relay_coded())
    assert_matches_pairwise(build_network([]))
    assert_matches_pairwise(build_network([Node(1, 0.0, 0.0, 1.0, 1.0), Node(2, 5.0, 0.0, 1.0, 1.0)]))


def test_graphs_match_pairwise_oracle_on_coded_geometric_networks():
    for seed in (1, 2, 3):
        net = coded_geometric_network(seed)
        assert 40 <= len(net.nodes) <= 60 and net.max_weight == 2
        assert_matches_pairwise(net)


def tie_network(nudge: bool):
    # node 3 sits exactly rho = 1.5 from node 2 (a 3-4-5 offset), or one
    # ulp of y farther; node 3 also broadcasts to {4, 5}
    y3 = np.nextafter(1.2, 2.0) if nudge else 1.2
    nodes = [
        Node(1, -1.0, 0.0, 1.2, 1.5),
        Node(2, 0.0, 0.0, 1.2, 1.5),
        Node(3, 0.9, y3, 1.2, 1.5),
        Node(4, 0.9, 2.2, 1.2, 1.5),
        Node(5, 1.9, 1.2, 1.2, 1.5),
    ]
    return build_network(nodes, hyperarcs=[(3, (4, 5))])


@pytest.mark.parametrize("size", [(3, 3), (4, 3)])
def test_graphs_match_pairwise_oracle_at_coding_degree_three(size):
    net = coded_grid(*size, max_coding_degree=3)
    assert net.max_weight == 3
    assert_matches_pairwise(net)


def test_interference_tie_is_an_edge_in_both_matrices():
    for nudge in (False, True):
        net = tie_network(nudge)
        g = build_conflict_graph(net, "link")
        gh = build_conflict_graph(net, "hyperarc")
        a = net.find_link(1, 2).index
        b = net.find_link(3, 4).index
        coded = net.hyperarcs[-1]
        assert coded.heads == frozenset({4, 5})
        tie = distance(net.node(3), net.node(2))
        assert tie > 1.5 if nudge else tie == 1.5
        assert is_independent(g, (a, b)) is nudge
        assert is_independent(gh, (a, b)) is nudge
        assert is_independent(gh, (coded.index, a)) is nudge
        assert eager_conflict_matrix(net, "hyperarc")[a - 1, coded.index - 1] == (not nudge)
        assert_matches_pairwise(net)


def test_unknown_level_rejected():
    with pytest.raises(ValidationError):
        build_conflict_graph(relay_plain(), "node")


def two_related_links() -> np.ndarray:
    relation = np.zeros((3, 3), dtype=bool)
    relation[:2, :2] = True
    return relation


@pytest.mark.parametrize(
    "level, index, relation",
    [
        ("bogus", [[0], [1]], two_related_links()),
        # -1 once read as the padding row by the packer and as the last link by the catalog
        ("hyperarc", [[0], [-1]], two_related_links()),
        ("hyperarc", [[0], [5]], two_related_links()),  # once a raw IndexError
        ("hyperarc", [[0], [3]], two_related_links()),
        ("hyperarc", [0, 1], two_related_links()),
        ("hyperarc", [[0.0], [1.0]], two_related_links()),
        ("hyperarc", [[0], [1]], two_related_links().astype(np.uint8)),
        ("hyperarc", [[0], [1]], two_related_links()[:, :2]),
        ("hyperarc", [[0], [1]], two_related_links()[0]),
        ("hyperarc", np.zeros((0, 1), dtype=np.intp), np.zeros((0, 0), dtype=bool)),
        ("hyperarc", [[0], [1]], np.ones((3, 3), dtype=bool)),
        ("hyperarc", [[0], [1]], np.triu(np.ones((3, 3), dtype=bool))),  # a true padding column
        ("hyperarc", [[0], [1]], np.tril(np.ones((3, 3), dtype=bool))),  # a true padding row
    ],
)
def test_a_malformed_graph_is_refused(level, index, relation):
    with pytest.raises(ValidationError):
        ConflictGraph(level, sublink_index=np.array(index), relation=relation)


def test_a_well_formed_graph_is_accepted_at_either_level():
    for level in ("link", "hyperarc"):
        for index in ([[0], [1]], [[0, 2], [1, 2]], np.array([[1], [0]], dtype=np.uint8)):
            g = ConflictGraph(level, sublink_index=np.array(index), relation=two_related_links())
            assert g.link_count == 2 and g.edge_count == 1


def test_canonical_catalog():
    gh = build_conflict_graph(relay_coded(), "hyperarc")
    catalog = enumerate_schedulable_sets(gh)
    assert [sorted(s) for s in catalog.hyperarc_sets] == [[1], [2], [3], [4], [5]]
    assert [sorted(s) for s in catalog.sublink_sets] == [[1], [2], [3], [4], [3, 4]]
    expected = np.zeros((5, 4))
    for k, links in enumerate(([1], [2], [3], [4], [3, 4])):
        for a in links:
            expected[k, a - 1] = 1.0
    assert np.array_equal(catalog.incidence, expected)


def test_catalog_matrices_are_read_only():
    catalog = enumerate_schedulable_sets(build_conflict_graph(relay_coded(), "hyperarc"))
    for matrix in (catalog.member, catalog.incidence):
        with pytest.raises(ValueError):
            matrix[0, 0] = False
    assert [sorted(s) for s in catalog.hyperarc_sets] == [[1], [2], [3], [4], [5]]


def test_catalog_splits_its_sets_only_when_read():
    catalog = enumerate_schedulable_sets(build_conflict_graph(relay_plain(), "link"))
    assert "hyperarc_sets" not in vars(catalog) and "sublink_sets" not in vars(catalog)
    assert len(catalog) == 4
    assert "hyperarc_sets" not in vars(catalog)
    assert catalog.sublink_sets is catalog.hyperarc_sets is vars(catalog)["hyperarc_sets"]


def traced_enumeration(cg):
    """The catalog and the tracemalloc peak of enumerating it."""
    tracemalloc.start()
    try:
        catalog = enumerate_schedulable_sets(cg, cap=cg.vertex_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return catalog, peak


def test_5x5_catalog_enumeration_stays_under_5_mib():
    # 31,770 sets over 80 links: one shared boolean matrix of 2.4 MiB, then at
    # most a block more; a frozenset per set took 44.6 MiB, two matrices 10.7
    gh = build_conflict_graph(build_network(coded_grid(5, 5).nodes), "hyperarc")
    catalog, peak = traced_enumeration(gh)
    assert len(catalog) == 31770
    assert peak <= 5 * 2**20, peak / 2**20


def test_sparse_catalog_enumeration_peaks_within_twice_its_catalog():
    # many sets of many vertices: index arrays over the whole catalog peaked
    # at 8 times the matrices held
    rng = np.random.default_rng(3)
    catalog, peak = traced_enumeration(make_conflict_graph(40, random_edges(rng, 40, 0.1)))
    assert len(catalog) == 10062
    # the two matrices, counted once when they are one
    held = sum({id(m): m.nbytes for m in (catalog.member, catalog.incidence)}.values())
    assert peak <= 2 * held, peak / held
    assert catalog.incidence is catalog.member


def test_enumeration_cap():
    gh = build_conflict_graph(relay_coded(), "hyperarc")
    with pytest.raises(EnumerationCapError):
        enumerate_schedulable_sets(gh, cap=4)


def test_negative_cap_is_rejected():
    gh = build_conflict_graph(relay_coded(), "hyperarc")
    message = r"^the enumeration cap must be nonnegative, got -1$"
    for graph in (gh, make_conflict_graph(0, [])):
        with pytest.raises(ValidationError, match=message):
            enumerate_schedulable_sets(graph, cap=-1)
    with pytest.raises(ValidationError, match="got -3$"):
        solve_mmf(relay_coded(), relay_commodities(), mode="coding", cap=-3)
    # a zero cap still admits the empty graph and refuses any other
    assert len(enumerate_schedulable_sets(make_conflict_graph(0, []), cap=0)) == 0
    with pytest.raises(EnumerationCapError):
        enumerate_schedulable_sets(gh, cap=0)


def test_catalog_matches_brute_force_on_synthetic_graphs():
    rng = np.random.default_rng(3)
    for _ in range(40):
        cg = random_graph(rng, min_n=1, max_n=9)
        catalog = enumerate_schedulable_sets(cg)
        assert set(catalog.hyperarc_sets) == brute_force_max_independent_sets(cg)
        assert len(set(catalog.hyperarc_sets)) == len(catalog.hyperarc_sets)


def test_catalog_matches_brute_force_on_geometric_networks():
    rng = np.random.default_rng(11)
    done = 0
    while done < 15:
        net = random_network(rng, max_nodes=6)
        gh = build_conflict_graph(net, "hyperarc")
        if gh.vertex_count > 12:
            continue
        catalog = enumerate_schedulable_sets(gh)
        assert set(catalog.hyperarc_sets) == brute_force_max_independent_sets(gh)
        done += 1


def test_catalog_order_is_deterministic():
    cg = make_conflict_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    catalog = enumerate_schedulable_sets(cg)
    assert [tuple(sorted(s)) for s in catalog.hyperarc_sets] == [
        (1, 3, 5),
        (1, 4),
        (2, 4),
        (2, 5),
    ]


def random_edges(rng, n: int, p: float) -> list[tuple[int, int]]:
    return [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]


def assert_catalog_matches_loop_oracle(cg, nb) -> None:
    got = enumerate_schedulable_sets(cg, cap=cg.vertex_count)
    want = loop_schedulable_sets(cg)
    # tuple equality pins the order as well as every entry
    assert got.hyperarc_sets == want.hyperarc_sets
    assert got.sublink_sets == want.sublink_sets
    assert got.member.dtype == got.incidence.dtype == bool
    assert np.array_equal(got.member, want.member)
    assert np.array_equal(got.incidence, want.incidence)
    assert got.link_count == want.link_count
    if len(want):
        assert inductive_schedulable_number(got, nb) == loop_inductive_schedulable_number(want, nb)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 100])
def test_catalog_matches_loop_oracle_on_random_graphs(n):
    # 8, 64 and 65 vertices sit on byte and machine-word boundaries of the masks
    rng = np.random.default_rng(100 + n)
    for _ in range(1 if n > 9 else 6):
        p = 0.5 if n > 9 else float(rng.uniform(0.1, 0.9))
        cg = make_conflict_graph(n, random_edges(rng, n, p))
        assert_catalog_matches_loop_oracle(cg, closed_neighborhoods(cg))
        # 1 to 3 sub-links per vertex over a sparser link relation, some links in no vertex
        links = n // 2 + 3
        sublinks = [
            (rng.choice(links, size=int(rng.integers(1, 4)), replace=False) + 1).tolist()
            for _ in range(n)
        ]
        coded = make_conflict_graph(
            n, random_edges(rng, links, p / 2), sublinks=sublinks, link_count=links
        )
        assert_catalog_matches_loop_oracle(coded, closed_neighborhoods(coded))


@pytest.mark.parametrize("n", [1, 9, 70])
def test_catalog_matches_loop_oracle_on_edgeless_and_complete_graphs(n):
    edgeless = make_conflict_graph(n, [])
    complete = make_conflict_graph(n, itertools.combinations(range(1, n + 1), 2))
    assert_catalog_matches_loop_oracle(edgeless, closed_neighborhoods(edgeless))
    assert_catalog_matches_loop_oracle(complete, closed_neighborhoods(complete))
    assert enumerate_schedulable_sets(edgeless, cap=n).hyperarc_sets == (
        frozenset(range(1, n + 1)),
    )
    assert len(enumerate_schedulable_sets(complete, cap=n)) == n


def test_catalog_search_keeps_its_own_stack():
    # one maximal set far deeper than the recursion limit
    edgeless = make_conflict_graph(1500, [])
    assert enumerate_schedulable_sets(edgeless, cap=1500).hyperarc_sets == (
        frozenset(range(1, 1501)),
    )


def test_compat_masks_match_an_ix_block_on_random_permutations():
    rng = np.random.default_rng(131)
    for n in (0, 1, 2, 9, 64, 65, 130):
        cg = make_conflict_graph(n, random_edges(rng, n, float(rng.uniform(0.05, 0.6))))
        for order in (rng.permutation(n), rng.permutation(n), np.arange(n)):
            assert compat_masks(cg, order) == ix_compat_masks(cg, order)
    gh = build_conflict_graph(coded_grid(3, 3), "hyperarc")
    order = rng.permutation(gh.vertex_count)
    assert compat_masks(gh, order) == ix_compat_masks(gh, order)


def test_catalog_row_lists_are_the_sorted_sub_link_sets():
    rng = np.random.default_rng(137)
    nets = [random_network(rng) for _ in range(30)] + [coded_grid(3, 3), relay_coded()]
    for net in nets:
        for level in ("link", "hyperarc"):
            catalog = enumerate_schedulable_sets(build_conflict_graph(net, level), cap=100)
            assert _row_lists(catalog.incidence) == [sorted(ls) for ls in catalog.sublink_sets]


@pytest.mark.parametrize("block", [1, 7, 8, 64])
def test_compat_masks_are_the_same_packed_in_any_block_size(monkeypatch, block):
    rng = np.random.default_rng(block)
    cg = make_conflict_graph(129, random_edges(rng, 129, float(rng.uniform(0.05, 0.6))))
    order = rng.permutation(129)
    whole = compat_masks(cg, order)
    small = make_conflict_graph(20, random_edges(rng, 20, 0.3))
    catalog = enumerate_schedulable_sets(small, cap=20).hyperarc_sets
    # two sub-link columns: the later one is ORed in a block at a time
    gh = build_conflict_graph(coded_grid(3, 3), "hyperarc")
    coded_order = rng.permutation(gh.vertex_count)
    coded = (compat_masks(gh, coded_order), gh.relation)
    monkeypatch.setattr(conflict_module, "_BLOCK_ROWS", block)
    assert compat_masks(cg, order) == whole
    assert enumerate_schedulable_sets(small, cap=20).hyperarc_sets == catalog
    gh = build_conflict_graph(coded_grid(3, 3), "hyperarc")
    assert compat_masks(gh, coded_order) == coded[0]
    assert np.array_equal(gh.relation, coded[1])
    # bit j of compat[k]: positions j and k hold distinct, non-conflicting vertices
    matrix = relation_matrix(cg)
    for k in range(129):
        row = [(whole[k] >> j) & 1 for j in range(129)]
        assert row == [int(j != k and not matrix[order[k], order[j]]) for j in range(129)]


@pytest.mark.parametrize(
    "net",
    [relay_plain(), relay_coded(), coded_grid(3, 3), coded_grid(4, 3)],
    ids=["relay_plain", "relay_coded", "coded_3x3", "coded_4x3"],
)
def test_catalog_matches_loop_oracle_on_networks(net):
    nb = closed_neighborhoods(build_conflict_graph(net, "link"))
    for level in ("link", "hyperarc"):
        assert_catalog_matches_loop_oracle(build_conflict_graph(net, level), nb)


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
def test_row_lists_and_isn_match_their_oracles_across_block_edges(rows):
    rng = np.random.default_rng(rows)
    links = 30
    incidence = rng.random((rows, links)) < 0.2
    incidence[-1] = True  # the largest overlap sits in the last row of the last block
    incidence.flags.writeable = False
    catalog = SchedulableSetCatalog(member=incidence, incidence=incidence)
    assert catalog.link_count == links
    assert _row_lists(incidence) == [(np.flatnonzero(r) + 1).tolist() for r in incidence]
    closed = closed_neighborhoods(make_conflict_graph(links, random_edges(rng, links, 0.3)))
    want = loop_inductive_schedulable_number(catalog, closed)
    assert want == int(np.count_nonzero(closed, axis=1).max())
    assert inductive_schedulable_number(catalog, closed) == want


def test_link_level_catalog_shares_its_sets():
    catalog = enumerate_schedulable_sets(build_conflict_graph(coded_grid(3, 2), "link"))
    assert catalog.incidence is catalog.member  # one matrix, not two equal ones
    assert all(ls is s for ls, s in zip(catalog.sublink_sets, catalog.hyperarc_sets))


def test_plain_hyperarc_catalog_shares_its_sets():
    # without coded head sets the hyperarc table is the link table, as on plain grids
    net = build_network(coded_grid(3, 2).nodes)
    gh = build_conflict_graph(net, "hyperarc")
    assert np.array_equal(gh.sublink_index, build_conflict_graph(net, "link").sublink_index)
    catalog = enumerate_schedulable_sets(gh)
    assert catalog.incidence is catalog.member
    assert all(ls is s for ls, s in zip(catalog.sublink_sets, catalog.hyperarc_sets))
    coded = enumerate_schedulable_sets(build_conflict_graph(relay_coded(), "hyperarc"))
    assert coded.incidence is not coded.member
    assert coded.sublink_sets != coded.hyperarc_sets


def test_link_graph_reads_the_leading_rows_of_the_network_table():
    rng = np.random.default_rng(151)
    coded = 0
    for _ in range(40):
        net = random_network(rng)
        n = net.link_count
        coded += net.hyperarc_count > n
        g = build_conflict_graph(net, "link")
        gh = build_conflict_graph(net, "hyperarc")
        # each link is the weight-1 hyperarc that delivers just itself
        assert np.array_equal(relation_matrix(g), relation_matrix(gh)[:n, :n])
        assert np.array_equal(g.sublink_index, net.sublink_index[:n])
        assert g.vertex_count == g.link_count == n
        assert not g.sublink_index.flags.writeable
    assert coded >= 10


def test_max_conflict_degree_is_the_largest_closed_row_minus_one():
    rng = np.random.default_rng(152)
    for _ in range(30):
        g = random_graph(rng, min_n=1, max_n=12)
        closed = closed_neighborhoods(g)
        assert g.max_conflict_degree == int(np.count_nonzero(closed, axis=1).max()) - 1
        assert g.max_conflict_degree == max(len(s) for s in neighbor_sets(g))
    assert make_conflict_graph(5, []).max_conflict_degree == 0
    assert make_conflict_graph(0, []).max_conflict_degree == 0
    assert make_conflict_graph(4, [(1, 2), (1, 3), (1, 4)]).max_conflict_degree == 3


def test_catalog_shares_its_sets_when_every_set_is_its_own_links():
    # each vertex delivers its own link through a width-2 padded table
    cg = make_conflict_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    index = np.full((5, 2), 5, dtype=np.intp)
    index[:, 0] = np.arange(5)
    padded = replace(cg, sublink_index=index)
    catalog = enumerate_schedulable_sets(padded)
    assert catalog.incidence is catalog.member
    assert all(ls is s for ls, s in zip(catalog.sublink_sets, catalog.hyperarc_sets))
    assert_catalog_matches_loop_oracle(padded, closed_neighborhoods(cg))


def test_catalog_with_permuted_sublinks_keeps_its_own_sets():
    # as many vertices as links, but vertex v delivers link v % 5 + 1: the vertex path
    # 1-2-3-4-5 is the link path 2-3-4-5-1
    shifted = [{v % 5 + 1} for v in range(1, 6)]
    cg = make_conflict_graph(5, [(2, 3), (3, 4), (4, 5), (5, 1)], sublinks=shifted)
    assert neighbor_sets(cg) == ({2}, {1, 3}, {2, 4}, {3, 5}, {4})
    catalog = enumerate_schedulable_sets(cg)
    assert catalog.incidence is not catalog.member
    assert catalog.sublink_sets != catalog.hyperarc_sets
    assert_catalog_matches_loop_oracle(cg, closed_neighborhoods(cg))


def test_the_graph_is_its_level_sub_links_and_link_relation():
    assert [f.name for f in fields(ConflictGraph)] == ["level", "sublink_index", "relation"]
    assert [f.name for f in fields(SchedulableSetCatalog)] == ["member", "incidence"]
    for level in ("link", "hyperarc"):
        g = build_conflict_graph(relay_coded(), level)
        assert g.link_count == 4 == enumerate_schedulable_sets(g).link_count


@pytest.mark.parametrize("n", [1, 2, 8, 9, 40])
def test_a_vertex_that_delivers_no_link_is_in_every_maximal_set(n):
    # it relates to no link, not even through a diagonal of its own, so it conflicts
    # with nothing; were it compatible with itself the search would pivot on it and
    # list no set at all
    rng = np.random.default_rng(400 + n)
    links = n // 2 + 2
    sublinks = [
        (rng.choice(links, size=int(rng.integers(1, 4)), replace=False) + 1).tolist()
        for _ in range(n)
    ]
    idle = set((rng.choice(n, size=max(1, n // 4), replace=False) + 1).tolist())
    for v in idle:
        sublinks[v - 1] = []
    cg = make_conflict_graph(n, random_edges(rng, links, 0.2), sublinks=sublinks, link_count=links)
    compat = compat_masks(cg, np.arange(n))
    for v in idle:
        assert compat[v - 1] == (1 << n) - 1 ^ 1 << (v - 1)
    assert_catalog_matches_loop_oracle(cg, closed_neighborhoods(cg))
    catalog = enumerate_schedulable_sets(cg, cap=n)
    assert len(catalog) and all(idle <= s for s in catalog.hyperarc_sets)


def test_compat_masks_never_set_a_positions_own_bit():
    rng = np.random.default_rng(401)
    graphs = []
    for _ in range(20):
        net = random_network(rng)
        graphs += [build_conflict_graph(net, level) for level in ("link", "hyperarc")]
    for n in (1, 9, 70):
        # some vertices with no link, which the relation's diagonal cannot reach
        sublinks = [[] if rng.random() < 0.3 else [int(rng.integers(1, 6))] for _ in range(n)]
        edges = random_edges(rng, 5, 0.3)
        graphs.append(make_conflict_graph(n, edges, sublinks=sublinks, link_count=5))
    for cg in graphs:
        n = cg.vertex_count
        for order in (np.arange(n), rng.permutation(n)):
            assert not any(m >> k & 1 for k, m in enumerate(compat_masks(cg, order)))


def test_closed_neighborhoods_canonical():
    g = build_conflict_graph(relay_plain(), "link")
    nb = closed_neighborhoods(g)
    assert g.max_conflict_degree == 3
    assert all(s == frozenset({1, 2, 3, 4}) for s in closed_sets(nb))
    assert nb.all() and not nb.flags.writeable
    # a view of the link relation, not a copy of it
    assert np.shares_memory(nb, g.relation) and nb.shape == (4, 4)
    # the coded relay's hyperarc graph holds the same relation, so the same view of it
    gh = build_conflict_graph(relay_coded(), "hyperarc")
    closed = closed_neighborhoods(gh)
    assert np.array_equal(closed, nb) and not closed.flags.writeable
    assert np.shares_memory(closed, gh.relation)


def test_inductive_schedulable_number_canonical():
    net = relay_coded()
    catalog = enumerate_schedulable_sets(build_conflict_graph(net, "hyperarc"))
    nb = closed_neighborhoods(build_conflict_graph(net, "link"))
    assert inductive_schedulable_number(catalog, nb) == 2
    plain_catalog = enumerate_schedulable_sets(build_conflict_graph(net, "link"))
    assert inductive_schedulable_number(plain_catalog, nb) == 1


def test_inductive_schedulable_number_needs_data():
    net = relay_coded()
    catalog = enumerate_schedulable_sets(build_conflict_graph(net, "hyperarc"))
    nb = closed_neighborhoods(build_conflict_graph(net, "link"))
    empty_catalog = enumerate_schedulable_sets(make_conflict_graph(0, []))
    with pytest.raises(ValidationError):
        inductive_schedulable_number(empty_catalog, nb)


def test_independent_sets_cover_every_vertex():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cg = random_graph(rng, min_n=1, max_n=10)
        catalog = enumerate_schedulable_sets(cg)
        covered = set().union(*catalog.hyperarc_sets)
        assert covered == set(range(1, cg.vertex_count + 1))
        for s in catalog.hyperarc_sets:
            assert is_independent(cg, s)


def test_compat_masks_match_the_permuted_matrix_oracle():
    rng = np.random.default_rng(173)
    graphs = []
    for _ in range(40):
        net = random_network(rng)
        graphs += [build_conflict_graph(net, level) for level in ("link", "hyperarc")]
    grids = [coded_grid(w, h) for w, h in ((3, 3), (4, 3), (4, 4))]
    graphs += [build_conflict_graph(grid, "hyperarc") for grid in grids]
    # odd sub-links: shared, skipped, empty, and a link in no edge
    odd = [{1}, {1, 3}, {2, 3, 5}, {8}, set(), {2}, {1, 2, 3, 5}]
    graphs.append(make_conflict_graph(7, [(1, 2), (2, 5), (4, 6), (3, 7)], sublinks=odd))
    graphs.append(make_conflict_graph(7, [], sublinks=odd, link_count=9))
    for cg in graphs:
        n = cg.vertex_count
        for order in (np.arange(n), rng.permutation(n), np.array(coding_first_ordering(cg)) - 1):
            assert compat_masks(cg, order) == permuted_compat_masks(cg, order)


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
def test_compat_masks_match_the_oracle_across_block_edges(n):
    rng = np.random.default_rng(n)
    upper = np.transpose(np.triu_indices(n, 1)) + 1
    cg = make_conflict_graph(n, upper[rng.random(len(upper)) < 0.01].tolist())
    for order in (np.arange(n), rng.permutation(n)):
        assert compat_masks(cg, order) == permuted_compat_masks(cg, order)


def assert_reads_match(g, oracle, rng) -> None:
    """Counts and packed masks of ``g`` against an independently built vertex conflict matrix."""
    h = g.vertex_count
    assert g.edge_count == np.count_nonzero(oracle) // 2
    assert g.max_conflict_degree == np.count_nonzero(oracle, axis=1).max(initial=0)
    compat = compat_masks(g, np.arange(h))
    for _ in range(20 if h else 0):
        u, v = rng.integers(1, h + 1, size=2).tolist()
        assert (compat[u - 1] >> (v - 1) & 1) == (u != v and not oracle[u - 1, v - 1])
        idx = rng.permutation(h)[: rng.integers(1, min(h, 6) + 1)]
        # a repeated id is the same vertex, not a conflict
        subset = (idx + 1).tolist() + [int(idx[0]) + 1]
        assert is_independent(g, subset) is not oracle[np.ix_(idx, idx)].any()
    assert is_independent(g, [])


def test_the_relation_and_every_read_of_it_match_the_eager_build():
    rng = np.random.default_rng(181)
    for _ in range(120):
        net = random_network(rng)
        n = net.link_count
        for level in ("link", "hyperarc"):
            g = build_conflict_graph(net, level)
            # links relate symmetrically, each to itself; the padding row and column relate to none
            rel = g.relation
            assert rel.shape == (n + 1, n + 1) and not rel.flags.writeable
            assert np.array_equal(rel, rel.T) and rel.diagonal()[:n].all()
            assert not rel[n].any()
            eager = eager_conflict_matrix(net, level)
            assert np.array_equal(relation_matrix(g), eager)
            assert_reads_match(g, eager, rng)
            closed = closed_neighborhoods(g)
            link_eager = eager_conflict_matrix(net, "link")
            assert np.array_equal(closed, link_eager | np.eye(n, dtype=bool))
            assert not closed.flags.writeable and np.shares_memory(closed, rel)


def test_hand_made_graph_reads_match_their_edges_and_a_plain_gather():
    rng = np.random.default_rng(191)
    for n in (0, 1, 1025):
        upper = np.transpose(np.triu_indices(n, 1)) + 1
        edges = upper[rng.random(len(upper)) < 0.01]
        want = np.zeros((n, n), dtype=bool)
        want[edges[:, 0] - 1, edges[:, 1] - 1] = want[edges[:, 1] - 1, edges[:, 0] - 1] = True
        g = make_conflict_graph(n, edges.tolist())
        assert np.array_equal(relation_matrix(g), want)
        assert_reads_match(g, want, rng)
    # up to three links a vertex over a nine-link relation, shared, repeated or padding
    rel = rng.random((10, 10)) < 0.15
    rel |= rel.T | np.eye(10, dtype=bool)
    rel[9] = rel[:, 9] = False
    rel.flags.writeable = False
    index = np.sort(rng.integers(0, 10, size=(40, 3)), axis=1)
    g = ConflictGraph("hyperarc", sublink_index=index, relation=rel)
    assert g.link_count == 9
    assert_reads_match(g, relation_matrix(g), rng)


def test_a_catalog_past_the_set_limit_raises_before_any_set_is_unpacked(monkeypatch):
    rng = np.random.default_rng(3)
    graph = make_conflict_graph(40, random_edges(rng, 40, 0.1))  # 10,062 maximal sets
    monkeypatch.setattr(conflict_module, "_MAX_SETS", 10_000)
    tracemalloc.start()
    try:
        message = r"^10001 schedulable sets pass the limit of 10000$"
        with pytest.raises(EnumerationCapError, match=message):
            enumerate_schedulable_sets(graph, cap=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 59 KiB: the packed sets found so far; the member matrix alone would be 393 KiB
    assert peak <= 2**18, peak
    monkeypatch.setattr(conflict_module, "_MAX_SETS", 10_062)
    assert len(enumerate_schedulable_sets(graph, cap=40)) == 10_062
