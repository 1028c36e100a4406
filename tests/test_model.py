"""Nodes, links, hyperarcs, and network construction."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from multiflow import (
    FractionalSchedule,
    Node,
    ValidationError,
    build_network,
)
from multiflow.cli import main
from multiflow.instance import parse_instance
from multiflow.conflict import build_conflict_graph
from multiflow.model import (
    DEFAULT_MAX_CODING_DEGREE,
    Hyperarc,
    Link,
    Network,
)

from helpers import (
    coded_grid,
    distance,
    generate_hyperarcs,
    loop_distances,
    loop_links,
    padded_sublink_index,
    random_network,
    relay_coded,
    relay_data,
    relay_nodes,
    relay_plain,
    sublink_indices,
)


def test_node_validation():
    Node(1, 0.0, 0.0, 1.0, 1.5)
    with pytest.raises(ValidationError):
        Node(1, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        Node(1, 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValidationError):
        Node(1, 0.0, 0.0, 1.0, 0.9)
    with pytest.raises(ValidationError):
        Node(1, float("nan"), 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        Node(1, 0.0, 0.0, 1.0, float("inf"))


def test_distance():
    net = build_network([Node(1, 0.0, 0.0, 1.0, 1.0), Node(2, 3.0, 4.0, 1.0, 1.0)])
    assert net.distances.tolist() == [[0.0, 5.0], [5.0, 0.0]]
    assert build_network([Node(3, 1.5, -2.0, 1.0, 1.0)]).distances.tolist() == [[0.0]]


def test_link_validation():
    lk = Link(1, 2, 1)
    assert (lk.tail, lk.head, lk.index) == (1, 2, 1)


def test_hyperarc_validation():
    h = Hyperarc(3, frozenset({1, 2}), 5)
    assert h.weight == 2


def test_build_links_lex_order():
    links = build_network(relay_nodes()).links
    assert [(lk.index, lk.tail, lk.head) for lk in links] == [
        (1, 1, 3),
        (2, 2, 3),
        (3, 3, 1),
        (4, 3, 2),
    ]


def test_link_exists_iff_within_radius_inclusive():
    # head exactly on the communication radius still gets a link
    nodes = [Node(1, 0.0, 0.0, 1.0, 1.0), Node(2, 1.0, 0.0, 1.0, 1.0)]
    links = build_network(nodes).links
    assert {(lk.tail, lk.head) for lk in links} == {(1, 2), (2, 1)}
    # just beyond the radius there is none
    nodes = [Node(1, 0.0, 0.0, 1.0, 1.0), Node(2, 1.0 + 1e-12, 0.0, 1.0, 1.0)]
    assert build_network(nodes).links == ()


def test_links_can_be_one_way():
    nodes = [Node(1, 0.0, 0.0, 2.0, 2.0), Node(2, 1.5, 0.0, 1.0, 1.0)]
    links = build_network(nodes).links
    assert {(lk.tail, lk.head) for lk in links} == {(1, 2)}


def test_duplicate_node_ids_rejected():
    with pytest.raises(ValidationError):
        build_network([Node(1, 0.0, 0.0, 1.0, 1.0), Node(1, 0.5, 0.0, 1.0, 1.0)])


def test_network_canonical_hyperarcs():
    net = relay_coded()
    arcs = [(h.index, h.tail, tuple(sorted(h.heads))) for h in net.hyperarcs]
    assert arcs == [
        (1, 1, (3,)),
        (2, 2, (3,)),
        (3, 3, (1,)),
        (4, 3, (2,)),
        (5, 3, (1, 2)),
    ]
    assert net.max_weight == 2
    assert net.hyperarc_count == 5
    assert net.sublink_index.tolist() == [[0, 4], [1, 4], [2, 4], [3, 4], [2, 3]]
    assert not net.sublink_index.flags.writeable


def test_weight_one_hyperarcs_share_link_indices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = random_network(rng)
        for h in net.hyperarcs[: net.link_count]:
            assert h.weight == 1
            lk = net.links[h.index - 1]
            assert h.tail == lk.tail and set(h.heads) == {lk.head}
        for h in net.hyperarcs[net.link_count :]:
            assert h.weight >= 2


def test_coded_ordering_is_deterministic():
    nodes = [
        Node(1, 0.0, 0.0, 2.0, 2.0),
        Node(2, 1.0, 0.0, 2.0, 2.0),
        Node(3, 0.0, 1.0, 2.0, 2.0),
        Node(4, 1.0, 1.0, 2.0, 2.0),
    ]
    coded = [(2, (1, 3, 4)), (1, (2, 3)), (2, (3, 4))]
    net = build_network(nodes, hyperarcs=coded)
    extra = [(h.tail, tuple(sorted(h.heads))) for h in net.hyperarcs[net.link_count :]]
    assert extra == [(1, (2, 3)), (2, (3, 4)), (2, (1, 3, 4))]


def test_singleton_hyperarc_merges_into_its_link():
    net = build_network(relay_nodes(), hyperarcs=[(3, (1,))])
    assert net.hyperarc_count == net.link_count


def test_duplicate_hyperarcs_rejected():
    with pytest.raises(ValidationError):
        build_network(relay_nodes(), hyperarcs=[(3, (1, 2)), (3, (2, 1))])


def test_hyperarc_sublinks_must_exist():
    # node 2 cannot reach node 1 directly, so (2, {1, 3}) is invalid
    with pytest.raises(ValidationError):
        build_network(relay_nodes(), hyperarcs=[(2, (1, 3))])
    with pytest.raises(ValidationError):
        build_network(relay_nodes(), hyperarcs=[(9, (1, 2))])
    with pytest.raises(ValidationError):
        build_network(relay_nodes(), hyperarcs=[(3, (1, 9))])


def test_generate_hyperarcs_all_combinations():
    nodes = [
        Node(1, 0.0, 0.0, 2.0, 2.0),
        Node(2, 1.0, 0.0, 1.0, 1.0),
        Node(3, 0.0, 1.0, 1.0, 1.0),
        Node(4, 1.0, 1.0, 1.0, 1.5),
    ]
    net = build_network(nodes)
    assert [lk.head for lk in net.links if lk.tail == 1] == [2, 3, 4]
    arcs = generate_hyperarcs(net, [1], max_coding_degree=3)
    extra = [(h.tail, tuple(sorted(h.heads))) for h in arcs[net.link_count :]]
    assert extra == [
        (1, (2, 3)),
        (1, (2, 4)),
        (1, (3, 4)),
        (1, (2, 3, 4)),
    ]
    pairs_only = generate_hyperarcs(net, [1], max_coding_degree=2)
    assert len(pairs_only) == net.link_count + 3
    assert DEFAULT_MAX_CODING_DEGREE == 3
    with pytest.raises(ValidationError, match="max_coding_degree must be at least 2, got 1"):
        build_network(nodes, coding_nodes=[1], max_coding_degree=1)


def test_build_network_coding_nodes_match_generate_hyperarcs():
    rng = np.random.default_rng(23)
    for _ in range(30):
        nodes = random_network(rng, allow_coding=False).nodes
        ids = [nd.id for nd in nodes]
        coding = [i for i in ids if rng.random() < 0.6] or ids[:1]
        for degree in (2, 3):
            built = build_network(nodes, coding_nodes=coding, max_coding_degree=degree)
            assert built.hyperarcs == generate_hyperarcs(build_network(nodes), coding, degree)
    with pytest.raises(ValidationError):
        build_network(relay_nodes(), coding_nodes=[3], max_coding_degree=1)
    # the degree is capped by the out-degree, so a huge one is cheap
    assert build_network(relay_nodes(), coding_nodes=[3], max_coding_degree=10**12).hyperarc_count == 5


def star_nodes(leaves: int) -> list[Node]:
    """Node 1 amid a unit circle of leaves: it reaches every leaf, and no leaf reaches a node."""
    angles = [2 * math.pi * k / leaves for k in range(leaves)]
    ring = [Node(k + 2, math.cos(a), math.sin(a), 0.1, 0.1) for k, a in enumerate(angles)]
    return [Node(1, 0.0, 0.0, 1.0, 1.0)] + ring


def test_generated_hyperarcs_past_the_limit_raise_before_any_is_made(tmp_path, capsys):
    # 30 out-neighbours at degree 30 ask for 2^30 - 31 head sets
    nodes = star_nodes(30)
    assert build_network(nodes).link_count == 30
    tracemalloc.start()
    try:
        message = r"^1073741793 coded hyperarcs, above the limit of 100000$"
        with pytest.raises(ValidationError, match=message):
            build_network(nodes, coding_nodes=[1], max_coding_degree=30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    # the count is exact: C(30, 2) + C(30, 3) = 4,495 pass at degree 3
    assert build_network(nodes, coding_nodes=[1]).hyperarc_count == 30 + 4495
    rows = [
        {"id": nd.id, "x": nd.x, "y": nd.y, "r": nd.comm_radius, "rho": nd.interf_radius}
        for nd in nodes
    ]
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"nodes": rows, "coding_nodes": [1], "max_coding_degree": 30}))
    assert main(["inspect", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message[1:-1]}\n"


# one malformed hyperarc per fault, and the one message each fault raises
MALFORMED_HYPERARCS = [
    ([(3, [])], "hyperarc at node 3: empty head set"),
    ([(3, [3, 1])], "hyperarc at node 3: tail listed among heads"),
    ([(9, [1, 2])], "hyperarc tail 9: unknown node id"),
    ([(3, [1, 9])], "hyperarc (3, [1, 9]): unknown head id 9"),
    ([(2, [1, 3])], "hyperarc (2, [1, 3]): sub-link (2, 1) is not a link"),
    ([(3, [1, 2]), (3, [2, 1])], "duplicate hyperarc (3, [1, 2])"),
    ([(3, [1, 1, 2])], "hyperarc at node 3: repeated head id"),
]


@pytest.mark.parametrize("hyperarcs, message", MALFORMED_HYPERARCS)
def test_each_hyperarc_fault_has_one_message(hyperarcs, message):
    with pytest.raises(ValidationError) as err:
        build_network(relay_nodes(), hyperarcs=hyperarcs)
    assert str(err.value) == message
    data = relay_data(hyperarcs=[{"tail": tail, "heads": heads} for tail, heads in hyperarcs])
    with pytest.raises(ValidationError) as err:
        parse_instance(data)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "fields",
    [{"coding_nodes": [3]}, {"hyperarcs": [{"tail": 3, "heads": [1, 2]}]}, {}],
    ids=["coding-nodes", "hyperarcs", "neither"],
)
def test_max_coding_degree_below_two_is_rejected_on_every_path(fields):
    message = "max_coding_degree must be at least 2, got 1"
    arcs = [(h["tail"], h["heads"]) for h in fields.get("hyperarcs", ())] or None
    with pytest.raises(ValidationError) as err:
        coding = fields.get("coding_nodes")
        build_network(relay_nodes(), hyperarcs=arcs, coding_nodes=coding, max_coding_degree=1)
    assert str(err.value) == message
    with pytest.raises(ValidationError) as err:
        parse_instance(relay_data(max_coding_degree=1, **fields))
    assert str(err.value) == message


def test_build_network_explicit_hyperarcs_win():
    net = build_network(relay_nodes(), hyperarcs=[(3, (1, 2))], coding_nodes=[3])
    assert net.hyperarc_count == 5


def test_links_match_the_per_pair_oracle():
    rng = np.random.default_rng(31)
    node_sets = [random_network(rng, allow_coding=False).nodes for _ in range(120)]
    # a head exactly on the radius (3-4-5 triangle, r = 5), and one-way links
    node_sets.append([Node(1, 0.0, 0.0, 5.0, 5.0), Node(2, 3.0, 4.0, 5.0, 5.0)])
    node_sets.append(
        [Node(1, 0.0, 0.0, 2.0, 2.0), Node(2, 1.5, 0.0, 1.0, 1.0), Node(3, 0.0, 1.9, 1.0, 1.0)]
    )
    for nodes in node_sets:
        net = Network(reversed(nodes))
        assert [(lk.tail, lk.head) for lk in net.links] == loop_links(nodes)
        assert [lk.index for lk in net.links] == list(range(1, net.link_count + 1))
    assert [(lk.tail, lk.head) for lk in Network(node_sets[-2]).links] == [(1, 2), (2, 1)]
    assert [(lk.tail, lk.head) for lk in Network(node_sets[-1]).links] == [(1, 2), (1, 3)]


def test_network_measures_each_node_pair_once(monkeypatch):
    calls = []
    hypot = math.hypot

    def counted(dx, dy):
        calls.append((dx, dy))
        return hypot(dx, dy)

    ids = range(1, 10)
    nodes = [{"id": i, "x": i % 3, "y": i // 3, "r": 1.0, "rho": 1.5} for i in ids]
    data = {"nodes": nodes, "coding_nodes": list(ids), "max_coding_degree": 2}
    monkeypatch.setattr(math, "hypot", counted)
    net = parse_instance(data).network
    assert net.max_weight == 2
    for level in ("link", "hyperarc"):
        build_conflict_graph(net, level)
    monkeypatch.undo()
    # one call per ordered node pair, on the pair's coordinate differences
    xy = [(float(i % 3), float(i // 3)) for i in ids]
    assert sorted(calls) == sorted((x - u, y - v) for x, y in xy for u, v in xy)
    assert net.distances.shape == (9, 9) and not net.distances.flags.writeable
    assert net.distances.tobytes() == loop_distances(net.nodes).tobytes()


@pytest.mark.parametrize("hyperarcs", [None, [(3, (1, 2))]], ids=["generated", "explicit"])
def test_unknown_coding_node_is_rejected_on_every_path(hyperarcs):
    with pytest.raises(ValidationError) as err:
        build_network(relay_nodes(), hyperarcs=hyperarcs, coding_nodes=[3, 99])
    assert str(err.value) == "unknown node id 99"
    arcs = {} if hyperarcs is None else {"hyperarcs": [{"tail": 3, "heads": [1, 2]}]}
    with pytest.raises(ValidationError) as err:
        parse_instance(relay_data(coding_nodes=[99], **arcs))
    assert str(err.value) == "unknown node id 99"


def test_network_lookups():
    net = relay_plain()
    assert net.node(3).x == 1.0
    with pytest.raises(ValidationError):
        net.node(42)
    assert net.find_link(1, 3).index == 1
    assert net.find_link(1, 2) is None
    assert net.find_link(3, 2).index == 4


def test_sub_links_reject_foreign_hyperarc():
    net = relay_coded()
    foreign = Hyperarc(2, frozenset({1}), 9)
    with pytest.raises(ValidationError, match="does not belong"):
        sublink_indices(net, foreign)
    # the table has no row for it, and a schedule naming it is refused
    assert len(net.sublink_index) == 5
    with pytest.raises(ValidationError, match="hyperarc index 9 outside 1..5"):
        FractionalSchedule(((frozenset({1, 9}), 0.5),)).capacity(net)


def test_random_networks_are_consistent():
    rng = np.random.default_rng(42)
    for _ in range(30):
        net = random_network(rng)
        ids = [nd.id for nd in net.nodes]
        assert ids == sorted(ids)
        for lk in net.links:
            tail, head = net.node(lk.tail), net.node(lk.head)
            d = distance(tail, head)
            assert 0 < d <= tail.comm_radius
        assert [lk.index for lk in net.links] == list(range(1, net.link_count + 1))
        for h in net.hyperarcs:
            links = [net.links[p] for p in net.sublink_index[h.index - 1] if p < net.link_count]
            assert {lk.head for lk in links} == h.heads
            assert all(lk.tail == h.tail for lk in links)


def assert_table_matches_lookup_oracle(net) -> None:
    table = net.sublink_index
    want = padded_sublink_index([sublink_indices(net, h) for h in net.hyperarcs], net.link_count)
    assert table.dtype == np.intp and not table.flags.writeable
    assert table.shape == (net.hyperarc_count, max(1, net.max_weight))
    assert np.array_equal(table, want)


def test_sublink_index_matches_the_lookup_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        assert_table_matches_lookup_oracle(random_network(rng))
    for width, height in ((3, 3), (4, 3), (4, 4)):
        for degree in (2, 3):
            net = coded_grid(width, height, degree)
            assert net.max_weight == degree
            assert_table_matches_lookup_oracle(net)
    assert_table_matches_lookup_oracle(relay_plain())
    assert_table_matches_lookup_oracle(build_network(relay_nodes()[:1]))


def test_explicit_head_sets_in_any_order_give_one_table():
    rng = np.random.default_rng(31)
    grid = coded_grid(4, 3, 3)
    n = grid.link_count
    coded = [(h.tail, sorted(h.heads)) for h in grid.hyperarcs[n:]]
    # the generated order is the old (tail, weight, sorted heads) rule
    keys = [(t, len(hs), tuple(hs)) for t, hs in coded]
    assert keys == sorted(keys)
    singles = [(lk.tail, [lk.head]) for lk in grid.links[::5]]
    for _ in range(8):
        arcs = [(t, rng.permutation(hs).tolist()) for t, hs in coded + singles]
        arcs = [arcs[k] for k in rng.permutation(len(arcs))]
        net = build_network(grid.nodes, hyperarcs=arcs)
        assert net.hyperarcs == grid.hyperarcs
        assert np.array_equal(net.sublink_index, grid.sublink_index)
        assert_table_matches_lookup_oracle(net)


def count_constructions(monkeypatch) -> list:
    """Every Hyperarc constructed from now on, in order."""
    built = []
    init = Hyperarc.__init__

    def counted(arc, *args, **kwargs):
        init(arc, *args, **kwargs)
        built.append(arc)

    monkeypatch.setattr(Hyperarc, "__init__", counted)
    return built


def test_explicit_head_sets_build_each_hyperarc_once(monkeypatch):
    grid = coded_grid(4, 3, 3)
    coded = [(h.tail, sorted(h.heads, reverse=True)) for h in grid.hyperarcs[grid.link_count :]]
    singles = [(lk.tail, [lk.head]) for lk in grid.links[::4]]
    built = count_constructions(monkeypatch)
    net = build_network(grid.nodes, hyperarcs=coded[::-1] + singles)
    # one per link and one per coded head set; a weight-1 entry builds nothing
    assert len(built) == net.hyperarc_count
    assert net.hyperarcs == grid.hyperarcs
    assert all(h.index == k for k, h in enumerate(net.hyperarcs, 1))
    built.clear()
    relay = build_network(relay_nodes(), hyperarcs=[(3, (1, 2))])
    assert len(built) == relay.hyperarc_count == 5
    assert relay.hyperarcs[-1] == Hyperarc(3, frozenset({1, 2}), 5)


def test_loading_a_coded_grid_builds_each_hyperarc_once(monkeypatch):
    nodes = [
        {"id": nd.id, "x": nd.x, "y": nd.y, "r": nd.comm_radius, "rho": nd.interf_radius}
        for nd in coded_grid(4, 4).nodes
    ]
    built = count_constructions(monkeypatch)
    net = parse_instance(
        {"nodes": nodes, "coding_nodes": list(range(1, 17)), "max_coding_degree": 3}
    ).network
    assert net.max_weight == 3
    assert len(built) == net.hyperarc_count


def test_distances_match_the_per_pair_oracle():
    rng = np.random.default_rng(5)
    node_sets = [random_network(rng, allow_coding=False).nodes for _ in range(60)]
    # unit-spaced grids put many node pairs exactly on the radius
    node_sets += [coded_grid(w, h).nodes for w, h in ((3, 3), (4, 3), (5, 5))]
    # integer coordinates, up to 2**53, whose differences need rounding
    node_sets.append([Node(1, 0, 0, 5, 5), Node(2, 3, 4, 5, 5), Node(3, -7, 2, 1, 2)])
    node_sets.append([Node(1, 2**53, 1, 1, 1), Node(2, 1 - 2**53, -(2**53), 1, 1)])
    node_sets += [[], [Node(1, 0.5, -0.5, 1.0, 1.0)]]
    for nodes in node_sets:
        net = Network(reversed(nodes))
        want = loop_distances(nodes)
        assert net.distances.shape == want.shape == (len(nodes), len(nodes))
        assert net.distances.tobytes() == want.tobytes()
        assert not net.distances.flags.writeable


def test_link_ends_are_the_node_positions_of_each_link():
    rng = np.random.default_rng(9)
    nets = [random_network(rng) for _ in range(40)]
    nets += [coded_grid(4, 3), relay_plain(), build_network(relay_nodes()[:2]), build_network([])]
    for net in nets:
        position = {nd.id: p for p, nd in enumerate(net.nodes)}
        ends = net.link_ends
        assert ends.shape == (2, net.link_count) and ends.dtype == np.intp
        assert not ends.flags.writeable
        assert ends[0].tolist() == [position[lk.tail] for lk in net.links]
        assert ends[1].tolist() == [position[lk.head] for lk in net.links]
    with pytest.raises(ValueError):
        nets[0].link_ends[0, 0] = 0


def test_max_weight_is_the_largest_hyperarc_weight():
    rng = np.random.default_rng(13)
    nets = [random_network(rng) for _ in range(40)]
    nets += [coded_grid(3, 3, degree) for degree in (2, 3)]
    # explicit weight-1 head sets only, and networks without links
    nets.append(build_network(relay_nodes(), hyperarcs=[(3, [1]), (1, [3])]))
    nets += [build_network(relay_nodes()[:2], coding_nodes=[1]), build_network([])]
    for net in nets:
        assert net.max_weight == max((h.weight for h in net.hyperarcs), default=0)
    assert [net.max_weight for net in nets[-3:]] == [1, 0, 0]
