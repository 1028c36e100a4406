"""Geometry-based output checker, independent of the multiflow package.

Everything here is rebuilt from the instance file's node positions and
radii: the link list, the canonical hyperarc numbering, and the protocol
interference test (a transmission is blocked when another tail lies within
``rho`` of its receiver). The checkers take the reports the command line
prints (as decoded JSON) and return a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-6  # reports carry 9 significant digits, so sums agree far inside this


@dataclass(frozen=True, eq=False)
class Geometry:
    """The network an instance file describes, rebuilt from its coordinates.

    ``links[k]`` is the (tail, head) pair of link ``k + 1``; ``arcs[k]`` is
    the (tail, heads) of hyperarc ``k + 1`` in the program's canonical
    order (every link first, then coded head sets by tail, size and heads);
    ``arc_links[k]`` holds the 0-based link positions hyperarc ``k + 1``
    delivers. ``blocks[p, q]`` says the tail of link p lies within its own
    interference radius of the head of link q.
    """

    ids: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    link_index: dict
    arcs: tuple[tuple[int, tuple[int, ...]], ...]
    arc_links: tuple[tuple[int, ...], ...]
    blocks: np.ndarray

    def link_conflicts(self) -> np.ndarray:
        """Symmetric link conflict matrix, True on the diagonal."""
        return self.blocks | self.blocks.T

    def arc_conflicts(self) -> np.ndarray:
        """Hyperarc conflict matrix: some pair of sub-links conflicts. Diagonal False."""
        inc = self.incidence(self.arc_links).astype(np.int64)
        hit = (inc @ self.link_conflicts().astype(np.int64) @ inc.T) > 0
        np.fill_diagonal(hit, False)
        return hit

    def incidence(self, link_sets) -> np.ndarray:
        out = np.zeros((len(link_sets), len(self.links)), dtype=bool)
        for k, members in enumerate(link_sets):
            out[k, list(members)] = True
        return out


def geometry(inst: dict) -> Geometry:
    nodes = sorted(inst["nodes"], key=lambda nd: nd["id"])
    ids = tuple(nd["id"] for nd in nodes)
    pos = {nd["id"]: k for k, nd in enumerate(nodes)}
    n = len(nodes)
    dist = np.zeros((n, n))
    for a, b in itertools.combinations(range(n), 2):
        d = math.hypot(nodes[a]["x"] - nodes[b]["x"], nodes[a]["y"] - nodes[b]["y"])
        dist[a, b] = dist[b, a] = d
    comm = np.array([float(nd["r"]) for nd in nodes])
    rho = np.array([float(nd["rho"]) for nd in nodes])
    links = tuple(
        (ids[a], ids[b])
        for a in range(n)
        for b in range(n)
        if a != b and 0 < dist[a, b] <= comm[a]
    )
    link_index = {lk: k for k, lk in enumerate(links)}
    out_nbrs = {i: [h for t, h in links if t == i] for i in ids}
    coded = []
    degree = inst.get("max_coding_degree", 3)
    for tail in sorted(set(inst.get("coding_nodes", ()))):
        for size in range(2, min(degree, len(out_nbrs[tail])) + 1):
            coded.extend((tail, heads) for heads in itertools.combinations(out_nbrs[tail], size))
    coded.sort(key=lambda th: (th[0], len(th[1]), th[1]))
    arcs = tuple((t, (h,)) for t, h in links) + tuple(coded)
    arc_links = tuple(tuple(link_index[(t, h)] for h in heads) for t, heads in arcs)
    tails = np.array([pos[t] for t, _ in links], dtype=int)
    heads = np.array([pos[h] for _, h in links], dtype=int)
    blocks = dist[tails[:, None], heads[None, :]] <= rho[tails][:, None]
    return Geometry(ids, links, link_index, arcs, arc_links, blocks)


def neighborhood_bound(geo: Geometry, demand: np.ndarray) -> float:
    """Largest total demand over a link's closed conflict neighbourhood."""
    return float((geo.link_conflicts().astype(float) @ demand).max(initial=0.0))


def demand_array(geo: Geometry, demand: dict) -> np.ndarray:
    d = np.zeros(len(geo.links))
    for key, rate in demand.items():
        t, h = (int(v) for v in key.split("-"))
        d[geo.link_index[(t, h)]] = rate
    return d


def catalog_digest(sets) -> str:
    """Order-free fingerprint of a list of link sets (1-based link indices)."""
    canon = sorted(tuple(sorted(int(a) for a in s)) for s in sets)
    return hashlib.sha256(json.dumps(canon, separators=(",", ":")).encode()).hexdigest()


def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= TOL


def independent(geo: Geometry, arc_set) -> bool:
    """No sub-link of one hyperarc is blocked by a sub-link of another."""
    arcs = sorted(set(int(v) for v in arc_set))
    if any(not 1 <= v <= len(geo.arcs) for v in arcs):
        return False
    members = [(k, p) for k, v in enumerate(arcs) for p in geo.arc_links[v - 1]]
    owner = np.array([k for k, _ in members])
    pos = np.array([p for _, p in members])
    sub = geo.blocks[pos[:, None], pos[None, :]]
    clash = (sub | sub.T) & (owner[:, None] != owner[None, :])
    return not bool(clash.any())


def _delivered(geo: Geometry, entries, key: str) -> tuple[np.ndarray, list[str]]:
    problems = []
    rate = np.zeros(len(geo.links))
    for k, entry in enumerate(entries):
        lam = float(entry["lambda"])
        if lam < -TOL:
            problems.append(f"schedule entry {k}: negative share {lam}")
        if not independent(geo, entry[key]):
            problems.append(f"schedule entry {k}: hyperarcs {entry[key]} conflict")
            continue
        for v in set(entry[key]):
            rate[list(geo.arc_links[v - 1])] += lam
    return rate, problems


def check_solve(geo: Geometry, commodities, report: dict, reference: float) -> list[str]:
    """Certificate of a `solve` report: independent sets, budget, flows, capacity, optimum."""
    entries = report["schedule"]
    capacity, problems = _delivered(geo, entries, "hyperarcs")
    if not problems:
        for k, entry in enumerate(entries):
            covered = sorted({p + 1 for v in entry["hyperarcs"] for p in geo.arc_links[v - 1]})
            if covered != sorted(entry["links"]):
                problems.append(f"schedule entry {k}: links {entry['links']} != sub-links {covered}")
    shares = sum(float(e["lambda"]) for e in entries)
    if shares > 1 + TOL:
        problems.append(f"shares sum to {shares} > 1")
    if not _close(shares, report["schedule_length"]):
        problems.append("schedule_length differs from the sum of shares")
    total = np.zeros(len(geo.links))
    values = 0.0
    listed = [(c["source"], c["sink"]) for c in report["commodities"]]
    if listed != [tuple(c) for c in commodities]:
        problems.append(f"commodities {listed} != {commodities}")
    for c in report["commodities"]:
        flow = demand_array(geo, c["flow"]) if c["flow"] else np.zeros(len(geo.links))
        if (flow < -TOL).any():
            problems.append(f"commodity {c['source']}->{c['sink']}: negative flow")
        net = {i: 0.0 for i in geo.ids}
        for (t, h), f in zip(geo.links, flow):
            net[t] += f
            net[h] -= f
        for node, excess in net.items():
            if node not in (c["source"], c["sink"]) and abs(excess) > TOL:
                problems.append(f"commodity {c['source']}->{c['sink']}: node {node} leaks {excess}")
        if not _close(net[c["source"]], c["value"]):
            problems.append(f"commodity {c['source']}->{c['sink']}: value != net outflow")
        total += flow
        values += float(c["value"])
    over = total - capacity
    if (over > TOL).any():
        problems.append(f"link {int(over.argmax()) + 1} carries {over.max()} over its granted capacity")
    if not _close(values, report["throughput"]):
        problems.append("throughput differs from the sum of commodity values")
    if not _close(report["throughput"], reference):
        problems.append(f"throughput {report['throughput']} != reference {reference}")
    return problems


def check_compare(report: dict, plain: float, coding: float) -> list[str]:
    problems = []
    if not _close(report["plain_throughput"], plain):
        problems.append(f"plain throughput {report['plain_throughput']} != reference {plain}")
    if not _close(report["coding_throughput"], coding):
        problems.append(f"coding throughput {report['coding_throughput']} != reference {coding}")
    if not _close(report["absolute_gain"], coding - plain):
        problems.append("absolute_gain is not coding minus plain")
    if plain > TOL and not _close(report.get("relative_gain", math.nan), coding / plain):
        problems.append("relative_gain is not coding over plain")
    return problems


def check_schedule(geo: Geometry, demand: np.ndarray, report: dict, optimum: float | None) -> list[str]:
    """A `schedule` report: independent sets that serve the demand.

    The greedy (``optimum is None``) must deliver the demand exactly within
    the neighbourhood bound; the exact schedule must cover it at the
    reference optimal length.
    """
    delivered, problems = _delivered(geo, report["schedule"], "set")
    length = sum(float(e["lambda"]) for e in report["schedule"])
    if not _close(length, report["length"]):
        problems.append("length differs from the sum of shares")
    bound = neighborhood_bound(geo, demand)
    if not _close(bound, report["neighborhood_bound"]):
        problems.append(f"neighborhood_bound {report['neighborhood_bound']} != {bound}")
    short = demand - delivered
    if (short > TOL).any():
        problems.append(f"link {int(short.argmax()) + 1} is short by {short.max()}")
    if optimum is None:
        if (-short > TOL).any():
            problems.append(f"link {int((-short).argmax()) + 1} gets {-short.min()} beyond its demand")
        if length > bound + TOL:
            problems.append(f"greedy length {length} exceeds the bound {bound}")
    elif not (_close(report["length"], optimum) and _close(report["optimal_length"], optimum)):
        problems.append(f"length {report['length']} != reference optimum {optimum}")
    return problems


def check_inspect(geo: Geometry, report: dict, reference: dict) -> list[str]:
    """Graph sizes against the geometry; the catalog against the reference enumeration."""
    link_edges = int(np.triu(geo.link_conflicts(), 1).sum())
    arc_edges = int(np.triu(geo.arc_conflicts(), 1).sum())
    degree = int(geo.link_conflicts().sum(axis=1).max(initial=1)) - 1
    expected = {
        "links": len(geo.links),
        "hyperarcs": len(geo.arcs),
        "link_graph": {"vertices": len(geo.links), "edges": link_edges},
        "hyperarc_graph": {"vertices": len(geo.arcs), "edges": arc_edges},
        "max_conflict_degree": degree,
        "catalog_size": reference["catalog_size"],
        "inductive_schedulable_number": reference["isn"],
    }
    problems = [f"{key} {report.get(key)} != {want}" for key, want in expected.items() if report.get(key) != want]
    if "catalog" not in report or catalog_digest(report["catalog"]) != reference["catalog_digest"]:
        problems.append("catalog differs from the reference enumeration")
    return problems
