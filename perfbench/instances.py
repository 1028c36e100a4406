"""Seeded instance generators for the benchmark.

Every generator is a pure function of its arguments and draws from its own
``random.Random`` (whose string seeding and ``random()`` stream are stable
across Python versions), so the same seed always gives byte-identical
instance and demand files. Coordinates and rates are rounded to a fixed
number of decimals before they are written, and random positions are
redrawn when a pairwise distance falls within ``BOUNDARY_MARGIN`` of a
radius, so no link or conflict hinges on the last bit of a float.

All networks use the protocol-model radii the benchmark is defined on:
communication radius ``R = 1`` and interference radius ``RHO = 1.5``.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

R = 1.0
RHO = 1.5
CODING_DEGREE = 2
BOUNDARY_MARGIN = 1e-6
DENSITY = 2.0  # nodes per unit area for random geometric networks
ARCS_PER_NODE = 13.5  # about the mean at this density for 64 to 100 nodes
ARC_TOLERANCE = 0.02


def rng_for(seed: int, *labels) -> random.Random:
    """An independent, reproducible stream for one generated item."""
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def _node(nid: int, x: float, y: float) -> dict:
    return {"id": nid, "x": x, "y": y, "r": R, "rho": RHO}


def grid(width: int, height: int, coded: bool = False) -> dict:
    """Unit-spaced grid; node ``y * width + x + 1`` sits at (x, y).

    ``coded`` makes every node a coding node of degree 2, so each node may
    broadcast to any pair of its out-neighbours.
    """
    nodes = [
        _node(y * width + x + 1, float(x), float(y))
        for y in range(height)
        for x in range(width)
    ]
    inst: dict = {"nodes": nodes}
    if coded:
        inst["coding_nodes"] = [nd["id"] for nd in nodes]
        inst["max_coding_degree"] = CODING_DEGREE
    return inst


def corner_triple(width: int, height: int, mirrored: bool = False) -> list[tuple[int, int]]:
    """The fixed commodity triple: both ways along a diagonal, plus the other diagonal.

    ``mirrored`` reflects the triple left to right. The optimum is the same,
    but the simplex meets the columns in another order.
    """
    last = width * height
    pairs = [(1, last), (last, 1), (width, last - width + 1)]
    if mirrored:
        flip = {v: (v - 1) // width * width + width - (v - 1) % width for v in range(1, last + 1)}
        pairs = [(flip[s], flip[t]) for s, t in pairs]
    return pairs


def commodity_triple(rng: random.Random, node_count: int) -> list[tuple[int, int]]:
    """Three distinct source-sink pairs over node ids 1..node_count."""
    pairs: list[tuple[int, int]] = []
    while len(pairs) < 3:
        source, sink = rng.sample(range(1, node_count + 1), 2)
        if (source, sink) not in pairs:
            pairs.append((source, sink))
    return pairs


def with_commodities(inst: dict, pairs) -> dict:
    out = dict(inst)
    out["commodities"] = [{"source": s, "sink": t} for s, t in pairs]
    return out


def _near_boundary(points: list[tuple[float, float]]) -> bool:
    for i, (x, y) in enumerate(points):
        for x2, y2 in points[i + 1 :]:
            d = math.hypot(x - x2, y - y2)
            if d < BOUNDARY_MARGIN or abs(d - R) < BOUNDARY_MARGIN or abs(d - RHO) < BOUNDARY_MARGIN:
                return True
    return False


def _hyperarc_count(points: list[tuple[float, float]]) -> int:
    """Links plus one degree-2 broadcast per pair of a node's out-neighbours."""
    total = 0
    for i, (x, y) in enumerate(points):
        out = sum(1 for j, (x2, y2) in enumerate(points) if j != i and math.hypot(x - x2, y - y2) <= R)
        total += out + out * (out - 1) // 2
    return total


def random_geometric(rng: random.Random, columns: int, rows: int) -> dict:
    """``columns * rows`` coded nodes at density ``DENSITY``, placed by stratified sampling.

    The square is cut into one cell per node, a lattice of spacing
    ``1 / sqrt(DENSITY)``, and each node is drawn uniformly inside its own
    cell. Draws are kept only when the hyperarc count is within
    ``ARC_TOLERANCE`` of ``ARCS_PER_NODE`` per node. The hyperarc conflict
    graph is quadratic in that count, so it sets the cost and memory of a
    call. Uniform placement over the whole square makes the count vary
    nearly two-fold between seeds at one node count; even stratified
    draws have a standard deviation of 5-9% of the mean.
    """
    cell = 1.0 / math.sqrt(DENSITY)
    target = ARCS_PER_NODE * columns * rows
    while True:
        points = [
            (round((cx + rng.random()) * cell, 4), round((cy + rng.random()) * cell, 4))
            for cy in range(rows)
            for cx in range(columns)
        ]
        if abs(_hyperarc_count(points) - target) <= ARC_TOLERANCE * target and not _near_boundary(points):
            break
    nodes = [_node(k + 1, x, y) for k, (x, y) in enumerate(points)]
    return {
        "nodes": nodes,
        "coding_nodes": [nd["id"] for nd in nodes],
        "max_coding_degree": CODING_DEGREE,
    }


def link_keys(inst: dict) -> list[tuple[int, int]]:
    """Every in-range ordered pair (tail, head), in the program's link order."""
    nodes = sorted(inst["nodes"], key=lambda nd: nd["id"])
    keys = []
    for u in nodes:
        for v in nodes:
            if u is v:
                continue
            d = math.hypot(u["x"] - v["x"], u["y"] - v["y"])
            if 0 < d <= u["r"]:
                keys.append((u["id"], v["id"]))
    return keys


def uniform_demand(rng: random.Random, inst: dict, high: float = 0.05) -> dict:
    """A demand file: every link gets a rate uniform on [0, high]."""
    return {f"{t}-{h}": round(rng.random() * high, 6) for t, h in link_keys(inst)}


def write_json(path: Path, data: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
