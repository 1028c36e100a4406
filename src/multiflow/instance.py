"""Strict JSON handling for instance and demand files, plus demo instances.

Instance files describe nodes, optional coding structure, commodities and
bandwidths. Parsing is strict: unknown fields, wrong types, duplicate or
dangling ids all raise ValidationError with a field path.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError
from .model import DEFAULT_MAX_CODING_DEGREE, Network, Node, build_network
from .mmf import Commodity

_TOP_FIELDS = {
    "nodes", "hyperarcs", "coding_nodes", "max_coding_degree", "commodities", "bandwidth"
}
_NODE_FIELDS = {"id", "x", "y", "r", "rho"}
_HYPERARC_FIELDS = {"tail", "heads"}
_COMMODITY_FIELDS = {"source", "sink"}
_LINK_KEY = re.compile(r"(-?\d+)-(-?\d+)", re.ASCII)


@dataclass(frozen=True, eq=False)
class Instance:
    """A parsed instance: the network plus commodities and bandwidths."""

    network: Network
    commodities: tuple[Commodity, ...]
    bandwidth: np.ndarray | None


def _require_int(value: Any, where: str) -> int:
    if type(value) is not int:
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_number(value: Any, where: str) -> float:
    if type(value) not in (int, float):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValidationError(f"{where}: non-finite number")
    return out


def _require_object(value: Any, allowed: set[str], required: set[str], where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = sorted(set(value) - allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown field {unknown[0]!r}")
    for field in sorted(required):
        if field not in value:
            raise ValidationError(f"{where}: missing field {field!r}")
    return value


def _require_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected an array")
    return value


def _require_ints(value: Any, where: str) -> list[int]:
    return [_require_int(v, f"{where}[{i}]") for i, v in enumerate(_require_list(value, where))]


def _link_rates(out: np.ndarray, entries: dict, network: Network, where: str, positive: bool):
    # write each "tail-head" entry into the per-link vector out, one key per link
    named: dict[int, str] = {}
    for key in sorted(entries, key=str):  # a non-string key fails below, not in the sort
        match = _LINK_KEY.fullmatch(key) if isinstance(key, str) else None
        if match is None:
            raise ValidationError(f"{where}: key {key!r} is not of the form \"tail-head\"")
        tail, head = int(match.group(1)), int(match.group(2))
        lk = network.find_link(tail, head)
        if lk is None:
            raise ValidationError(f"{where}: ({tail}, {head}) is not a link of this network")
        if lk.index in named:
            raise ValidationError(f"{where}: keys {named[lk.index]!r} and {key!r} name one link")
        named[lk.index] = key
        value = _require_number(entries[key], f"{where}[{key!r}]")
        if value < 0 or (positive and value == 0):
            sign = "positive" if positive else "nonnegative"
            raise ValidationError(f"{where}[{key!r}]: must be {sign}")
        out[lk.index - 1] = value
    return out


def parse_instance(data: Any) -> Instance:
    """Build an Instance from already-decoded JSON data."""
    top = _require_object(data, _TOP_FIELDS, {"nodes"}, "instance")

    nodes = []
    for k, entry in enumerate(_require_list(top["nodes"], "nodes")):
        where = f"nodes[{k}]"
        obj = _require_object(entry, _NODE_FIELDS, _NODE_FIELDS, where)
        nodes.append(
            Node(
                id=_require_int(obj["id"], f"{where}.id"),
                x=_require_number(obj["x"], f"{where}.x"),
                y=_require_number(obj["y"], f"{where}.y"),
                comm_radius=_require_number(obj["r"], f"{where}.r"),
                interf_radius=_require_number(obj["rho"], f"{where}.rho"),
            )
        )

    hyperarcs = None
    if "hyperarcs" in top:
        hyperarcs = []
        for k, entry in enumerate(_require_list(top["hyperarcs"], "hyperarcs")):
            where = f"hyperarcs[{k}]"
            obj = _require_object(entry, _HYPERARC_FIELDS, _HYPERARC_FIELDS, where)
            tail = _require_int(obj["tail"], f"{where}.tail")
            hyperarcs.append((tail, _require_ints(obj["heads"], f"{where}.heads")))

    coding_nodes = None
    if "coding_nodes" in top:
        coding_nodes = _require_ints(top["coding_nodes"], "coding_nodes")

    degree = DEFAULT_MAX_CODING_DEGREE
    if "max_coding_degree" in top:
        degree = _require_int(top["max_coding_degree"], "max_coding_degree")

    network = build_network(
        nodes, hyperarcs=hyperarcs, coding_nodes=coding_nodes, max_coding_degree=degree
    )

    commodities = []
    if "commodities" in top:
        for k, entry in enumerate(_require_list(top["commodities"], "commodities")):
            where = f"commodities[{k}]"
            obj = _require_object(entry, _COMMODITY_FIELDS, _COMMODITY_FIELDS, where)
            com = Commodity(
                source=_require_int(obj["source"], f"{where}.source"),
                sink=_require_int(obj["sink"], f"{where}.sink"),
            )
            network.node(com.source)
            network.node(com.sink)
            commodities.append(com)

    bandwidth = None
    if "bandwidth" in top:
        entries = top["bandwidth"]
        if not isinstance(entries, dict):
            raise ValidationError("bandwidth: expected an object")
        bandwidth = _link_rates(np.ones(network.link_count), entries, network, "bandwidth", True)

    return Instance(network=network, commodities=tuple(commodities), bandwidth=bandwidth)


def _read_json(path: str | Path) -> Any:
    # file and JSON errors, and an object naming one key twice, become ValidationError
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            twice = next(key for key in keys if keys.count(key) > 1)
            raise ValidationError(f"{path}: duplicate key {twice!r}")
        return obj

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_instance(path: str | Path) -> Instance:
    """Parse an instance file, mapping JSON errors to ValidationError."""
    return parse_instance(_read_json(path))


def parse_demand(data: Any, network: Network) -> np.ndarray:
    """Per-link demand from a mapping of "tail-head" keys to rates."""
    if not isinstance(data, dict):
        raise ValidationError("demand: expected an object mapping \"tail-head\" to rates")
    return _link_rates(np.zeros(network.link_count), data, network, "demand", False)


def load_demand(path: str | Path, network: Network) -> np.ndarray:
    """Parse a demand file for a network, mapping JSON errors to ValidationError."""
    return parse_demand(_read_json(path), network)


def demo_instances() -> dict[str, dict]:
    """The bundled two-way relay instances, as instance-file data.

    Three collinear unit-radius nodes where 1 and 2 exchange packets
    through relay 3. The plain variant schedules single links; the coded
    variant adds the relay's broadcast, which serves both return links in
    one transmission and lifts the throughput from 1/2 to 2/3.
    """
    nodes = [
        {"id": 1, "x": 0.0, "y": 0.0, "r": 1.0, "rho": 1.0},
        {"id": 2, "x": 2.0, "y": 0.0, "r": 1.0, "rho": 1.0},
        {"id": 3, "x": 1.0, "y": 0.0, "r": 1.0, "rho": 1.0},
    ]
    commodities = [{"source": 1, "sink": 2}, {"source": 2, "sink": 1}]
    plain = {"nodes": nodes, "commodities": commodities}
    coded = dict(plain, hyperarcs=[{"tail": 3, "heads": [1, 2]}])
    return {"two_way_relay_plain": plain, "two_way_relay_coded": coded}
