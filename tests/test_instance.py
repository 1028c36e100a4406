"""JSON instance and demand parsing."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from multiflow import (
    ValidationError,
    load_demand,
    load_instance,
    solve_mmf,
)
from multiflow.instance import demo_instances, parse_demand, parse_instance


def canonical_data(coded=True):
    data = {
        "nodes": [
            {"id": 1, "x": 0.0, "y": 0.0, "r": 1.0, "rho": 1.0},
            {"id": 2, "x": 2.0, "y": 0.0, "r": 1.0, "rho": 1.0},
            {"id": 3, "x": 1.0, "y": 0.0, "r": 1.0, "rho": 1.0},
        ],
        "commodities": [
            {"source": 1, "sink": 2},
            {"source": 2, "sink": 1},
        ],
    }
    if coded:
        data["hyperarcs"] = [{"tail": 3, "heads": [1, 2]}]
    return data


def test_parse_canonical():
    inst = parse_instance(canonical_data())
    assert inst.network.link_count == 4
    assert inst.network.hyperarc_count == 5
    assert [(c.source, c.sink) for c in inst.commodities] == [(1, 2), (2, 1)]
    assert inst.bandwidth is None


def test_parse_coding_nodes():
    data = canonical_data(coded=False)
    data["coding_nodes"] = [3]
    data["max_coding_degree"] = 2
    inst = parse_instance(data)
    assert inst.network.hyperarc_count == 5


def test_parse_bandwidth():
    data = canonical_data()
    data["bandwidth"] = {"1-3": 2.0, "2-3": 2.0, "3-1": 2.0, "3-2": 2.0}
    inst = parse_instance(data)
    assert inst.bandwidth.tolist() == [2.0, 2.0, 2.0, 2.0]
    partial = canonical_data()
    partial["bandwidth"] = {"1-3": 3.0}
    inst = parse_instance(partial)
    assert inst.bandwidth.tolist() == [3.0, 1.0, 1.0, 1.0]


def test_parse_rejects_unknown_fields():
    data = canonical_data()
    data["paint"] = "blue"
    with pytest.raises(ValidationError) as err:
        parse_instance(data)
    assert "paint" in str(err.value)
    node_extra = canonical_data()
    node_extra["nodes"][0]["z"] = 1.0
    with pytest.raises(ValidationError):
        parse_instance(node_extra)


def test_parse_rejects_bad_types():
    data = canonical_data()
    data["nodes"][0]["id"] = 1.5
    with pytest.raises(ValidationError):
        parse_instance(data)
    data = canonical_data()
    data["nodes"][0]["id"] = True
    with pytest.raises(ValidationError):
        parse_instance(data)
    data = canonical_data()
    data["nodes"][0]["x"] = "zero"
    with pytest.raises(ValidationError):
        parse_instance(data)
    data = canonical_data()
    data["nodes"][0]["x"] = json.loads("Infinity")  # JSON parsing accepts it
    with pytest.raises(ValidationError, match=r"nodes\[0\]\.x: non-finite number"):
        parse_instance(data)
    with pytest.raises(ValidationError, match="nodes: expected an array"):
        parse_instance({"nodes": {}})
    with pytest.raises(ValidationError):
        parse_instance([1, 2, 3])
    with pytest.raises(ValidationError):
        parse_instance({"commodities": []})


def test_parse_rejects_bad_hyperarcs():
    data = canonical_data(coded=False)
    data["hyperarcs"] = [{"tail": 3, "heads": [1, 1]}]
    with pytest.raises(ValidationError):
        parse_instance(data)
    data["hyperarcs"] = [{"tail": 3}]
    with pytest.raises(ValidationError):
        parse_instance(data)


def test_parse_rejects_unknown_commodity_nodes():
    data = canonical_data()
    data["commodities"].append({"source": 1, "sink": 7})
    with pytest.raises(ValidationError):
        parse_instance(data)


def test_parse_rejects_bad_bandwidth():
    data = canonical_data()
    data["bandwidth"] = {"1-2": 1.0}
    with pytest.raises(ValidationError):
        parse_instance(data)
    data = canonical_data()
    data["bandwidth"] = {"1-3": 0.0}
    with pytest.raises(ValidationError):
        parse_instance(data)
    data = canonical_data()
    data["bandwidth"] = {"13": 1.0}
    with pytest.raises(ValidationError):
        parse_instance(data)
    data = canonical_data()
    data["bandwidth"] = []
    with pytest.raises(ValidationError, match="bandwidth: expected an object"):
        parse_instance(data)


def test_load_instance_roundtrip(tmp_path):
    path = tmp_path / "relay.json"
    path.write_text(json.dumps(canonical_data()))
    inst = load_instance(path)
    assert inst.network.hyperarc_count == 5


def test_load_instance_errors(tmp_path):
    with pytest.raises(ValidationError):
        load_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"nodes\": [\n")
    with pytest.raises(ValidationError) as err:
        load_instance(bad)
    assert "line" in str(err.value)


def test_parse_demand(tmp_path):
    inst = parse_instance(canonical_data())
    net = inst.network
    d = parse_demand({"1-3": 0.5, "3-2": 0.25}, net)
    assert d.tolist() == [0.5, 0.0, 0.0, 0.25]
    with pytest.raises(ValidationError):
        parse_demand({"2-1": 0.5}, net)
    with pytest.raises(ValidationError):
        parse_demand({"1-3": -0.5}, net)
    with pytest.raises(ValidationError):
        parse_demand(["1-3"], net)
    path = tmp_path / "demand.json"
    path.write_text(json.dumps({"3-1": 1.0}))
    assert load_demand(path, net).tolist() == [0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("entries", [{"1-3": 0.5, 5: 1.0}, {5: 1.0, "1-3": 0.5}, {None: 1.0}])
def test_non_string_demand_keys_are_rejected(entries):
    net = parse_instance(canonical_data()).network
    with pytest.raises(ValidationError, match="is not of the form"):
        parse_demand(entries, net)


def test_demo_instances_solve_to_known_throughputs():
    demos = demo_instances()
    assert set(demos) == {"two_way_relay_plain", "two_way_relay_coded"}
    plain = parse_instance(demos["two_way_relay_plain"])
    coded = parse_instance(demos["two_way_relay_coded"])
    sol_plain = solve_mmf(plain.network, plain.commodities, mode="plain")
    sol_coded = solve_mmf(coded.network, coded.commodities, mode="coding")
    assert abs(sol_plain.throughput - 0.5) <= 1e-9
    assert abs(sol_coded.throughput - 2.0 / 3.0) <= 1e-9
    # demo payloads are valid JSON end to end
    for data in demos.values():
        assert parse_instance(json.loads(json.dumps(data)))


def test_readme_instance_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Instance files", 1)[1]
    inst = parse_instance(json.loads(section.split("```json\n", 1)[1].split("```", 1)[0]))
    net = inst.network
    assert (net.link_count, net.hyperarc_count, len(inst.commodities)) == (4, 5, 2)
    expected = np.ones(4)
    for tail, head in ((3, 1), (3, 2)):
        expected[net.find_link(tail, head).index - 1] = 2.0
    assert np.array_equal(inst.bandwidth, expected)


@pytest.mark.parametrize(
    "field, entries",
    [
        ("demand", {"1-3": 0.25, "01-3": 0.5}),
        ("demand", {"3-1": 0.5, "3-01": 0.5}),
        ("bandwidth", {"3-1": 2.0, "03-1": 4.0}),
        ("bandwidth", {"3-1": 2.0, "3-0001": 2.0}),
    ],
)
def test_two_keys_for_one_link_are_rejected(field, entries):
    data = canonical_data()
    net = parse_instance(data).network
    with pytest.raises(ValidationError, match=f"^{field}: keys .* name one link$"):
        if field == "demand":
            parse_demand(entries, net)
        else:
            parse_instance({**data, "bandwidth": entries})


@pytest.mark.parametrize("key", ["1-3\n", "١-3", "1-３", " 1-3", "1 -3", "1-3-"])
def test_link_keys_are_ascii_digits_only(key):
    data = canonical_data()
    net = parse_instance(data).network
    with pytest.raises(ValidationError, match="is not of the form"):
        parse_demand({key: 0.5}, net)
    with pytest.raises(ValidationError, match="is not of the form"):
        parse_instance({**data, "bandwidth": {key: 2.0}})


def test_json_files_reject_a_repeated_key(tmp_path):
    net = parse_instance(canonical_data()).network
    demand = tmp_path / "demand.json"
    demand.write_text('{"1-3": 0.25, "1-3": 0.5}')
    with pytest.raises(ValidationError, match="duplicate key '1-3'"):
        load_demand(demand, net)
    text = json.dumps(canonical_data())
    instance = tmp_path / "instance.json"
    # a second "r" inside the first node
    instance.write_text(text.replace('"r": 1.0,', '"r": 1.0, "r": 2.0,', 1))
    with pytest.raises(ValidationError, match="duplicate key 'r'"):
        load_instance(instance)
    instance.write_text(text)
    assert load_instance(instance).network.link_count == 4


HUGE = "1" + "0" * 400  # a JSON integer beyond float range


def test_an_integer_beyond_float_range_is_non_finite():
    big = json.loads(HUGE)
    data = canonical_data()
    data["nodes"][0]["x"] = big
    with pytest.raises(ValidationError) as err:
        parse_instance(data)
    assert str(err.value) == "nodes[0].x: non-finite number"
    data = {**canonical_data(), "bandwidth": {"1-3": big}}
    with pytest.raises(ValidationError) as err:
        parse_instance(data)
    assert str(err.value) == "bandwidth['1-3']: non-finite number"
    net = parse_instance(canonical_data()).network
    with pytest.raises(ValidationError) as err:
        parse_demand({"1-3": big}, net)
    assert str(err.value) == "demand['1-3']: non-finite number"


def test_a_file_that_is_not_utf8_cannot_be_read(tmp_path):
    net = parse_instance(canonical_data()).network
    for name, load in (("instance", load_instance), ("demand", lambda p: load_demand(p, net))):
        path = tmp_path / f"{name}.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(canonical_data()).encode("utf-16-le"))
        with pytest.raises(ValidationError, match=re.escape(f"cannot read {path}: ")):
            load(path)
