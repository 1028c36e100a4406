"""End-to-end command line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiflow.cli as cli_module
import multiflow.conflict as conflict_module
from multiflow.cli import build_parser, main, render_json
from multiflow.instance import load_instance

from helpers import grid_instance, relay_data

SRC = Path(__file__).resolve().parents[1] / "src"
RELAY_LINKS = ("1-3", "2-3", "3-1", "3-2")


@pytest.fixture
def demo_dir(tmp_path):
    assert main(["demo", "--dir", str(tmp_path)]) == 0
    return tmp_path


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_demo_writes_instances(tmp_path, capsys):
    assert main(["demo", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    names = ("two_way_relay_plain", "two_way_relay_coded")
    assert out == "".join(f"wrote {tmp_path / name}.json\n" for name in names)
    assert (tmp_path / "two_way_relay_coded.json").exists()
    data = json.loads((tmp_path / "two_way_relay_plain.json").read_text())
    assert len(data["nodes"]) == 3


def test_solve_in_bit_per_second(demo_dir, tmp_path, capsys):
    # every link at 1 Gbit/s, written in bit/s
    data = json.loads((demo_dir / "two_way_relay_coded.json").read_text())
    data["bandwidth"] = {key: 1e9 for key in RELAY_LINKS}
    instance = tmp_path / "gigabit.json"
    instance.write_text(json.dumps(data))
    report = run_json(capsys, ["solve", str(instance)])
    assert report["throughput"] == 666666667.0


@pytest.fixture(scope="module")
def corner_4x4(tmp_path_factory):
    """The plain 4x4 grid's corner triple as data, its link keys, and its unit-bandwidth JSON."""
    data = grid_instance(4, 4, coded=False)
    data["commodities"] = [{"source": s, "sink": t} for s, t in ((1, 16), (16, 1), (4, 13))]
    unit = tmp_path_factory.mktemp("corner") / "unit.json"
    unit.write_text(json.dumps(data))
    keys = [f"{lk.tail}-{lk.head}" for lk in load_instance(unit).network.links]
    args = build_parser().parse_args(["solve", str(unit), "--mode", "plain", "--cap", "100"])
    return data, keys, json.loads(render_json(args.handler(args)))


@pytest.mark.parametrize("scale", [1e-13, 1e9])
def test_a_4x4_corner_solve_scales_with_its_bandwidths(tmp_path, capsys, corner_4x4, scale):
    # an absolute print cutoff once dropped every flow at 1e-13 and let LP noise print at 1e9
    data, keys, want = corner_4x4
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps({**data, "bandwidth": dict.fromkeys(keys, scale)}))
    got = run_json(capsys, ["solve", str(scaled), "--mode", "plain", "--cap", "100"])
    assert [len(c["flow"]) for c in want["commodities"]] == [12, 12, 0]
    for c, c0 in zip(got["commodities"], want["commodities"], strict=True):
        assert c["flow"] == pytest.approx({k: v * scale for k, v in c0["flow"].items()}, rel=1e-8)
        assert c["value"] == pytest.approx(c0["value"] * scale, rel=1e-8)
    assert got["schedule"] == want["schedule"]
    assert f"{got['throughput']:.9g}" == f"{want['throughput'] * scale:.9g}"


def test_compare_in_tiny_units(demo_dir, tmp_path, capsys):
    # every bandwidth at 1e-13: an absolute print cutoff once zeroed both throughputs
    data = json.loads((demo_dir / "two_way_relay_coded.json").read_text())
    data["bandwidth"] = {key: 1e-13 for key in RELAY_LINKS}
    instance = tmp_path / "tiny.json"
    instance.write_text(json.dumps(data))
    assert run_json(capsys, ["compare", str(instance)]) == {
        "plain_throughput": 5e-14,
        "coding_throughput": 6.66666667e-14,
        "absolute_gain": 1.66666667e-14,
        "relative_gain": 1.33333333,
    }
    assert main(["compare", str(instance)]) == 0
    assert capsys.readouterr().out == (
        "plain_throughput   5e-14\n"
        "coding_throughput  6.66666667e-14\n"
        "absolute_gain      1.66666667e-14\n"
        "relative_gain      1.33333333\n"
    )


@pytest.mark.parametrize("algorithm", ["cfs", "exact"])
def test_schedule_in_tiny_units(demo_dir, tmp_path, capsys, algorithm):
    # a 1e-13 demand on every link: each lambda prints as 1e-13, not as 0
    demand = tmp_path / "tiny.json"
    demand.write_text(json.dumps({key: 1e-13 for key in RELAY_LINKS}))
    instance = str(demo_dir / "two_way_relay_coded.json")
    argv = ["schedule", instance, "--demand", str(demand), "--algorithm", algorithm]
    report = run_json(capsys, argv)
    assert [entry["lambda"] for entry in report["schedule"]] == [1e-13] * 3
    assert report["length"] == report["optimal_length"] == 3e-13
    assert report["neighborhood_bound"] == 4e-13
    assert report["ratio"] == 1.0


@pytest.mark.parametrize(
    "command, options, levels",
    [
        ("schedule", ["--algorithm", "cfs"], ["hyperarc"]),
        ("schedule", ["--algorithm", "exact"], ["hyperarc"]),
        ("inspect", [], ["link", "hyperarc"]),
    ],
)
def test_each_command_builds_the_graphs_it_reports(
    demo_dir, tmp_path, capsys, monkeypatch, command, options, levels
):
    # schedule reads its bound off the hyperarc graph; inspect reports both graphs
    built = []

    def counting(network, level="link"):
        built.append(level)
        return conflict_module.build_conflict_graph(network, level)

    monkeypatch.setattr(cli_module, "build_conflict_graph", counting)
    demand = tmp_path / "unit.json"
    demand.write_text(json.dumps(dict.fromkeys(RELAY_LINKS, 1.0)))
    if command == "schedule":
        options = options + ["--demand", str(demand)]
    report = run_json(capsys, [command, str(demo_dir / "two_way_relay_coded.json"), *options])
    assert built == levels
    if command == "schedule":
        assert (report["length"], report["neighborhood_bound"]) == (3.0, 4.0)
        assert (report["optimal_length"], report["ratio"]) == (3.0, 1.0)


def test_solve_plain(demo_dir, capsys):
    report = run_json(capsys, ["solve", str(demo_dir / "two_way_relay_plain.json")])
    assert report["mode"] == "plain"
    assert abs(report["throughput"] - 0.5) <= 1e-6
    assert abs(report["schedule_length"] - 1.0) <= 1e-6
    assert len(report["commodities"]) == 2


def test_solve_auto_picks_coding(demo_dir, capsys):
    report = run_json(capsys, ["solve", str(demo_dir / "two_way_relay_coded.json")])
    assert report["mode"] == "coding"
    assert abs(report["throughput"] - 2.0 / 3.0) <= 1e-6
    links_used = [entry["links"] for entry in report["schedule"]]
    assert [3, 4] in links_used


def test_solve_mode_override(demo_dir, capsys):
    report = run_json(
        capsys,
        ["solve", str(demo_dir / "two_way_relay_coded.json"), "--mode", "plain"],
    )
    assert report["mode"] == "plain"
    assert abs(report["throughput"] - 0.5) <= 1e-6


def test_solve_table_output(demo_dir, capsys):
    assert main(["solve", str(demo_dir / "two_way_relay_coded.json")]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "0.666666667" in out


def test_compare(demo_dir, capsys):
    report = run_json(capsys, ["compare", str(demo_dir / "two_way_relay_coded.json")])
    assert abs(report["plain_throughput"] - 0.5) <= 1e-6
    assert abs(report["coding_throughput"] - 2.0 / 3.0) <= 1e-6
    assert abs(report["absolute_gain"] - 1.0 / 6.0) <= 1e-6
    assert abs(report["relative_gain"] - 4.0 / 3.0) <= 1e-6


def test_inspect(demo_dir, capsys):
    report = run_json(capsys, ["inspect", str(demo_dir / "two_way_relay_coded.json")])
    assert report["links"] == 4
    assert report["hyperarcs"] == 5
    assert report["link_graph"] == {"vertices": 4, "edges": 6}
    assert report["hyperarc_graph"] == {"vertices": 5, "edges": 10}
    assert report["max_conflict_degree"] == 3
    assert report["inductive_schedulable_number"] == 2
    assert report["catalog_size"] == 5
    assert [3, 4] in report["catalog"]


def test_inspect_over_cap_softens(demo_dir, capsys):
    code = main(
        ["inspect", str(demo_dir / "two_way_relay_coded.json"), "--cap", "3", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert "catalog" not in report
    assert "note" in report
    assert main(["inspect", str(demo_dir / "two_way_relay_coded.json"), "--cap", "3"]) == 0
    assert capsys.readouterr().out == (
        "links                4\n"
        "hyperarcs            5\n"
        "link_graph           4 vertices, 6 edges\n"
        "hyperarc_graph       5 vertices, 10 edges\n"
        "max_conflict_degree  3\n"
        "catalog omitted: 5 vertices exceed the exact enumeration cap of 3; "
        "raise the cap or use the greedy scheduler\n"
    )


def test_schedule_cfs(demo_dir, capsys, tmp_path):
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"1-3": 1 / 3, "2-3": 1 / 3, "3-1": 1 / 3, "3-2": 1 / 3}))
    report = run_json(
        capsys,
        [
            "schedule",
            str(demo_dir / "two_way_relay_coded.json"),
            "--demand",
            str(demand),
        ],
    )
    assert report["algorithm"] == "cfs"
    assert abs(report["length"] - 1.0) <= 1e-6
    assert abs(report["neighborhood_bound"] - 4.0 / 3.0) <= 1e-6
    assert abs(report["optimal_length"] - 1.0) <= 1e-6
    assert abs(report["ratio"] - 1.0) <= 1e-6
    assert [entry["set"] for entry in report["schedule"]] == [[5], [1], [2]]


def test_schedule_exact(demo_dir, capsys, tmp_path):
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"3-1": 0.5, "3-2": 0.5}))
    report = run_json(
        capsys,
        [
            "schedule",
            str(demo_dir / "two_way_relay_coded.json"),
            "--demand",
            str(demand),
            "--algorithm",
            "exact",
        ],
    )
    assert report["algorithm"] == "exact"
    assert abs(report["length"] - 0.5) <= 1e-6
    assert report["schedule"] == [{"set": [5], "lambda": 0.5}]


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_demo_into_an_unwritable_directory_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["demo", "--dir", str(blocker / "sub")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {blocker / 'sub'}: ")


def test_unknown_coding_node_exits_1(tmp_path, capsys):
    path = tmp_path / "instance.json"
    arcs = [{"tail": 3, "heads": [1, 2]}]
    path.write_text(json.dumps(relay_data(hyperarcs=arcs, coding_nodes=[99])))
    assert main(["inspect", str(path)]) == 1
    assert capsys.readouterr().err == "error: unknown node id 99\n"


@pytest.mark.parametrize("command", ["inspect", "solve", "schedule"])
def test_negative_cap_exits_1(demo_dir, capsys, tmp_path, command):
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"1-3": 0.25}))
    argv = [command, str(demo_dir / "two_way_relay_coded.json"), "--cap", "-1"]
    if command == "schedule":
        argv += ["--demand", str(demand), "--algorithm", "cfs"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the enumeration cap must be nonnegative, got -1\n"


def test_negative_cap_on_an_empty_network_exits_1(tmp_path, capsys):
    instance = tmp_path / "lonely.json"
    instance.write_text(json.dumps({"nodes": [{"id": 1, "x": 0, "y": 0, "r": 1, "rho": 1}]}))
    assert main(["solve", str(instance), "--cap", "-3"]) == 1
    assert capsys.readouterr().err == "error: the enumeration cap must be nonnegative, got -3\n"
    assert main(["solve", str(instance), "--cap", "0"]) == 0
    capsys.readouterr()


def test_exit_code_cap_exceeded(demo_dir, capsys, tmp_path):
    assert main(["solve", str(demo_dir / "two_way_relay_coded.json"), "--cap", "3"]) == 2
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"1-3": 0.1}))
    assert (
        main(
            [
                "schedule",
                str(demo_dir / "two_way_relay_coded.json"),
                "--demand",
                str(demand),
                "--algorithm",
                "exact",
                "--cap",
                "3",
            ]
        )
        == 2
    )
    capsys.readouterr()


def test_schedule_cfs_over_cap_omits_optimal(demo_dir, capsys, tmp_path):
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"1-3": 0.25}))
    report_out = main(
        [
            "schedule",
            str(demo_dir / "two_way_relay_coded.json"),
            "--demand",
            str(demand),
            "--cap",
            "3",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert report_out == 0
    report = json.loads(out)
    assert "optimal_length" not in report
    assert "ratio" not in report
    assert abs(report["length"] - 0.25) <= 1e-6
    argv = ["schedule", str(demo_dir / "two_way_relay_coded.json"), "--demand", str(demand)]
    assert main(argv + ["--algorithm", "cfs", "--cap", "3"]) == 0
    assert capsys.readouterr().out == (
        "algorithm           cfs\n"
        "length              0.25\n"
        "neighborhood_bound  0.25\n"
        "\n"
        "lambda  hyperarcs\n"
        "0.25    1\n"
    )


def test_json_reports_roundtrip_byte_identical(demo_dir, capsys, tmp_path):
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"1-3": 0.25, "3-2": 0.125}))
    instance = str(demo_dir / "two_way_relay_coded.json")
    commands = [
        ["solve", instance],
        ["compare", instance],
        ["inspect", instance],
        ["schedule", instance, "--demand", str(demand)],
    ]
    for argv in commands:
        assert main(argv + ["--format", "json"]) == 0
        text = capsys.readouterr().out
        reserialized = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert reserialized == text, argv[0]


def test_solve_without_commodities(tmp_path, capsys):
    instance = tmp_path / "quiet.json"
    instance.write_text(
        json.dumps(
            {"nodes": [{"id": 1, "x": 0.0, "y": 0.0, "r": 1.0, "rho": 1.0},
                       {"id": 2, "x": 0.5, "y": 0.0, "r": 1.0, "rho": 1.0}]}
        )
    )
    assert main(["solve", str(instance), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["throughput"] == 0
    assert report["commodities"] == []


LINKLESS_TABLES = {
    "solve": "mode             plain\n"
    "throughput       0\n"
    "schedule_length  0\n"
    "\n"
    "commodity  value  flow\n"
    "1->2       0\n",
    "compare": "plain_throughput   0\n"
    "coding_throughput  0\n"
    "absolute_gain      0\n",
    "inspect": "links                0\n"
    "hyperarcs            0\n"
    "link_graph           0 vertices, 0 edges\n"
    "hyperarc_graph       0 vertices, 0 edges\n"
    "max_conflict_degree  0\n"
    "catalog_size         0\n"
    "catalog\n",
}


@pytest.mark.parametrize("command", sorted(LINKLESS_TABLES))
def test_a_network_without_links_reports_zeros(demo_dir, tmp_path, capsys, command):
    instance = tmp_path / "apart.json"
    nodes = [{"id": i, "x": 5.0 * i, "y": 0.0, "r": 1.0, "rho": 1.0} for i in (1, 2)]
    instance.write_text(json.dumps({"nodes": nodes, "commodities": [{"source": 1, "sink": 2}]}))
    assert main([command, str(instance)]) == 0
    assert capsys.readouterr().out == LINKLESS_TABLES[command]
    report = run_json(capsys, [command, str(instance)])
    numbers = {k: v for k, v in report.items() if isinstance(v, (int, float))}
    assert numbers and not any(numbers.values()), numbers
    # each number keeps the JSON type it has in a report with links
    demo = run_json(capsys, [command, str(demo_dir / "two_way_relay_coded.json")])
    assert {k: type(v) for k, v in numbers.items()} == {k: type(demo[k]) for k in numbers}
    assert "relative_gain" not in report
    assert report.get("catalog") == ([] if command == "inspect" else None)


def test_an_integer_beyond_float_range_exits_1(tmp_path, capsys):
    huge = "1" + "0" * 400
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(relay_data()).replace('"x": 0.0', f'"x": {huge}', 1))
    assert main(["inspect", str(instance)]) == 1
    assert capsys.readouterr().err == "error: nodes[0].x: non-finite number\n"
    instance.write_text(json.dumps(relay_data()))
    demand = tmp_path / "demand.json"
    demand.write_text(f'{{"1-3": {huge}}}')
    assert main(["schedule", str(instance), "--demand", str(demand)]) == 1
    assert capsys.readouterr().err == "error: demand['1-3']: non-finite number\n"


def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    instance.write_bytes(b"\xff\xfe" + json.dumps(relay_data()).encode("utf-16-le"))
    assert main(["inspect", str(instance)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {instance}: ")


def fresh_run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command in a new interpreter."""
    code = "import sys; from multiflow.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", code, *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_one_parser_serves_every_call_as_a_fresh_process_would(demo_dir, tmp_path, capsys):
    coded = str(demo_dir / "two_way_relay_coded.json")
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"1-3": 0.25, "3-2": 0.125}))
    schedule = ["schedule", coded, "--demand", str(demand)]
    # each call after the first leaves out an option the one before it set
    runs = [
        schedule + ["--algorithm", "exact"],
        schedule,
        ["solve", coded, "--mode", "plain"],
        ["solve", coded],
        ["inspect", coded, "--format", "json"],
        ["inspect", coded],
    ]
    assert build_parser() is build_parser()
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh_run(argv), argv


def test_the_set_limit_acts_like_the_cap_on_every_command(demo_dir, tmp_path, capsys, monkeypatch):
    coded = str(demo_dir / "two_way_relay_coded.json")
    demand = tmp_path / "demand.json"
    demand.write_text(json.dumps({"1-3": 0.25}))
    schedule = ["schedule", coded, "--demand", str(demand)]
    monkeypatch.setattr(conflict_module, "_MAX_SETS", 4)  # the coded relay has 5 sets, 4 uncoded
    message = "5 schedulable sets pass the limit of 4"
    for argv in (["solve", coded], ["compare", coded], schedule + ["--algorithm", "exact"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    report = run_json(capsys, ["inspect", coded])
    assert report["note"] == f"catalog omitted: {message}" and "catalog" not in report
    report = run_json(capsys, schedule)
    assert "optimal_length" not in report and report["length"] == 0.25
    monkeypatch.setattr(conflict_module, "_MAX_SETS", 5)
    assert run_json(capsys, ["inspect", coded])["catalog_size"] == 5
