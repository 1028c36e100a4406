"""Byte-for-byte pins of the command line's stdout on the demo relays and 4x4 grids.

Each digest is the sha256 of everything one ``multiflow`` run prints, in
both output formats, so any change to a number, a JSON byte or a table
column shows up here. The ``schedule`` runs use the README's demand file.
The grid digests pin ``inspect``'s full catalog listing on larger graphs.
The reports these runs render hold only built-in types, so the JSON
renderer needs no case for numpy scalars.
"""

import hashlib
import json

import pytest

from multiflow.cli import build_parser, main, render_json

from helpers import grid_instance, json_render

README_DEMAND = '{"1-3": 0.25, "3-2": 0.125}'

RUNS = {
    "solve": [],
    "compare": [],
    "inspect": [],
    "schedule-cfs": ["--demand", "{demand}", "--algorithm", "cfs"],
    "schedule-exact": ["--demand", "{demand}", "--algorithm", "exact"],
}

GOLDEN = {
    "two_way_relay_coded compare json": "d7e47385735ea2e44ad3539cc104af5ba0cd4f8c30290b132dca18c660be2e87",
    "two_way_relay_coded compare table": "34397b4ba4b2428f35668750796444d5262bff71bf0dc198afd04f5c0ecd2a23",
    "two_way_relay_coded inspect json": "5763f23f43134d0c5c481a3a89154cc840861f9170bf3758df029e5521fb000d",
    "two_way_relay_coded inspect table": "aae89931d9df796c58476c913ee18fe2de442cc87ce9d29a3de5678d6d6b84d0",
    "two_way_relay_coded schedule-cfs json": "85727c1c10d03343dd330d9056f92189eff76c2e8969295fc8f43abad5ef0932",
    "two_way_relay_coded schedule-cfs table": "e1d3db002517f110d02f64c1766ca60ee830eb280f2dc7b73504e4901ff2281b",
    "two_way_relay_coded schedule-exact json": "cfe095677c14b21f192459dd8398f87fc69384e1e2512be382ff23c2d42b3e30",
    "two_way_relay_coded schedule-exact table": "627fc36d4b3b061ecec9768f6200c474d1ebc5170c06033817816f5156bde909",
    "two_way_relay_coded solve json": "23d7f44f2f2c2c968c3a385ab8a24616ac2198885a95f98c294a8fbda9cef98f",
    "two_way_relay_coded solve table": "ae7de21cd0b00981ffa0a2c029a41175b3cbbb5420207ef68b83ef7008e79ec9",
    "two_way_relay_plain compare json": "267a798c7a1a1cc5f022b217d14e4baea43c9098b8eb964be097d8233809ebd8",
    "two_way_relay_plain compare table": "cc4e8ea1b9091e66b21d76a8da9615ba0be11ea16ab4dcd44846a6d8b13a39ac",
    "two_way_relay_plain inspect json": "0efe6f5ebca1f3ef2e948e46a2d9414c3581dda1641dc2a7a49d3416103ee391",
    "two_way_relay_plain inspect table": "53a0f330cc03ee9f9d19d547ef2d434e60a42aee62862eb40ec004f697b41392",
    "two_way_relay_plain schedule-cfs json": "85727c1c10d03343dd330d9056f92189eff76c2e8969295fc8f43abad5ef0932",
    "two_way_relay_plain schedule-cfs table": "e1d3db002517f110d02f64c1766ca60ee830eb280f2dc7b73504e4901ff2281b",
    "two_way_relay_plain schedule-exact json": "cfe095677c14b21f192459dd8398f87fc69384e1e2512be382ff23c2d42b3e30",
    "two_way_relay_plain schedule-exact table": "627fc36d4b3b061ecec9768f6200c474d1ebc5170c06033817816f5156bde909",
    "two_way_relay_plain solve json": "8af5c4869197be177f59a53117701a32f908e3c61b84b9f3bd3f760a76ca7f55",
    "two_way_relay_plain solve table": "798c324ea9894ce136f64560251581e822f2abef67902a11b32a5c4e4a9fd48e",
}


def demo_argv(capsys, directory, demo, run):
    """One run's arguments, with the demos and demand written to ``directory``."""
    assert main(["demo", "--dir", str(directory)]) == 0
    demand = directory / "demand.json"
    demand.write_text(README_DEMAND + "\n")
    capsys.readouterr()
    extra = [arg.format(demand=demand) for arg in RUNS[run]]
    return [run.split("-")[0], str(directory / f"{demo}.json"), *extra]


def cli_digest(capsys, directory, demo, run, fmt):
    """sha256 of one run's stdout."""
    code = main(demo_argv(capsys, directory, demo, run) + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0, out
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("demo", ["two_way_relay_plain", "two_way_relay_coded"])
def test_cli_stdout_matches_golden_digest(tmp_path, capsys, demo, run, fmt):
    assert cli_digest(capsys, tmp_path, demo, run, fmt) == GOLDEN[f"{demo} {run} {fmt}"]


GRID_GOLDEN = {
    # 48 vertices, 830 sets
    "grid_4x4_plain": "6b76d29f7f280aacdc921099d560677ecd97936000e2cae2e1d78ca3d47c7a99",
    # 100 hyperarc vertices, 2,861 sets
    "grid_4x4_coded": "c1d0e5b17ce428082f178ac57bddfc5e6c95f7b90338dea69a89d75bd4e553c5",
}


@pytest.mark.parametrize("name", sorted(GRID_GOLDEN))
def test_inspect_json_on_4x4_grids_matches_golden_digest(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(grid_instance(4, 4, name.endswith("coded"))))
    code = main(["inspect", str(path), "--cap", "100", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert hashlib.sha256(out.encode()).hexdigest() == GRID_GOLDEN[name]


def report_of(argv: list[str]) -> dict:
    """The report a command hands to the renderer, before any rounding."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


def assert_builtin(value, where="report") -> None:
    assert type(value) in (dict, list, str, int, float, bool), (where, type(value))
    if isinstance(value, dict):
        for key, item in value.items():
            assert type(key) is str, (where, key)
            assert_builtin(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            assert_builtin(item, f"{where}[{i}]")


@pytest.mark.parametrize("run", sorted(RUNS) + ["demo"])
@pytest.mark.parametrize("demo", ["two_way_relay_plain", "two_way_relay_coded"])
def test_reports_hold_only_builtin_types(tmp_path, capsys, demo, run):
    if run == "demo":
        argv = ["demo", "--dir", str(tmp_path)]
    else:
        argv = demo_argv(capsys, tmp_path, demo, run)
    assert_builtin(report_of(argv))


@pytest.mark.parametrize("name", sorted(GRID_GOLDEN))
def test_inspect_reports_on_4x4_grids_hold_only_builtin_types(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(grid_instance(4, 4, name.endswith("coded"))))
    report = report_of(["inspect", str(path), "--cap", "100"])
    assert report["catalog"]
    assert_builtin(report)


@pytest.mark.parametrize("run", sorted(RUNS) + ["demo"])
@pytest.mark.parametrize("demo", ["two_way_relay_plain", "two_way_relay_coded"])
def test_render_json_matches_the_standard_encoder(tmp_path, capsys, demo, run):
    if run == "demo":
        argv = ["demo", "--dir", str(tmp_path)]
    else:
        argv = demo_argv(capsys, tmp_path, demo, run)
    report = report_of(argv)
    assert render_json(report) == json_render(report)


@pytest.mark.parametrize("name", sorted(GRID_GOLDEN))
def test_render_json_of_4x4_grid_inspect_matches_the_standard_encoder(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(grid_instance(4, 4, name.endswith("coded"))))
    report = report_of(["inspect", str(path), "--cap", "100"])
    assert render_json(report) == json_render(report)


EDGE_REPORTS = {
    "empty": {},
    "nested empty": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {"f": []}}},
    "strings": {
        "note": 'caf\u00e9 \u2013 \u2603 "quoted" back\\slash\nline\ttab\u0001 \U0001f600',
        "\u043a\u043b\u044e\u0447": "\u5024",
        "": "",
        "list": ["a", "\"", "\\", "\u00ff"],
    },
    "bool and None": {
        "yes": True,
        "no": False,
        "none": None,
        "flags": [True, False],
        "mixed": [True, 1, None, 0, False],
    },
    "int and float": {
        "i": 1,
        "f": 1.0,
        "ints": [1, 2, 3],
        "mixed": [1, 1.0, 2, 2.5],
        "big": 10**30,
        "negative": [-1, -2],
        "nested": [[1, 2], [3.0, 4], [{"k": 5}]],
    },
    "negative zero and tiny values": {
        "z": -0.0,
        "tiny": [1e-13, -9.99e-13, 1e-12, -1e-12, 5e-324, -5e-324],
        "zeros": [0.0, -0.0, 0],
    },
    "rounding": {
        "third": 1 / 3,
        "large": 123456789012.0,
        "small": 1.23456789123e-7,
        "inf": [float("inf"), float("-inf")],
        "nan": float("nan"),
    },
}


@pytest.mark.parametrize("name", sorted(EDGE_REPORTS))
def test_render_json_matches_the_standard_encoder_on_edge_values(name):
    report = EDGE_REPORTS[name]
    assert render_json(report) == json_render(report)


def test_render_json_prints_negative_zero_as_zero_and_tiny_values_as_they_are():
    # literal bytes: the oracle above rounds with the renderer's own rule, so it cannot catch one
    report = {"z": -0.0, "t": 1e-13, "l": [-0.0, 1e-13, -1e-13]}
    assert render_json(report) == (
        '{\n  "l": [\n    0.0,\n    1e-13,\n    -1e-13\n  ],\n  "t": 1e-13,\n  "z": 0.0\n}'
    )


@pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])
def test_render_json_joins_long_lists_in_blocks_like_the_standard_encoder(count):
    # lists of containers and of mixed scalars are joined a block of items at a time
    report = {
        "catalog": [list(range(1, k % 7 + 2)) for k in range(count)],
        "schedule": [{"set": [k, k + 1], "lambda": k / 3} for k in range(count)],
        "mixed": [k if k % 2 else k / 7 for k in range(count)],
        "ints": list(range(count)),
        "nested": {"deep": [[float(k), [k]] for k in range(count)]},
    }
    assert render_json(report) == json_render(report)
