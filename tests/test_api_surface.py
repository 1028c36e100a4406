"""The public names and the benchmark tracer's patch targets all resolve.

``perfbench/tracing.py`` swaps functions at fixed module attributes and
reads counters off their arguments and results; a refactor that moves one
of them, or renames what a hook reads, would otherwise only crash the
traced benchmark pass. So every hook is run here on the coded demo.
"""

import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import multiflow
from multiflow.cli import main

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve_and_only_the_package_lists_them():
    names = multiflow.__all__
    assert len(names) == len(set(names)) == 23
    assert all(hasattr(multiflow, name) for name in names)
    for info in pkgutil.iter_modules(multiflow.__path__):
        assert not hasattr(importlib.import_module(f"multiflow.{info.name}"), "__all__"), info.name
    readme = (ROOT / "README.md").read_text()
    listed = readme.split("The package exports these 23 names", 1)[1].split("\n\n", 2)[1]
    assert re.findall(r"`(\w+)`", listed) == names


def test_every_traced_attribute_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attribute, _, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), attribute, None)), (
            module_name,
            attribute,
        )
    assert callable(importlib.import_module("multiflow.lp")._Simplex._pivot)


def test_tracer_counts_a_solve_and_restores_the_package(tmp_path, capsys):
    import multiflow.lp
    import multiflow.mmf

    assert main(["demo", "--dir", str(tmp_path)]) == 0
    before = (multiflow.mmf.solve_lp, multiflow.lp._Simplex._pivot)
    # program rows and columns as the tracer reads them off LinearProgram, and pivots
    expected = {
        "two_way_relay_coded": (7, 13, 8, "hyperarc"),
        "two_way_relay_plain": (7, 12, 7, "link"),
    }
    for name, (rows, cols, pivots, level) in expected.items():
        tracer = load_tracing().Tracer()
        tracer.install()
        try:
            assert main(["solve", str(tmp_path / f"{name}.json")]) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert (multiflow.mmf.solve_lp, multiflow.lp._Simplex._pivot) == before
        assert tracer.counters["lp.calls"] == 1, name
        counted = tuple(tracer.counters[c] for c in ("mmf.lp_rows", "mmf.lp_cols", "lp.pivots"))
        assert counted == (rows, cols, pivots), name
        assert {"cli.cmd", "mmf.solve", "lp.solve", f"conflict.graph_{level}"} <= {
            span.name for span in tracer.spans
        }


def test_every_tracer_hook_fires_on_the_coded_demo(tmp_path, capsys):
    assert main(["demo", "--dir", str(tmp_path)]) == 0
    instance = str(tmp_path / "two_way_relay_coded.json")
    demand = tmp_path / "demand.json"
    demand.write_text('{"1-3": 0.25, "3-2": 0.125}')
    schedule = ["schedule", instance, "--demand", str(demand), "--algorithm"]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for argv in (["inspect", instance], ["compare", instance]):
            assert main(argv) == 0, argv
        for algorithm in ("cfs", "exact"):
            assert main(schedule + [algorithm]) == 0, algorithm
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for counter in (
        "cfs.rounds",
        "conflict.catalog_sets",
        "conflict.edges_link",
        "conflict.edges_hyperarc",
        "model.hyperarcs",
    ):
        assert tracer.counters[counter] > 0, counter
    assert {"cfs.schedule", "cfs.bound", "conflict.isn", "conflict.neighborhoods"} <= {
        span.name for span in tracer.spans
    }
