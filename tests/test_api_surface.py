"""The public names and the benchmark tracer's patch targets all resolve.

``perfbench/tracing.py`` swaps functions at fixed module attributes; a
refactor that moves one of them would otherwise only crash the traced
benchmark pass.
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
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert main(["solve", str(tmp_path / "two_way_relay_coded.json")]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (multiflow.mmf.solve_lp, multiflow.lp._Simplex._pivot) == before
    assert tracer.counters["lp.calls"] == 1 and tracer.counters["lp.pivots"] > 0
    assert {"cli.cmd", "mmf.solve", "lp.solve", "conflict.graph_hyperarc"} <= {
        span.name for span in tracer.spans
    }
