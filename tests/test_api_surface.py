"""The public names and the benchmark tracer's patch targets all resolve.

``perfbench/tracing.py`` swaps functions at fixed module attributes and
reads counters off their arguments and results; a refactor that moves one
of them, or renames what a hook reads, would otherwise only crash the
traced benchmark pass. So every hook is run here on the coded demo.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import pkgutil
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_importing_the_package_loads_no_command_line_code():
    code = "import sys, multiflow; print(sorted({'argparse', 'multiflow.cli'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy", "multiflow"}
    for path in sorted((ROOT / "src" / "multiflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.23"]


def test_the_readme_library_example_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each "print(...)  # value" comment starts with the line that call prints
    expected = re.findall(r"^print\(.*\)\s+#\s*(\S+)", code, flags=re.MULTILINE)
    assert len(expected) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


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
        # sets {3} and {4} lie inside the broadcast {3, 4}, so they are no columns
        "two_way_relay_coded": (7, 11, 7, "hyperarc"),
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
