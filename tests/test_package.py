"""The package namespace: each public name is declared once, in its module."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import wavemotil
from wavemotil import analysis, certificates, errors, frontmetrics, model, pde, waveode

MODULES = (errors, model, analysis, certificates, waveode, frontmetrics, pde)


def test_package_exports_exactly_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is public in two modules"
    assert sorted(wavemotil.__all__) == sorted(listed + ["__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wavemotil, name) is getattr(module, name), name


def test_every_error_type_is_raised():
    # An error type nothing raises is dead weight in the hierarchy callers
    # and the CLI's exit-code map are written against.
    source = "".join(
        path.read_text() for path in Path(wavemotil.__file__).parent.glob("*.py")
    )
    for name in errors.__all__:
        cls = getattr(errors, name)
        if cls is errors.WavemotilError:
            continue
        assert issubclass(cls, errors.WavemotilError), name
        assert re.search(rf"raise {name}\b", source), f"nothing raises {name}"


def test_cli_import_loads_only_the_scipy_it_uses():
    # scipy.optimize, scipy.interpolate, scipy.special and scipy.signal cost
    # import time every command pays; the package needs none of them, and
    # nothing in it imports multiprocessing.
    env = dict(os.environ, PYTHONPATH=str(Path(wavemotil.__file__).parents[1]))
    probe = (
        "import sys, wavemotil.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate', "
        "'scipy.special', 'scipy.signal', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


# Each stage's configs are written by the probe, then run through cli.main
# in the one process: a 1-D simulate and a wave, then a small planar run.
_SPARSE_PROBE = """
import sys
from pathlib import Path
import wavemotil.cli as cli

def loaded():
    return "scipy.sparse" in sys.modules

def run(command, text, out):
    Path(out + ".cfg").write_text(text)
    assert cli.main([command, "--config", out + ".cfg", "--out", out]) == 0

seen = [loaded()]
run("simulate", "m=6\\na=0.1\\nb=0.1\\nx_min=0\\nx_max=10\\nh=0.1\\nic=front\\n"
    "ic_steepness=2\\nic_offset=3\\nt_end=1\\ncadence=1\\n", "sim1d")
run("wave", "a=0.1\\nb=60\\nm=6\\nc=0.88\\n", "wave")
seen.append(loaded())
run("simulate", "m=6\\na=0.1\\nb=0.1\\ndim=2\\nx_min=-2\\nx_max=2\\ny_min=-2\\n"
    "y_max=2\\nh=0.5\\nic=bump2d\\nic_base=0\\nic_amplitude=4\\nt_end=1\\ncadence=1\\n",
    "sim2d")
seen.append(loaded())
print(seen)
"""


def test_scipy_sparse_loads_only_for_a_planar_run(tmp_path):
    # Only the 2-D stepper needs scipy.sparse: importing the CLI, a 1-D
    # simulate and a wave leave it unloaded, and a planar run loads it.
    env = dict(os.environ, PYTHONPATH=str(Path(wavemotil.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _SPARSE_PROBE],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.strip() == "[False, False, True]"


def _imports_sparse(node) -> bool:
    """Whether an import statement loads scipy.sparse or a submodule of it."""
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.sparse") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("scipy.sparse") or (
            module == "scipy" and any(a.name == "sparse" for a in node.names)
        )
    return False


def _outside_functions(node):
    """Every node under ``node`` that runs on import: function bodies left out."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def test_one_dimensional_runs_stay_off_scipy_sparse_and_lapack_fits():
    # Stands in for a lint rule: scipy.sparse is imported only inside the
    # functions of the planar stepper, never with a module, and no line
    # fit goes through numpy's LAPACK (np.polyfit, np.linalg.lstsq); the
    # one fit is frontmetrics._line_fit.
    for path in sorted(Path(wavemotil.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _outside_functions(tree):
            assert not _imports_sparse(node), f"{path.name}:{node.lineno} imports scipy.sparse"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("polyfit", "lstsq"), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                assert not names & {"polyfit", "lstsq"}, f"{path.name}:{node.lineno}"


def test_no_percent_r_formatting_in_the_package():
    # Floats reach CSV text only through cli._fmt_value, which writes each
    # as its repr; a "%r" format would be a second, per-float path.
    for path in sorted(Path(wavemotil.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert "%r" not in node.value, f"{path.name}:{node.lineno}"


def _call_name(node) -> str | None:
    """The name a call's function is bound to: f(...) or obj.f(...)."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def _opens(func):
    """Each open() call in ``func`` with its path expression, a name
    assigned in ``func`` read as what was assigned to it."""
    assigned = {
        target.id: node.value
        for node in ast.walk(func)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for node in ast.walk(func):
        if _call_name(node) == "open" and node.args:
            target = node.args[0]
            yield node, assigned.get(getattr(target, "id", None), target)


def _mode(node) -> str:
    """The mode an open() call passes positionally, "r" if none."""
    return node.args[1].value if len(node.args) > 1 else "r"


def _functions():
    """Each function of the package with the file it is in."""
    for path in sorted(Path(wavemotil.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                yield path, func


def test_csv_tables_stream_to_binary_files():
    # A CSV table is written with no text layer encoding it again.  A CSV
    # file is an open() whose path names ".csv", directly or through a name
    # assigned in the same function, or one in a function named for CSV;
    # every one opened to write is opened in binary mode.
    csv_opens = 0
    for path, func in _functions():
        for node, target in _opens(func):
            if ".csv" not in ast.unparse(target) and "csv" not in func.name:
                continue
            if set(_mode(node)) & set("wax"):
                assert "b" in _mode(node), f"{path.name}:{node.lineno} writes CSV as text"
                csv_opens += 1
    # the CLI's _write_csv, which writes metrics.csv and speedscan.csv
    assert csv_opens == 1


def test_every_array_file_goes_through_the_one_array_writer():
    # Snapshots and the wave profile share one layout, a JSON header and
    # a float64 binary: every binary open() of a ".bin" path sits in
    # pde._write_arrays, and no second array or float-text writer exists.
    bin_opens = []
    for path, func in _functions():
        for node, target in _opens(func):
            if ".bin" in ast.unparse(target) and "b" in _mode(node):
                bin_opens.append((path.stem, func.name))
    assert bin_opens == [("pde", "_write_arrays")]
    package = Path(wavemotil.__file__).parent
    assert not list(package.glob("_floattext*"))
    assert importlib.util.find_spec("wavemotil._floattext") is None


def _exported(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_never_uses():
    # Stands in for a linter's unused-import rule.  __init__.py imports to
    # re-export; elsewhere a name listed in __all__ counts as used.
    for path in sorted(Path(wavemotil.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used - _exported(tree))
        assert not unused, f"{path.name} imports {unused} and never uses them"


def test_cli_measures_no_snapshot():
    # simulate measures each snapshot once and the CLI writes the rows; the
    # run-level fits (wave_speed, decay_fit) stay in the CLI.
    tree = ast.parse((Path(wavemotil.__file__).parent / "cli.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    measures = {"front_position", "classify_profile", "ring_metrics", "ring_radii"}
    assert not names & measures


def _is_json_write(node) -> bool:
    """Whether ``node`` is a call of ``json.dump`` or ``json.dumps``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and node.func.attr in ("dump", "dumps")
    )


def test_every_json_write_rejects_nan():
    # NaN and infinities are not JSON: each value that may be non-finite
    # is written as null before it reaches json, and allow_nan=False turns
    # any that slips through into an error instead of a bare NaN token.
    calls = 0
    for path in sorted(Path(wavemotil.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not _is_json_write(node):
                continue
            strict = [
                kw
                for kw in node.keywords
                if kw.arg == "allow_nan"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
            ]
            assert strict, f"{path.name}:{node.lineno} json.{node.func.attr} allows NaN"
            calls += 1
    assert calls == 2  # cli._write_json and the array headers of pde._write_arrays


def test_records_reach_json_only_through_the_cli_writer():
    # cli._write_json writes a report record field by field, so no record
    # lists its fields again in a to_dict, and only the array headers of
    # pde._write_arrays (snapshots, and wave.json, which the CLI hands over
    # as cli._json_tree made it) write JSON apart from it.
    writers = set()
    for path in sorted(Path(wavemotil.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ClassDef):
                    methods = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                    assert "to_dict" not in methods, f"{path.name}: {node.name}.to_dict"
                if _is_json_write(node):
                    writers.add((path.stem, getattr(top, "name", None)))
    assert writers == {("cli", "_write_json"), ("pde", "_write_arrays")}
