import ast
import os
import subprocess
import sys
from pathlib import Path

import fluxsym

PACKAGE = Path(fluxsym.__file__).parent


def _kernel_private_imports(path: Path) -> list:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.ImportFrom)
                and node.module in ("kernel", "fluxsym.kernel")):
            names += [a.name for a in node.names if a.name.startswith("_")]
    return names


def _package_imports(path: Path) -> set:
    """The fluxsym modules that `path` imports, by their short names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("fluxsym")):
            module = (node.module or "").removeprefix("fluxsym").lstrip(".")
            names.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(a.name.removeprefix("fluxsym.") for a in node.names
                         if a.name.startswith("fluxsym."))
    return names


def test_only_the_kernel_knows_its_private_helpers():
    # the polynomial representation is the kernel's own: no other module
    # may import a _-prefixed kernel name
    offenders = {path.name: _kernel_private_imports(path)
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "kernel.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_only_the_cli_imports_numerics():
    # the symbolic layer samples G and F itself: numerics serves the
    # commands that solve, and only the cli reaches it
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "numerics" in _package_imports(path)]
    assert importers == ["cli.py"]


def test_the_cli_imports_without_scipy():
    # scipy is imported where the solver and the spline need it, so the
    # symbolic commands do not pay for its import
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, fluxsym.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_module_loads_numpy_at_import():
    # numpy serves the solver and the sampled functions, and numerics,
    # characteristics and the cli import it inside the functions that use
    # it: importing any module, the cli included, leaves it unloaded
    modules = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if path.stem != "__init__")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('fluxsym.' + name)\n"
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_no_module_loads_dataclasses_at_import():
    # records are NamedTuples and kernel nodes slotted classes, so importing
    # any module, the cli included, leaves dataclasses (and the inspect it
    # imports) unloaded: a cold command does not pay for either
    modules = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if path.stem != "__init__")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('fluxsym.' + name)\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False False"


def test_the_symbolic_commands_run_without_numpy(tmp_path):
    # derive, cases and verify --closure load neither numpy nor scipy; a
    # verify --case in the same process does, so the command decides
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = str(tmp_path / "report.json")
    code = ("import sys\n"
            "from fluxsym.cli import main\n"
            "def loaded():\n"
            "    return ('numpy' in sys.modules, 'scipy' in sys.modules)\n"
            "for argv in (['derive', '--n', 'symbolic'], ['cases'],\n"
            "             ['verify', '--closure'],\n"
            "             ['verify', '--case', 'B', '--a2', '1', '--a3', '1',\n"
            "              '--a4', '2', '--r0', '0', '--r1', '1']):\n"
            f"    code = main(argv + ['--out', {out!r}])\n"
            "    print(argv[0], code, *loaded(), file=sys.stderr)\n")
    err = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stderr
    assert err.splitlines() == ["derive 0 False False", "cases 0 False False",
                                "verify 0 False False", "verify 0 True False"]
