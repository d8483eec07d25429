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


def test_only_the_kernel_knows_its_private_helpers():
    # the polynomial representation is the kernel's own: no other module
    # may import a _-prefixed kernel name
    offenders = {path.name: _kernel_private_imports(path)
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "kernel.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_the_cli_imports_without_scipy():
    # scipy is imported where the solver and the spline need it, so the
    # symbolic commands do not pay for its import
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, fluxsym.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_only_the_cli_and_numerics_load_numpy():
    # numpy serves the solver and the sampled functions: no symbolic module
    # and not reports imports it (importing any module imports the package)
    modules = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if path.stem not in ("__init__", "cli", "numerics"))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('fluxsym.' + name)\n"
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
