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
