"""The benchmark workloads.

One op of a workload is a fixed list of fluxsym CLI commands, each given as
the argv that `fluxsym.cli.main` (or a fresh `python -m fluxsym.cli`) takes.
Every command writes its JSON report (and `simulate` its CSV) into the
run's output directory, so the checkers in `checks.py` can read what the op
produced.
"""

from __future__ import annotations

import os

# workload -> (command label, argv without --seed/--out); the label names the
# report file <label>.json.
_OPS = {
    # Pure symbolic pipeline: kernel, parser (audit rows), forms, isovector,
    # characteristics.  No PDE solve.
    "derive_audit": (
        ("derive_symbolic", ["derive", "--n", "symbolic"]),
        ("derive_n0", ["derive", "--n", "0"]),
        ("derive_n1", ["derive", "--n", "1"]),
        ("derive_n2", ["derive", "--n", "2"]),
        ("verify_closure", ["verify", "--closure"]),
        ("cases", ["cases"]),
    ),
    # All of the numerics.  The invariance study is the read side: 5 solves,
    # 5 spline transforms and 9 discrete residuals on grids from 40^2 to
    # 320^2, nothing bulky written.  The simulation is the write path: one
    # 256x256 solve exported as a 2.5 MB CSV; zero-gradient edges make its
    # exact solution phi = exp(t/10).  The grids are smaller than the
    # refine-4, 512x512 ones first tried, whose ops_per_s spread further
    # between runs (README.md).
    "numerics": (
        ("verify_D", ["verify", "--case", "D", "--invariance",
                      "--eps", "0.02", "--refine", "3"]),
        ("verify_B", ["verify", "--case", "B", "--a2", "1", "--a3", "1",
                      "--a4", "2", "--r0", "0", "--r1", "1",
                      "--amplitude", "1"]),
        ("simulate", ["simulate", "--n", "2", "--D", "1/2",
                      "--Gamma", "1/10", "--initial", "1 + r*0",
                      "--bc-left", "zero_gradient",
                      "--bc-right", "zero_gradient",
                      "--nr", "256", "--nt", "256"]),
    ),
}

CSV_NAME = "field.csv"

WORKLOADS = tuple(_OPS)


def commands(workload: str, out_dir: str, seed: int) -> list:
    """[(label, argv, files written)] for one op of `workload`, writing into
    `out_dir`."""
    ops = []
    for label, argv in _OPS[workload]:
        files = [label + ".json"]
        argv = argv + ["--seed", str(seed), "--out", os.path.join(out_dir, files[0])]
        if argv[0] == "simulate":
            files.append(CSV_NAME)
            argv += ["--csv", os.path.join(out_dir, CSV_NAME)]
        ops.append((label, argv, files))
    return ops
