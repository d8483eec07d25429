"""Output checks against references that do not come from fluxsym.

Each checker takes the files one op wrote ({name: bytes}) and returns a list
of problems; an empty list means the op's output is correct.

- derive_audit: the symbolic report is byte-identical to the golden file
  pinned below by its SHA-256; the n = 0 report has no geometry lock while
  n = 1 and n = 2 solve it as a1 = 0; the closure residual is identically
  zero; all 12 back-substitution verdicts are zero or numeric-only.
- numerics, the invariance study: the last refinement ratio is 4 +/- 30%,
  the rate that second-order differencing predicts; the case B material
  residuals are below the CLI's default tolerance 1e-6.
- numerics, the simulation: the CSV holds the 257 x 257 grid in time-major
  order and every phi is within 1e-8 relative of the exact solution
  exp(t/10).

`self_test` feeds each checker a corrupted copy of a good output and
reports any corruption it failed to reject.
"""

from __future__ import annotations

import hashlib
import io
import json
import re

import numpy as np

from workloads import CSV_NAME

# SHA-256 of tests/golden/derive_symbolic.json (seed 0).
GOLDEN_SHA256 = "20666ae208b58220c2e9b60d9d1ddf7a51445cea94117ce0e4807f3a4b8ffd0c"
_SEED_LINE = re.compile(rb'^  "seed": -?\d+(,?)$', re.MULTILINE)

RATIO_BAND = (4 * 0.7, 4 * 1.3)
MATERIAL_TOL = 1e-6
CSV_N = 256
CSV_RTOL = 1e-8


def _json(files, name, problems):
    try:
        return json.loads(files[name])
    except (KeyError, ValueError) as exc:
        problems.append(f"{name}: unreadable report ({exc!r})")
        return None


def check_derive_audit(files: dict) -> list:
    problems = []
    # The report records the seed it ran with; the golden was made with 0.
    symbolic = _SEED_LINE.sub(rb'  "seed": 0\1', files.get("derive_symbolic.json", b""), count=1)
    if hashlib.sha256(symbolic).hexdigest() != GOLDEN_SHA256:
        problems.append("derive_symbolic.json differs from the golden report")
    for name, lock in (("derive_n0.json", None), ("derive_n1.json", "a1 = 0"),
                       ("derive_n2.json", "a1 = 0")):
        report = _json(files, name, problems)
        if report is None:
            continue
        system = report["determining_system"]
        solved = [c["solved"] for c in system["constraints"]
                  if c["name"] == "geometry_lock"]
        if lock is None:
            if solved or system["material_conditions"]["geometry_lock"] is not None:
                problems.append(f"{name}: planar geometry has a geometry lock")
        elif solved != [lock]:
            problems.append(f"{name}: geometry lock solved as {solved}, not {lock!r}")
    closure = _json(files, "verify_closure.json", problems)
    if closure is not None and not (closure["closure"]["identically_zero"] is True
                                    and closure["closure"]["residual"]["text"] == "0"):
        problems.append("verify_closure.json: closure residual is not identically zero")
    cases = _json(files, "cases.json", problems)
    if cases is not None:
        verdicts = [c[side]["back_substitution"]["verdict"]
                    for c in cases["cases"] for side in ("D", "Gamma")]
        if len(verdicts) != 12 or not set(verdicts) <= {"zero", "numeric-only"}:
            problems.append(f"cases.json: back-substitution verdicts {verdicts}")
    return problems


def check_invariance_study(files: dict) -> list:
    problems = []
    report = _json(files, "verify_D.json", problems)
    if report is not None:
        ratios = report["invariance"]["ratios"]
        if not ratios or not RATIO_BAND[0] <= ratios[-1] <= RATIO_BAND[1]:
            problems.append(f"verify_D.json: refinement ratios {ratios} end outside 4 +/- 30%")
    report = _json(files, "verify_B.json", problems)
    if report is not None:
        res = report["material_residuals"]
        if not max(res["res_D"], res["res_Gamma"]) <= MATERIAL_TOL:
            problems.append(f"verify_B.json: material residuals {res} above {MATERIAL_TOL}")
    return problems


def check_simulate_export(files: dict) -> list:
    problems = []
    _json(files, "simulate.json", problems)
    data = files.get(CSV_NAME, b"")
    header, _, body = data.partition(b"\n")
    if header != b"r,t,phi":
        return problems + [f"{CSV_NAME}: header {header[:40]!r}"]
    try:
        table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        return problems + [f"{CSV_NAME}: unparsable ({exc})"]
    n = CSV_N + 1
    if table.shape != (n * n, 3):
        return problems + [f"{CSV_NAME}: {table.shape[0]} rows, expected {n * n}"]
    nodes = np.arange(n) / CSV_N
    r_ref = np.tile(nodes, n)
    t_ref = np.repeat(nodes, n)
    if (np.max(np.abs(table[:, 0] - r_ref)) > 1e-12
            or np.max(np.abs(table[:, 1] - t_ref)) > 1e-12):
        problems.append(f"{CSV_NAME}: rows are not the {n} x {n} grid in time-major order")
    exact = np.exp(t_ref / 10)
    worst = float(np.max(np.abs(table[:, 2] - exact) / exact))
    if not worst <= CSV_RTOL:
        problems.append(f"{CSV_NAME}: phi off exp(t/10) by {worst:.3e} relative")
    return problems


CHECKERS = {
    "derive_audit": check_derive_audit,
    "numerics": lambda files: check_invariance_study(files) + check_simulate_export(files),
}


def _corruptions(workload: str, files: dict):
    """(description, corrupted files) pairs built from good `files`."""
    if workload == "derive_audit":
        data = bytearray(files["derive_symbolic.json"])
        data[len(data) // 2] ^= 0x01
        yield "one flipped byte in the symbolic report", {**files, "derive_symbolic.json": bytes(data)}
    else:
        for factor in (1.35, 0.65):
            report = json.loads(files["verify_D.json"])
            report["invariance"]["ratios"][-1] = 4 * factor
            yield (f"last refinement ratio {4 * factor:g}",
                   {**files, "verify_D.json": json.dumps(report).encode()})
        data = files[CSV_NAME]
        # perturb the phi of a row in the middle of the file
        start = data.index(b"\n", len(data) // 2) + 1
        end = data.index(b"\n", start)
        r, t, phi = data[start:end].split(b",")
        bad = repr(float(phi) * (1 + 1e-6)).encode()
        yield ("one phi perturbed by 1e-6 relative",
               {**files, CSV_NAME: data[:start] + b",".join((r, t, bad)) + data[end:]})


def self_test(workload: str, files: dict) -> list:
    """Corruptions of a good output that the workload's checker accepted."""
    check = CHECKERS[workload]
    return [f"checker accepted {what}" for what, bad in _corruptions(workload, files)
            if not check(bad)]
