"""Batch command-line surface.

Subcommands:
    derive    derive the determining equations, audit the published set
    cases     enumerate the six material-family cases with verification
    verify    closure check, material residuals, invariance refinement study
    simulate  bare PDE solve with CSV export and a JSON metadata sidecar

Every command honors --seed, --out and --json; a JSON config file can
pre-populate any long option of the running command (explicit flags win).
Reports are byte-stable across runs for a fixed seed.

Exit codes: 0 success; 2 usage error, bad value, unwritable output path or
derivation/verification failure, with a one-line message on stderr; 3 audit
rows outside {reproduced, implied} under --strict-audit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import reports
from .characteristics import (
    CASE_CONSTRAINTS, constant_material_constraints, enumerate_cases,
)
from .isovector import (
    audit_against_published, closure_check, extract_determining,
    DerivationError,
)
from .kernel import KernelError, to_text
from .model import Model
from .numerics import (
    GridSpec, MaterialModel, TransformParams, compile_numeric,
    DEFAULT_SAMPLED_FNS, export_csv, invariance_residual, material_residual,
    max_interior_residual, sampled_functions, solve_pde, SolverError,
)
from .parser import ParseError, parse


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """{command name: its parser}."""
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _config_defaults(command: argparse.ArgumentParser, path) -> dict:
    """The --config file read as defaults of the running `command`.

    The file holds a JSON object whose keys are option destinations of this
    command.  A missing or unreadable file, a key the command lacks and a
    value its flag would refuse are usage errors (exit 2).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        command.error(f"--config {path}: {exc}")
    if not isinstance(data, dict):
        command.error("config file must hold a JSON object")
    actions = {a.dest: a for a in command._actions
               if a.dest not in ("help", "config")}
    unknown = set(data) - set(actions)
    if unknown:
        command.error(f"unknown config keys: {sorted(unknown)}")
    return {key: _config_value(command, actions[key], value)
            for key, value in data.items()}


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action,
                  value):
    """A config value checked by argparse's own `type` and `choices` checks
    of its flag; a usage error (exit 2) otherwise.  Switches take a JSON
    boolean, options a string or number, read as the text of the flag's
    argument."""
    what = f"config {action.dest!r} for {action.option_strings[-1]}"
    if action.nargs == 0:
        if not isinstance(value, bool):
            parser.error(f"{what}: expected true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        parser.error(f"{what}: expected a string or a number, got {value!r}")
    try:
        value = parser._get_value(action, str(value))
        parser._check_value(action, value)
    except argparse.ArgumentError as exc:
        parser.error(f"{what}: {exc.message}")
    return value


def _geometry(text):
    """--n of derive: "symbolic" or an integer index; `choices` checks it."""
    return int(text) if text.isdecimal() else text


def _boundary(text):
    """A --bc-left/--bc-right value: (the flag text, the solver's spec)."""
    if text == "zero_gradient":
        return text, ("zero_gradient",)
    kind, _, value = text.partition(":")
    try:
        if kind == "dirichlet":
            return text, ("dirichlet", float(value))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad boundary spec {text!r} (zero_gradient or dirichlet:<value>)")


def _a_values(args) -> dict:
    a = {f"a{i}": 0.0 for i in range(1, 9)}
    for name in ("a1", "a2", "a3", "a4", "a6"):
        a[name] = float(getattr(args, name))
    a["a8"] = a["a6"] - a["a2"]
    return a


def _case_materials(case_id: str, a: dict, amplitude: float, model: Model):
    """Numeric material callables for one case instance with the sampled
    functions G(x)=exp(-x^2) and F(x)=amplitude/(1+x^2).

    When a3 = 0 the generic compiled form of Gamma is indeterminate at
    t = 0; for the F above with a4 = 2*a2 the family member has the closed
    form amplitude/(a3 + a4 t + r^2), which is used directly.
    """
    cases = {c.case_id: c for c in enumerate_cases(model, verify=False)}
    case = cases[case_id]
    params = {k: v for k, v in a.items()}
    params["C"] = amplitude
    fns = sampled_functions(amplitude)
    d_fn = compile_numeric(case.diffusion.expression, params=params, fns=fns)
    if a["a3"] == 0.0:
        if abs(a["a4"] - 2 * a["a2"]) > 1e-12:
            raise ValueError(
                "a3 = 0 needs a4 = 2*a2 for the closed-form Gamma member")
        shift = a["a1"] / a["a2"] if a["a1"] else 0.0
        def g_fn(r, t):
            r = np.asarray(r, float) + shift
            t = np.asarray(t, float)
            return amplitude / (a["a3"] + a["a4"] * t + r * r) * np.ones(
                np.broadcast_shapes(r.shape, t.shape))
    else:
        g_fn = compile_numeric(case.gamma.expression, params=params, fns=fns)
    return MaterialModel(D=d_fn, Gamma=g_fn, v=1.0), case


def _emit(args, command: str, body: dict) -> None:
    text = reports.write_report(args.out, command, body, args.seed)
    if args.json:
        sys.stdout.write(text)


def cmd_derive(args) -> int:
    model = Model()
    system = extract_determining(model, args.geometry, seed=args.seed)
    audit = audit_against_published(system, model, seed=args.seed)
    body = {
        "determining_system": reports.determining_system_payload(system),
        "audit": reports.audit_payload(audit),
    }
    _emit(args, "derive", body)
    if not args.json:
        print(f"# determining equations (geometry: {args.geometry})")
        for c in system.constraints:
            note = f"   [{c.assumption}]" if c.assumption else ""
            print(f"- {c.solved}{note}")
        print(f"- D condition: {to_text(system.diffusion_pde_reduced)} = 0")
        print(f"- Gamma condition: {to_text(system.gamma_pde)} = 0")
        print("\n# audit")
        for row in audit.rows:
            print(f"- {row.identifier}: {row.status}" +
                  (f" ({row.note})" if row.note else ""))
    if audit.unknown_verdicts or system.unknown_verdicts:
        print("unknown zero-verdicts present", file=sys.stderr)
        return 2
    if args.strict_audit:
        bad = [r for r in audit.rows
               if r.status not in ("reproduced", "implied")]
        if bad:
            for row in bad:
                print(f"strict audit: {row.identifier} is {row.status}: "
                      f"{row.note}", file=sys.stderr)
            return 3
    return 0


def cmd_cases(args) -> int:
    model = Model()
    results = enumerate_cases(model, seed=args.seed, tol=args.tol)
    if args.case:
        results = [c for c in results if c.case_id == args.case]
    body = {"cases": [reports.case_payload(c) for c in results]}
    _emit(args, "cases", body)
    failed = False
    for c in results:
        ok = all(chk.verdict in ("zero", "numeric-only")
                 for chk in (c.diffusion_check, c.gamma_check))
        failed |= not ok
        if not args.json:
            print(f"# case {c.case_id}  constraints: {', '.join(c.constraints)}"
                  + (f"  (same family as {c.coincides_with})"
                     if c.coincides_with else ""))
            print(f"  D     = {to_text(c.diffusion.expression)}")
            print(f"  Gamma = {to_text(c.gamma.expression)}")
            print(f"  back-substitution: D {c.diffusion_check.verdict}, "
                  f"Gamma {c.gamma_check.verdict}")
            for note in c.notes:
                print(f"  note: {note}")
    return 2 if failed else 0


def cmd_verify(args) -> int:
    if args.invariance and not args.case:
        raise ValueError("--invariance needs --case")
    model = Model()
    body = {}
    failures = []
    if args.closure:
        result = closure_check(model)
        body["closure"] = reports.closure_payload(result)
        if not args.json:
            state = ("identically satisfied" if result.identically_zero
                     else f"RESIDUAL {to_text(result.residual)}")
            print(f"# closure: {state}")
        if not result.identically_zero:
            failures.append("closure residual nonzero")
    if args.case:
        a = _a_values(args)
        grid = GridSpec(args.r0, args.r1, args.t1, args.nr, args.nt,
                        geometry=0)
        material, _ = _case_materials(args.case, a, args.amplitude, model)
        params = TransformParams(args.eps, a)
        # the finite-difference floor of the material check needs a fine
        # step; decouple it from the (coarse) solver grid
        fd_grid = GridSpec(args.r0, args.r1, args.t1,
                           max(args.nr, 4096), max(args.nt, 4096), geometry=0)
        res = material_residual(material, params, fd_grid)
        body["material_residuals"] = res
        if not args.json:
            print(f"# case {args.case} material residuals: "
                  f"D {res['res_D']:.3e}, Gamma {res['res_Gamma']:.3e} "
                  f"(tolerance {args.tol:g})")
        if max(res["res_D"], res["res_Gamma"]) > args.tol:
            failures.append("material residual exceeds tolerance")
        if args.invariance:
            ic = lambda r: 1.0 + np.cos(
                math.pi * (r - args.r0) / (args.r1 - args.r0))
            bc = (("zero_gradient",), ("zero_gradient",))
            report = invariance_residual(grid, material, params, ic, bc,
                                         refinements=args.refine + 1)
            body["invariance"] = reports.invariance_payload(report)
            if not args.json:
                print("# invariance refinement study")
                for lvl, res_l in zip(report.levels, report.residuals):
                    print(f"  grid {lvl[0]}x{lvl[1]}: residual {res_l:.3e}")
                print("  ratios: " +
                      ", ".join(f"{x:.2f}" for x in report.ratios))
            if not report.ratios:
                failures.append("invariance study yields no ratio "
                                "(--refine must be at least 1)")
            elif not (2.8 <= report.ratios[-1] <= 5.2):
                failures.append(
                    f"invariance ratio {report.ratios[-1]:.2f} outside 4 +/- 30%")
    body["constant_materials"] = constant_material_constraints(model)
    _emit(args, "verify", body)
    for f in failures:
        print(f"verify: {f}", file=sys.stderr)
    return 2 if failures else 0


def cmd_simulate(args) -> int:
    model = Model()
    table = model.table
    d_expr = parse(args.diffusion, table)
    g_expr = parse(args.gamma, table)
    material = MaterialModel(
        D=compile_numeric(d_expr, fns=DEFAULT_SAMPLED_FNS),
        Gamma=compile_numeric(g_expr, fns=DEFAULT_SAMPLED_FNS),
        v=args.speed,
    )
    grid = GridSpec(args.r0, args.r1, args.t1, args.nr, args.nt,
                    geometry=args.geometry)
    ic_expr = parse(args.initial, table)
    ic_fn = compile_numeric(ic_expr, args=("r",), fns=DEFAULT_SAMPLED_FNS)
    (left, left_spec), (right, right_spec) = args.bc_left, args.bc_right
    field = solve_pde(grid, material, ic_fn, (left_spec, right_spec))
    csv_path = args.csv or "field.csv"
    export_csv(field, csv_path)
    body = {
        "grid": {"r0": grid.r0, "r1": grid.r1, "t1": grid.t1,
                 "n_r": grid.n_r, "n_t": grid.n_t, "geometry": grid.geometry},
        "material": {"D": args.diffusion, "Gamma": args.gamma,
                     "v": args.speed},
        "boundary": {"left": left, "right": right},
        "csv": csv_path,
        "residual_norm": max_interior_residual(field),
    }
    _emit(args, "simulate", body)
    if not args.json:
        print(f"# wrote {csv_path} "
              f"({grid.n_t + 1} x {grid.n_r + 1} samples)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxsym",
        description="Translation/scaling symmetry analysis of the "
                    "time-dependent monoenergetic neutron diffusion equation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--json", action="store_true",
                       help="print the JSON report to stdout")
        p.add_argument("--config", default=None,
                       help="JSON config merged under explicit flags")

    p = sub.add_parser("derive", help="derive and audit the determining equations")
    common(p)
    p.add_argument("--n", dest="geometry", type=_geometry,
                   choices=("symbolic", 0, 1, 2), default="symbolic",
                   help="geometry index: symbolic, 0, 1 or 2")
    p.add_argument("--strict-audit", action="store_true",
                   help="exit 3 when any audit row is not reproduced/implied")

    p = sub.add_parser("cases", help="enumerate the six material-family cases")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="relative tolerance of the numeric back-substitution")
    p.add_argument("--case", choices=sorted(CASE_CONSTRAINTS), default=None)

    p = sub.add_parser("verify", help="closure, material and invariance checks")
    common(p)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="tolerance of the material residuals")
    p.add_argument("--closure", action="store_true")
    p.add_argument("--case", choices=sorted(CASE_CONSTRAINTS), default=None)
    p.add_argument("--invariance", action="store_true")
    p.add_argument("--a1", type=float, default=0.0)
    p.add_argument("--a2", type=float, default=1.0)
    p.add_argument("--a3", type=float, default=0.0)
    p.add_argument("--a4", type=float, default=2.0)
    p.add_argument("--a6", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--amplitude", type=float, default=0.5,
                   help="scale of the sampled arbitrary functions")
    p.add_argument("--r0", type=float, default=0.5)
    p.add_argument("--r1", type=float, default=1.5)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--nr", type=int, default=40)
    p.add_argument("--nt", type=int, default=40)
    p.add_argument("--refine", type=int, default=3)

    p = sub.add_parser("simulate", help="solve the diffusion equation, export CSV")
    common(p)
    p.add_argument("--n", dest="geometry", type=int, choices=(0, 1, 2),
                   default=0, help="geometry index 0, 1 or 2")
    p.add_argument("--D", dest="diffusion", default="1/2",
                   help="diffusion coefficient D(r, t) in the kernel grammar")
    p.add_argument("--Gamma", dest="gamma", default="0",
                   help="production coefficient Gamma(r, t)")
    p.add_argument("--v", dest="speed", type=float, default=1.0)
    p.add_argument("--initial", default="1 + r*0",
                   help="initial flux profile phi(r)")
    p.add_argument("--bc-left", type=_boundary, default="zero_gradient")
    p.add_argument("--bc-right", type=_boundary, default="zero_gradient")
    p.add_argument("--r0", type=float, default=0.0)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--nr", type=int, default=32)
    p.add_argument("--nt", type=int, default=32)
    p.add_argument("--csv", default=None)

    return parser


def main(argv=None) -> int:
    """Run one command.  Argparse exits 2 on a usage error; a typed error
    raised by the command, or an OSError such as an unwritable --out or
    --csv path, is printed as one line and returns 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        command = _subcommands(parser)[args.command]
        command.set_defaults(**_config_defaults(command, args.config))
        args = parser.parse_args(argv)
    handlers = {
        "derive": cmd_derive,
        "cases": cmd_cases,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, KernelError, SolverError, DerivationError,
            ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
