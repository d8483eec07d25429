"""Batch command-line surface.

Subcommands:
    derive    derive the determining equations, audit the published set
    cases     enumerate the six material-family cases with verification
    verify    closure check, material residuals, invariance refinement study
    simulate  bare PDE solve with CSV export and a JSON metadata sidecar

Every command honors --seed, --out and --json; a JSON config file can
pre-populate any long option of the running command (explicit flags win).
Reports are byte-stable across runs; --seed is recorded in them and no
result depends on it.

Exit codes: 0 success; 2 usage error, bad value, unwritable output path or
derivation/verification failure, with a one-line message on stderr; 3 audit
rows outside {reproduced, implied} under --strict-audit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import reports
from .characteristics import (
    CASE_CONSTRAINTS, check_constants, constant_material_constraints,
    enumerate_cases, find_case, material_conditions, sampled_functions,
)
from .isovector import (
    audit_against_published, closure_check, extract_determining,
    DerivationError,
)
from .kernel import KernelError, to_text
from .model import Model
from .numerics import (
    DiffusionError, GridSpec, MaterialModel, TransformParams, compile_numeric,
    export_csv, invariance_residual, material_residual, max_interior_residual,
    solve_pde, SolverError,
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


def _finite(text):
    """A float flag that must be finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _positive_finite(text):
    """A float flag that must be positive and finite (a tolerance: NaN
    would pass every comparison against it)."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}")
    return value


def _boundary(text):
    """A --bc-left/--bc-right value: (the flag text, the solver's spec)."""
    if text == "zero_gradient":
        return text, ("zero_gradient",)
    kind, _, value = text.partition(":")
    try:
        if kind == "dirichlet" and math.isfinite(float(value)):
            return text, ("dirichlet", float(value))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad boundary spec {text!r} "
        "(zero_gradient or dirichlet:<finite value>)")


def _case_materials(case, a: dict, amplitude: float):
    """Numeric material callables for one case instance with G and F from
    `sampled_functions(amplitude)`.  Constants that violate a condition of
    the case or of its families are a ValueError.

    When a3 = 0 the generic compiled form of Gamma is indeterminate at
    t = 0; for F(x) = amplitude/(1+x^2) with a4 = 2*a2 the family member
    has the closed form amplitude/(a3 + a4 t + r^2), which is used directly.
    """
    check_constants(case, a)
    params = {**a, "C": amplitude}
    fns = sampled_functions(amplitude)
    d_fn = compile_numeric(case.diffusion.expression, params=params, fns=fns)
    if a["a3"] == 0.0:
        if abs(a["a4"] - 2 * a["a2"]) > 1e-12:
            raise ValueError(
                "a3 = 0 needs a4 = 2*a2 for the closed-form Gamma member")
        import numpy as np

        shift = a["a1"] / a["a2"]   # every Gamma family needs a2 != 0
        def g_fn(r, t):
            r = np.asarray(r, float) + shift
            t = np.asarray(t, float)
            return amplitude / (a["a3"] + a["a4"] * t + r * r) * np.ones(
                np.broadcast_shapes(r.shape, t.shape))
    else:
        g_fn = compile_numeric(case.gamma.expression, params=params, fns=fns)
    return MaterialModel(D=d_fn, Gamma=g_fn, v=1.0)


def _emit(args, command: str, body: dict) -> None:
    text = reports.write_report(args.out, command, body, args.seed)
    if args.json:
        sys.stdout.write(text)


def cmd_derive(args) -> int:
    model = Model()
    system = extract_determining(model, args.geometry)
    audit = audit_against_published(system, model)
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
    if audit.unknown_verdicts:
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
    results = enumerate_cases(model, tol=args.tol)
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
        params = TransformParams(args.eps, vars(args))
        a = params.a
        grid = GridSpec(args.r0, args.r1, args.t1, args.nr, args.nt,
                        geometry=0)
        case = find_case(model, args.case)
        material = _case_materials(case, a, args.amplitude)
        # the finite-difference floor of the material check needs a fine
        # step; decouple it from the (coarse) solver grid
        fd_grid = GridSpec(args.r0, args.r1, args.t1,
                           max(args.nr, 4096), max(args.nt, 4096), geometry=0)
        # every family satisfies the unconstrained conditions: under D_r = 0
        # this also checks that D has no r
        try:
            res = material_residual(material, material_conditions(model),
                                    params, fd_grid)
        except DiffusionError as exc:
            if a["a3"] != 0.0 or case.diffusion.xi is None:
                raise
            raise DiffusionError(
                f"{exc}: at a3 = 0 the similarity argument of case "
                f"{case.case_id} is infinite at t = 0, so D = G(xi) "
                "underflows to 0 near it; give --a3 other than 0") from None
        body["material_residuals"] = res
        if not args.json:
            print(f"# case {args.case} material residuals: "
                  f"D {res['res_D']:.3e}, Gamma {res['res_Gamma']:.3e} "
                  f"(tolerance {args.tol:g})")
        if max(res["res_D"], res["res_Gamma"]) > args.tol:
            failures.append("material residual exceeds tolerance")
        if args.invariance:
            import numpy as np

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
    csv_path = args.csv
    if args.out is not None and (
            os.path.realpath(args.out) == os.path.realpath(csv_path)):
        # the report would overwrite the field it describes
        raise ValueError(f"--out {args.out} names the CSV file {csv_path}")
    model = Model()
    table = model.table
    d_expr = parse(args.diffusion, table)
    g_expr = parse(args.gamma, table)
    fns = sampled_functions()
    material = MaterialModel(
        D=compile_numeric(d_expr, fns=fns),
        Gamma=compile_numeric(g_expr, fns=fns),
        v=args.speed,
    )
    grid = GridSpec(args.r0, args.r1, args.t1, args.nr, args.nt,
                    geometry=args.geometry)
    ic_expr = parse(args.initial, table)
    ic_fn = compile_numeric(ic_expr, args=("r",), fns=fns)
    (left, left_spec), (right, right_spec) = args.bc_left, args.bc_right
    field = solve_pde(grid, material, ic_fn, (left_spec, right_spec))
    # a field whose residual is not finite fails here, before any file
    residual_norm = max_interior_residual(field)
    export_csv(field, csv_path)
    body = {
        "grid": {"r0": grid.r0, "r1": grid.r1, "t1": grid.t1,
                 "n_r": grid.n_r, "n_t": grid.n_t, "geometry": grid.geometry},
        "material": {"D": args.diffusion, "Gamma": args.gamma,
                     "v": args.speed},
        "boundary": {"left": left, "right": right},
        "csv": csv_path,
        "residual_norm": residual_norm,
    }
    try:
        _emit(args, "simulate", body)
    except OSError:
        os.remove(csv_path)     # a simulate that fails leaves no CSV
        raise
    if not args.json:
        print(f"# wrote {csv_path} "
              f"({grid.n_t + 1} x {grid.n_r + 1} samples)")
    return 0


def _common_arguments(p):
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report; no result depends on it")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report to stdout")
    p.add_argument("--config", default=None,
                   help="JSON config merged under explicit flags")


def _derive_arguments(p):
    p.add_argument("--n", dest="geometry", type=_geometry,
                   choices=("symbolic", 0, 1, 2), default="symbolic",
                   help="geometry index: symbolic, 0, 1 or 2")
    p.add_argument("--strict-audit", action="store_true",
                   help="exit 3 when any audit row is not reproduced/implied")


def _cases_arguments(p):
    p.add_argument("--tol", type=_positive_finite, default=1e-10,
                   help="relative tolerance of the numeric back-substitution")
    p.add_argument("--case", choices=sorted(CASE_CONSTRAINTS), default=None)


def _verify_arguments(p):
    p.add_argument("--tol", type=_positive_finite, default=1e-6,
                   help="tolerance of the material residuals")
    p.add_argument("--closure", action="store_true")
    p.add_argument("--case", choices=sorted(CASE_CONSTRAINTS), default=None)
    p.add_argument("--invariance", action="store_true")
    p.add_argument("--a1", type=_finite, default=0.0)
    p.add_argument("--a2", type=_finite, default=1.0)
    p.add_argument("--a3", type=_finite, default=0.0)
    p.add_argument("--a4", type=_finite, default=2.0)
    p.add_argument("--a6", type=_finite, default=0.0)
    p.add_argument("--eps", type=_finite, default=0.02)
    p.add_argument("--amplitude", type=_finite, default=0.5,
                   help="scale of the sampled arbitrary functions")
    p.add_argument("--r0", type=_finite, default=0.5)
    p.add_argument("--r1", type=_finite, default=1.5)
    p.add_argument("--t1", type=_finite, default=1.0)
    p.add_argument("--nr", type=int, default=40)
    p.add_argument("--nt", type=int, default=40)
    p.add_argument("--refine", type=int, default=3)


def _simulate_arguments(p):
    p.add_argument("--n", dest="geometry", type=int, choices=(0, 1, 2),
                   default=0, help="geometry index 0, 1 or 2")
    p.add_argument("--D", dest="diffusion", default="1/2",
                   help="diffusion coefficient D(r, t) in the kernel grammar")
    p.add_argument("--Gamma", dest="gamma", default="0",
                   help="production coefficient Gamma(r, t)")
    p.add_argument("--v", dest="speed", type=_finite, default=1.0)
    p.add_argument("--initial", default="1 + r*0",
                   help="initial flux profile phi(r)")
    p.add_argument("--bc-left", type=_boundary, default="zero_gradient")
    p.add_argument("--bc-right", type=_boundary, default="zero_gradient")
    p.add_argument("--r0", type=_finite, default=0.0)
    p.add_argument("--r1", type=_finite, default=1.0)
    p.add_argument("--t1", type=_finite, default=1.0)
    p.add_argument("--nr", type=int, default=32)
    p.add_argument("--nt", type=int, default=32)
    p.add_argument("--csv", default="field.csv")


# command -> (its help line, the function adding its own arguments, its handler)
COMMANDS = {
    "derive": ("derive and audit the determining equations", _derive_arguments,
               cmd_derive),
    "cases": ("enumerate the six material-family cases", _cases_arguments,
              cmd_cases),
    "verify": ("closure, material and invariance checks", _verify_arguments,
               cmd_verify),
    "simulate": ("solve the diffusion equation, export CSV", _simulate_arguments,
                 cmd_simulate),
}


# argparse's pattern for a negative number, which it reads as a value, not
# an option, widened to exponent notation: --eps -1e-3
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The fluxsym parser.  Every command is listed, but only `command`
    gets its arguments (every command when None): argparse builds a help
    formatter for each argument it adds, which costs more than a short
    command's own work."""
    parser = argparse.ArgumentParser(
        prog="fluxsym",
        description="Translation/scaling symmetry analysis of the "
                    "time-dependent monoenergetic neutron diffusion equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        if command is None or command == name:
            _common_arguments(p)
            add_arguments(p)
    return parser


def _running_command(argv) -> str | None:
    """The command named in `argv`: its first word that is not an option
    (the top-level parser takes no option but --help)."""
    return next((word for word in argv if not word.startswith("-")), None)


def main(argv=None) -> int:
    """Run one command.  Argparse exits 2 on a usage error; a typed error
    raised by the command, or an OSError such as an unwritable --out or
    --csv path, is printed as one line and returns 2."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(_running_command(argv))
    args = parser.parse_args(argv)
    if args.config is not None:
        command = _subcommands(parser)[args.command]
        command.set_defaults(**_config_defaults(command, args.config))
        args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except (ParseError, KernelError, SolverError, DerivationError,
            ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
