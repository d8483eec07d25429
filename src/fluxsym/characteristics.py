"""Closed-form material families from the first-order determining conditions.

Each condition is a quasi-linear PDE  c_r f_r + c_t f_t = growth * f  with
affine c_r, c_t.  The characteristic curves reduce it to an ODE; the
general solution is a power of the time factor times an arbitrary function
of the invariant combination of r and t.  Six constraint combinations
(planar geometry, no space translation, gradient-free diffusion) give the
six material-family cases; every returned form is verified by symbolic
back-substitution and can be re-verified numerically.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import published
from .kernel import (
    Add, Call, EvaluationError, Expr, Mul, ONE, Rat, ZERO, ZeroVerdict,
    affine_coefficients, differentiate, evaluate, is_zero, normalize,
    sign_normalize, to_text,
)
from .model import Model


class UnsupportedBranchError(Exception):
    """The coefficient degeneracy is outside the implemented solution families."""


class QuasiLinearPDE(NamedTuple):
    """c_r f_r + c_t f_t = growth * f for the function symbol `func`."""
    func: str
    c_r: Expr
    c_t: Expr
    growth: Expr

    def residual(self, f: Expr, model: Model) -> Expr:
        table = model.table
        f_r = differentiate(f, "r", table)
        f_t = differentiate(f, "t", table)
        return normalize(Add((
            Mul((self.c_r, f_r)),
            Mul((self.c_t, f_t)),
            Mul((Rat(-1), self.growth, f)),
        )))


def material_condition(model: Model, func: str, constraints=()) -> QuasiLinearPDE:
    """The first-order condition on func (D or Gamma) under a case's
    constraints: c_r = a1 + a2 r (a2 r under a1 = 0, 0 under func_r = 0),
    c_t = a3 + a4 t, and growth 2 a2 - a4 for D, -a4 for Gamma."""
    m = model
    if f"{func}_r = 0" in constraints:
        c_r = ZERO
    else:
        c_r = m.a2 * m.r if "a1 = 0" in constraints else m.a1 + m.a2 * m.r
    growth = 2 * m.a2 - m.a4 if func == "D" else -m.a4
    return QuasiLinearPDE(func, normalize(c_r), normalize(m.a3 + m.a4 * m.t),
                          normalize(growth))


def material_conditions(model: Model, constraints=()) -> tuple:
    """The (D, Gamma) pair of `material_condition`s under `constraints`;
    with none, the conditions every material family must satisfy."""
    return tuple(material_condition(model, func, constraints)
                 for func in ("D", "Gamma"))


class MaterialSolution(NamedTuple):
    func: str                  # the constrained function symbol (D or Gamma)
    expression: Expr
    xi: Expr | None            # similarity argument, None for space-free forms
    symbol: str                # arbitrary-function or arbitrary-constant used
    conditions: tuple          # non-degeneracy requirements, e.g. "a2 != 0"
    branch: str = "generic"    # "generic" | "gradient-free" | "extension"


def solve_characteristics(pde: QuasiLinearPDE, model: Model) -> MaterialSolution:
    """General solution of the quasi-linear condition.

    Along a characteristic dr/c_r = dt/c_t the condition reads
    df = growth f dt/c_t.  With the time factor E(k) = exp(k integral dt/c_t),
    that is (a3 + a4 t)^(k/a4), or exp(k t/a3) when a4 = 0, every family is
    E(growth) times an arbitrary function H of an invariant xi of the
    characteristics (H is G for D and F for Gamma), or times a constant C
    when c_r = 0:

        f = E(growth) * H(xi)      (f = C * E(growth) when c_r = 0)
        xi = (r + a1/a2) * E(-a2)            a2 != 0
        xi = r - a1 t/a3                     a2 = 0, a4 = 0
        xi = exp(a4 r/a1) * E(-a4)           a2 = 0, a4 != 0

    (the last is 1/((a3 + a4 t) exp(-a4 r/a1)): the normal form does not
    cancel a3 + a4 t against its powers).  The generic branch has a2 != 0
    and a4 != 0 (`gradient-free` when c_r = 0); a vanishing a2 or a4 is an
    `extension` that needs a1 != 0 or a3 != 0.
    """
    m = model
    symbol = "G" if pde.func == "D" else "F"

    r_pair = affine_coefficients(pde.c_r, "r")
    t_pair = affine_coefficients(pde.c_t, "t")
    if r_pair is None or t_pair is None:
        raise UnsupportedBranchError("coefficients are not affine in r, t")
    b_r, m_r = r_pair      # c_r = b_r + m_r * r
    b_t, m_t = t_pair      # c_t = b_t + m_t * t
    if pde.c_t == ZERO:
        raise UnsupportedBranchError("vanishing pivot: c_t = 0")

    def time_factor(k):
        if normalize(k) == ZERO:
            return ONE
        if m_t != ZERO:
            return pde.c_t ** (k / m_t)
        return Call("exp", (k * m.t / b_t,))

    a4_test = ("a4 != 0",) if m_t != ZERO else ("a4 = 0", "a3 != 0")
    if pde.c_r == ZERO:
        return MaterialSolution(
            pde.func, normalize(m.C * time_factor(pde.growth)), None, "C",
            a4_test, "gradient-free" if m_t != ZERO else "extension")
    a2_test = ("a2 != 0",) if m_r != ZERO else ("a2 = 0", "a1 != 0")
    if m_r != ZERO:
        xi = (m.r + b_r / m_r) * time_factor(-m_r)
    elif m_t == ZERO:
        xi = m.r - b_r * m.t / b_t
    else:
        xi = Call("exp", (m_t * m.r / b_r,)) * time_factor(-m_t)
    xi = normalize(xi)
    return MaterialSolution(
        pde.func, normalize(time_factor(pde.growth) * Call(symbol, (xi,))),
        xi, symbol, a2_test + a4_test,
        "generic" if m_r != ZERO and m_t != ZERO else "extension")


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

def sampled_functions(amplitude: float = 1.0) -> dict:
    """Vectorized samples of the arbitrary functions and their derivative
    symbols: G(x) = exp(-x^2) and F(x) = amplitude/(1 + x^2)."""
    import numpy as np

    return {
        "G": lambda x: np.exp(-x * x),
        "G'": lambda x: -2 * x * np.exp(-x * x),
        "F": lambda x: amplitude / (1.0 + x * x),
        "F'": lambda x: -2 * amplitude * x / (1.0 + x * x) ** 2,
    }


_NUMERIC_POINTS = 1000


class BackSubstitution(NamedTuple):
    verdict: str               # "zero" | "numeric-only" | "nonzero" | "unknown"
    max_residual: float = 0.0
    evaluated: int = 0         # sample points the numeric check evaluated


def back_substitute(sol: MaterialSolution, pde: QuasiLinearPDE, model: Model,
                    tol: float = 1e-10) -> BackSubstitution:
    """Substitute the closed form into its condition.

    Symbolic first: the chain rule runs through the arbitrary-function
    derivative symbol and the residual must normalize to zero.  If the
    normal form is inconclusive the verdict downgrades to a numeric check
    at _NUMERIC_POINTS random points from random.Random(0), with G and F
    sampled by `sampled_functions`.  The verdict is 'unknown' when fewer
    than half of the points evaluate.
    """
    residual = pde.residual(sol.expression, model)
    if residual == ZERO:
        return BackSubstitution("zero")
    verdict = is_zero(residual)
    if verdict == ZeroVerdict.NONZERO:
        return BackSubstitution("nonzero", float("inf"))
    fns = sampled_functions()
    rng = random.Random(0)
    worst = 0.0
    evaluated = 0
    for _ in range(_NUMERIC_POINTS):
        point = {name: rng.uniform(0.25, 2.0) for name in
                 ("a1", "a2", "a3", "a4", "r", "t", "C")}
        try:
            val = evaluate(residual, point, fns)
            scale = abs(evaluate(sol.expression, point, fns)) + 1.0
        except (EvaluationError, ZeroDivisionError, OverflowError):
            continue
        evaluated += 1
        worst = max(worst, abs(val) / scale)
    if evaluated == 0 or 2 * evaluated < _NUMERIC_POINTS:
        return BackSubstitution("unknown", worst, evaluated)
    if worst <= tol:
        return BackSubstitution("numeric-only", worst, evaluated)
    return BackSubstitution("nonzero", worst, evaluated)


# --------------------------------------------------------------------------
# Case enumeration
# --------------------------------------------------------------------------

class CaseResult(NamedTuple):
    case_id: str
    constraints: tuple          # subset of ("n = 0", "a1 = 0", "D_r = 0")
    diffusion: MaterialSolution
    gamma: MaterialSolution
    coincides_with: str | None
    notes: tuple
    diffusion_check: BackSubstitution
    gamma_check: BackSubstitution

    def failed_checks(self) -> tuple:
        """(family, verdict) for each family, D then Gamma, whose
        back-substitution verdict is neither zero nor numeric-only."""
        return tuple((sol.func, check.verdict) for sol, check in
                     ((self.diffusion, self.diffusion_check),
                      (self.gamma, self.gamma_check))
                     if check.verdict not in ("zero", "numeric-only"))


CASE_CONSTRAINTS = {
    "A": ("n = 0",),
    "B": ("a1 = 0",),
    "C": ("n = 0", "a1 = 0"),
    "D": ("n = 0", "D_r = 0"),
    "E": ("a1 = 0", "D_r = 0"),
    "F": ("n = 0", "a1 = 0", "D_r = 0"),
}


def enumerate_cases(model: Model, case_ids=tuple(CASE_CONSTRAINTS),
                    tol: float = 1e-10) -> dict:
    """{case id: its CaseResult} for the cases `case_ids`, in table order.

    The twelve conditions of the six cases are five distinct ones: three
    for D (c_r = a1 + a2 r, a2 r, 0) and two for Gamma (a1 + a2 r, a2 r).
    Each condition of a requested case is solved and back-substituted once,
    keyed by its value, and its result shared by the cases that have it.
    A case coincides with the first case in the table, requested or not,
    whose two conditions are equal to its own."""
    solved = {}
    first_with = {}

    def solve(pde):
        if pde not in solved:
            sol = solve_characteristics(pde, model)
            solved[pde] = sol, back_substitute(sol, pde, model, tol)
        return solved[pde]

    cases = {}
    for case_id, constraints in CASE_CONSTRAINTS.items():
        pdes = material_conditions(model, constraints)
        first = first_with.setdefault(pdes, case_id)
        if case_id not in case_ids:
            continue
        (d_sol, d_check), (g_sol, g_check) = map(solve, pdes)
        cases[case_id] = CaseResult(
            case_id, constraints, d_sol, g_sol,
            None if first == case_id else first,
            tuple(published.TABLE_NOTES[case_id]), d_check, g_check)
    return cases


def check_constants(case: CaseResult, a: dict) -> None:
    """A ValueError naming the case's first family that fails
    back-substitution, then the first non-degeneracy condition of its D or
    Gamma family ("a2 != 0", "a4 = 0", ...), then the first constraint of
    the case on a constant ("a1 = 0"), that the constants `a` violate:
    outside them the closed form does not solve its condition."""
    for func, verdict in case.failed_checks():
        raise ValueError(f"case {case.case_id}: the {func} family fails "
                         f"back-substitution ({verdict})")
    checks = [(f"the {sol.func} family", condition)
              for sol in (case.diffusion, case.gamma)
              for condition in sol.conditions]
    checks += [("the case", constraint) for constraint in case.constraints]
    for what, condition in checks:
        name, op, value = condition.split()
        if name in a and (a[name] == float(value)) != (op == "="):
            raise ValueError(f"case {case.case_id}: {what} needs "
                             f"{condition}, got {name} = {a[name]:g}")


def constant_material_constraints(model: Model) -> dict:
    """Constants a_i implied by degenerate material choices.

    Constant D forces a4 = 2 a2 (the scaling weight of D vanishes); constant
    nonzero Gamma forces a4 = 0; both together leave translations only
    (a2 = a4 = 0).  Gamma identically zero adds no constraint.
    """
    def residual(func, f):
        # f has no r or t derivative: the condition is growth * f = 0
        growth = material_condition(model, func).growth
        return to_text(sign_normalize(Mul((growth, f))))

    return {
        "constant_D": {
            "residual": residual("D", model.D),
            "constraint": "a4 = 2*a2",
            "assumption": "D != 0",
        },
        "constant_Gamma": {
            "residual": residual("Gamma", model.Gamma),
            "constraint": "a4 = 0",
            "assumption": "Gamma != 0",
        },
        "zero_Gamma": {
            "residual": residual("Gamma", ZERO),
            "constraint": None,
        },
        "constant_D_and_Gamma": {
            "constraint": "a2 = a4 = 0 (translations only)",
        },
    }
