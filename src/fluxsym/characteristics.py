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
    sign_normalize, substitute, to_text,
)
from .model import Model
from .numerics import sampled_functions


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


def diffusion_condition(model: Model, a1_zero=False, gradient_free=False) -> QuasiLinearPDE:
    """(a1 + a2 r) D_r + (a3 + a4 t) D_t = (2 a2 - a4) D, specialised per case."""
    m = model
    c_r = ZERO if gradient_free else (
        normalize(Mul((m.a2, m.r))) if a1_zero else normalize(Add((m.a1, Mul((m.a2, m.r))))))
    return QuasiLinearPDE(
        func="D", c_r=c_r,
        c_t=normalize(Add((m.a3, Mul((m.a4, m.t))))),
        growth=normalize(Add((Mul((Rat(2), m.a2)), Mul((Rat(-1), m.a4))))),
    )


def gamma_condition(model: Model, a1_zero=False) -> QuasiLinearPDE:
    """(a1 + a2 r) Gamma_r + (a3 + a4 t) Gamma_t + a4 Gamma = 0."""
    m = model
    c_r = normalize(Mul((m.a2, m.r))) if a1_zero else normalize(
        Add((m.a1, Mul((m.a2, m.r)))))
    return QuasiLinearPDE(
        func="Gamma", c_r=c_r,
        c_t=normalize(Add((m.a3, Mul((m.a4, m.t))))),
        growth=normalize(Mul((Rat(-1), m.a4))),
    )


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

class BackSubstitution(NamedTuple):
    verdict: str               # "zero" | "numeric-only" | "nonzero" | "unknown"
    symbolic_zero: bool
    max_residual: float = 0.0
    evaluated: int = 0         # sample points the numeric check evaluated


def back_substitute(sol: MaterialSolution, pde: QuasiLinearPDE, model: Model,
                    points: int = 1000, tol: float = 1e-10,
                    seed: int = 0) -> BackSubstitution:
    """Substitute the closed form into its condition.

    Symbolic first: the chain rule runs through the arbitrary-function
    derivative symbol and the residual must normalize to zero.  If the
    normal form is inconclusive the verdict downgrades to a numeric check
    at random points, with G and F sampled by `numerics.sampled_functions`.
    The verdict is 'unknown' when fewer than half of the points evaluate.
    """
    residual = pde.residual(sol.expression, model)
    if residual == ZERO:
        return BackSubstitution("zero", True)
    verdict = is_zero(residual, model.table, seed=seed)
    if verdict == ZeroVerdict.NONZERO:
        return BackSubstitution("nonzero", False, float("inf"))
    fns = sampled_functions()
    rng = random.Random(seed)
    worst = 0.0
    evaluated = 0
    for _ in range(points):
        point = {name: rng.uniform(0.25, 2.0) for name in
                 ("a1", "a2", "a3", "a4", "r", "t", "C")}
        try:
            val = evaluate(residual, point, fns)
            scale = abs(evaluate(sol.expression, point, fns)) + 1.0
        except (EvaluationError, ZeroDivisionError, OverflowError):
            continue
        evaluated += 1
        worst = max(worst, abs(val) / scale)
    if evaluated == 0 or 2 * evaluated < points:
        return BackSubstitution("unknown", False, worst, evaluated)
    if worst <= tol:
        return BackSubstitution("numeric-only", False, worst, evaluated)
    return BackSubstitution("nonzero", False, worst, evaluated)


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
    diffusion_check: BackSubstitution = None
    gamma_check: BackSubstitution = None


CASE_CONSTRAINTS = {
    "A": ("n = 0",),
    "B": ("a1 = 0",),
    "C": ("n = 0", "a1 = 0"),
    "D": ("n = 0", "D_r = 0"),
    "E": ("a1 = 0", "D_r = 0"),
    "F": ("n = 0", "a1 = 0", "D_r = 0"),
}


def enumerate_cases(model: Model, verify: bool = True,
                    seed: int = 0, tol: float = 1e-10) -> list:
    """The six admissible constraint combinations and their material families.

    The diffusion condition depends only on (a1 = 0, D_r = 0) and the Gamma
    condition only on a1 = 0, so the twelve conditions of the six cases are
    six distinct ones: each is solved and back-substituted once and its
    result shared by the cases that have it.  A case coincides with the
    first case that has the same two flags, so the same two conditions."""
    solved = {}
    first_with = {}

    def solve(condition, *flags):
        key = (condition, flags)
        if key not in solved:
            pde = condition(model, *flags)
            sol = solve_characteristics(pde, model)
            check = (back_substitute(sol, pde, model, seed=seed, tol=tol)
                     if verify else None)
            solved[key] = sol, check
        return solved[key]

    results = []
    for case_id, constraints in CASE_CONSTRAINTS.items():
        a1_zero = "a1 = 0" in constraints
        gradient_free = "D_r = 0" in constraints
        d_sol, d_check = solve(diffusion_condition, a1_zero, gradient_free)
        g_sol, g_check = solve(gamma_condition, a1_zero)
        first = first_with.setdefault((a1_zero, gradient_free), case_id)
        results.append(CaseResult(
            case_id=case_id,
            constraints=constraints,
            diffusion=d_sol,
            gamma=g_sol,
            coincides_with=None if first == case_id else first,
            notes=tuple(published.TABLE_NOTES[case_id]),
            diffusion_check=d_check,
            gamma_check=g_check,
        ))
    return results


def constant_material_constraints(model: Model) -> dict:
    """Constants a_i implied by degenerate material choices.

    Constant D forces a4 = 2 a2 (the scaling weight of D vanishes); constant
    nonzero Gamma forces a4 = 0; both together leave translations only
    (a2 = a4 = 0).  Gamma identically zero adds no constraint.
    """
    m = model
    table = m.table
    d_pde = diffusion_condition(m)
    g_pde = gamma_condition(m)
    d_residual = substitute(
        d_pde.residual(m.D, m), {"D_r": ZERO, "D_t": ZERO}, table)
    g_residual = substitute(
        g_pde.residual(m.Gamma, m), {"Gamma_r": ZERO, "Gamma_t": ZERO}, table)
    g_zero = substitute(g_residual, {"Gamma": ZERO}, table)
    return {
        "constant_D": {
            "residual": to_text(sign_normalize(d_residual)),
            "constraint": "a4 = 2*a2",
            "assumption": "D != 0",
        },
        "constant_Gamma": {
            "residual": to_text(sign_normalize(g_residual)),
            "constraint": "a4 = 0",
            "assumption": "Gamma != 0",
        },
        "zero_Gamma": {
            "residual": to_text(g_zero),
            "constraint": None,
        },
        "constant_D_and_Gamma": {
            "constraint": "a2 = a4 = 0 (translations only)",
        },
    }
