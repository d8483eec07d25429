"""The determining system derived the classical way, with sympy.

No forms and no ideal: the second prolongation of the restricted generator

    chi = (a1 + a2 r) d/dr + (a3 + a4 t) d/dt + (a5 + a6 phi) d/dphi

is applied to the diffusion equation

    Delta = phi_t / v - D phi_rr - (D_r + n D / r) phi_r - Gamma phi,

with the materials D(r, t) and Gamma(r, t) moved along by chi.  Invariance
asks pr chi(Delta) = lambda Delta identically in the jet variables
(phi, phi_r, phi_t, phi_rr), so each of their coefficients vanishes.  The
result is compared with the engine's derivation: the golden report for a
symbolic geometry index, `extract_determining` for a literal one.
"""

import json
from pathlib import Path

import pytest

from fluxsym.isovector import audit_against_published, extract_determining
from fluxsym.model import Model
from fluxsym.parser import parse

sympy = pytest.importorskip("sympy")

from test_sympy_oracle import R, T, to_sympy  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "derive_symbolic.json"

a1, a2, a3, a4, a5, a6, a7, a8, v, lam = sympy.symbols(
    "a1 a2 a3 a4 a5 a6 a7 a8 v lambda")
P, P_R, P_T, P_RR = sympy.symbols("p p_r p_t p_rr")
D = sympy.Function("D")(R, T)
GAMMA = sympy.Function("Gamma")(R, T)
XI_R, XI_T = a1 + a2 * R, a3 + a4 * T


def _prolongation():
    """{jet variable: its coefficient in pr chi}, by the prolongation formula
    eta^J = D_J(eta - xi_r phi_r - xi_t phi_t) + xi_r phi_Jr + xi_t phi_Jt,
    written in the jet variables."""
    phi = sympy.Function("phi")(R, T)
    q = a5 + a6 * phi - XI_R * phi.diff(R) - XI_T * phi.diff(T)
    jets = {P: (), P_R: (R,), P_T: (T,), P_RR: (R, R)}
    eta = {P: a5 + a6 * phi}
    for var, J in jets.items():
        if J:
            eta[var] = (q.diff(*J) + XI_R * phi.diff(*J, R)
                        + XI_T * phi.diff(*J, T))
    names = {phi.diff(R, R): P_RR, phi.diff(R): P_R, phi.diff(T): P_T,
             phi: P}
    out = {}
    for var, e in eta.items():
        e = sympy.expand(e.subs(names))
        assert not e.has(phi), (var, e)          # third-order terms cancel
        out[var] = e
    return out


def _chi_material(e):
    """chi on an expression in r, t and the materials (their jets follow)."""
    return XI_R * e.diff(R) + XI_T * e.diff(T)


def classical_system(n):
    """The coefficients of pr chi(Delta) - lambda Delta, lambda solved from
    the phi_t coefficient, and eta^r, the coefficient of d/dphi_r."""
    delta = P_T / v - D * P_RR - (D.diff(R) + n * D / R) * P_R - GAMMA * P
    eta = _prolongation()
    pr_chi = _chi_material(delta) + sum(
        e * delta.diff(var) for var, e in eta.items())
    identity = sympy.expand(pr_chi - lam * delta)
    jets = (P, P_R, P_T, P_RR)
    coefficients = {var: identity.coeff(var) for var in jets}
    constant = identity.subs({var: 0 for var in jets})
    rebuilt = constant + sum(c * var for var, c in coefficients.items())
    assert sympy.expand(identity - rebuilt) == 0       # linear in the jets
    solved = sympy.solve(coefficients[P_T], lam)
    assert solved == [a6 - a4]
    system = {var: sympy.expand(c.subs(lam, solved[0]))
              for var, c in coefficients.items()}
    system[1] = sympy.expand(constant)
    return system, eta[P_R]


def reduce_phi_r(system):
    """The phi_r coefficient with D_rt and then D_t eliminated by the
    r-derivative of the phi_rr condition and by that condition itself."""
    d_condition = system[P_RR]
    d_rt, d_t = D.diff(R, T), D.diff(T)
    (rt_value,) = sympy.solve(d_condition.diff(R), d_rt)
    (t_value,) = sympy.solve(d_condition, d_t)
    reduced = system[P_R].subs(d_rt, rt_value).subs(d_t, t_value)
    return sympy.factor(sympy.cancel(reduced))


def same_up_to_sign(a, b):
    return sympy.expand(a - b) == 0 or sympy.expand(a + b) == 0


def golden_equations():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))["determining_system"]
    table = Model().table
    conditions = {key: to_sympy(parse(value["text"], table), table)
                  for key, value in data["material_conditions"].items()}
    constraints = {c["name"]: to_sympy(parse(c["equation"]["text"], table), table)
                   for c in data["constraints"]}
    return conditions, constraints


def test_prolongation_of_the_restricted_generator():
    eta = _prolongation()
    assert sympy.expand(eta[P_R] - (a6 - a2) * P_R) == 0
    assert sympy.expand(eta[P_T] - (a6 - a4) * P_T) == 0
    assert sympy.expand(eta[P_RR] - (a6 - 2 * a2) * P_RR) == 0


def test_classical_split_reproduces_the_golden_system():
    n = sympy.Symbol("n")
    system, eta_r = classical_system(n)
    conditions, constraints = golden_equations()
    assert same_up_to_sign(system[P_RR],
                           conditions["diffusion_first_order_reduced"])
    assert same_up_to_sign(system[P], conditions["gamma_first_order"])
    # the constant term is -a5*Gamma: a5 = 0 while Gamma is not 0
    assert same_up_to_sign(system[1], constraints["a5"] * GAMMA)
    # the generator's d/dw coefficient a7 + a8*w must be eta^r
    link = sympy.Poly(sympy.expand(a7 + a8 * P_R - eta_r), P_R)
    assert link.coeff_monomial(1) == constraints["a7"]
    assert same_up_to_sign(link.coeff_monomial(P_R), constraints["a8"])
    # the phi_r coefficient leaves only the geometry lock n*a1*D/r^2
    reduced = reduce_phi_r(system)
    assert same_up_to_sign(reduced * R**2, conditions["geometry_lock"])
    # and the r-derivative of the D condition is the second-order one
    assert same_up_to_sign(system[P_RR].diff(R),
                           conditions["diffusion_second_order"])


@pytest.mark.parametrize("geometry", ["symbolic", 0, 1, 2])
def test_a1_times_D_r_is_not_a_classical_condition(geometry):
    """No coefficient of the split gives a1*D_r = 0: the phi_r coefficient
    reduces to n*a1*D/r^2, which has no D_r.  Whether a1*D_r = 0 follows
    from the system anyway is what the audit grades, and the two agree: with
    the lock gone (n = 0, or the n = 0 branch of a symbolic n), D = exp(r - t)
    with a1 = a3 = 1 solves every condition while a1*D_r is not 0, so the
    row is not derivable; at n = 1, 2 the lock a1*D = 0 forces a1 = 0, so
    the row is implied."""
    n = sympy.Symbol("n") if geometry == "symbolic" else geometry
    system, _ = classical_system(n)
    reduced = reduce_phi_r(system)
    assert not reduced.has(D.diff(R))
    assert sympy.expand(reduced - n * a1 * D / R**2) == 0

    model = Model()
    engine = extract_determining(model, geometry)
    lock = engine.geometry_lock
    if geometry == 0:
        assert lock is None
    else:
        # the engine integerizes the lock (2*a1*D is reported as a1*D)
        ratio = sympy.cancel(reduced * R**2 / to_sympy(lock, model.table))
        assert ratio.is_number and ratio != 0
    grade = next(row.status
                 for row in audit_against_published(engine, model).rows
                 if row.identifier == "diffusion_gradient_lock")

    if geometry in (1, 2):
        # D is not 0, so the lock forces a1 = 0 and with it a1*D_r = 0
        assert sympy.solve(reduced / D, a1) == [0]
        assert grade == "implied"
        return
    # a solution of every condition, on the n = 0 branch, with a1*D_r != 0
    witness = {sympy.Symbol("n"): 0, a1: 1, a2: 0, a3: 1, a4: 0, a5: 0}
    solution = {D: sympy.exp(R - T), GAMMA: sympy.exp(R - T)}
    for condition in system.values():
        value = condition.subs(witness).subs(solution).doit()
        assert sympy.simplify(value) == 0, condition
    gradient = (a1 * D.diff(R)).subs(witness).subs(solution).doit()
    assert sympy.simplify(gradient) != 0
    assert grade == "not-derivable"
