"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with -s to see the lines:  pytest tests/test_acceptance.py -s
"""

import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from fluxsym import isovector
from fluxsym.characteristics import (
    enumerate_cases, find_case, material_condition,
)
from fluxsym.cli import main
from fluxsym.forms import exterior_d, scalar_form, section, wedge
from fluxsym.isovector import (
    audit_against_published, closure_check, extract_determining, lie_form,
    lie_scalar, standard_generator,
)
from fluxsym.kernel import (
    Add, Mul, Rat, Sym, ZERO, differentiate, evaluate, normalize,
    sign_normalize,
)
from fluxsym.model import Model
from fluxsym.numerics import (
    GridSpec, MaterialModel, TransformParams, invariance_residual,
    material_residual, max_interior_residual, solve_pde, transform_field,
)
from fluxsym.parser import parse
from fluxsym.reports import determining_system_payload

from conftest import form_scale, random_expression

GOLDEN = Path(__file__).parent / "golden" / "derive_symbolic.json"

AUDITED_IDS = (
    "w_translation", "w_scaling_link", "diffusion_first_order",
    "diffusion_gradient_lock", "diffusion_second_order",
    "geometry_translation_lock", "gamma_first_order", "flux_translation",
    "diffusion_first_order_reduced", "diffusion_second_order_reduced",
)


def ok(msg):
    print(f"PASS {msg}")


def test_criterion_1_determining_equations_golden(tmp_path):
    out = tmp_path / "derive.json"
    assert main(["derive", "--n", "symbolic", "--seed", "0",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
    data = json.loads(out.read_text())
    solved = {c["name"]: c["solved"]
              for c in data["determining_system"]["constraints"]}
    assert solved == {"a5": "a5 = 0", "a7": "a7 = 0",
                      "a8": "a8 = a6 - a2", "geometry_lock": "n*a1 = 0"}
    model = Model()
    system = extract_determining(model, "symbolic")
    table = model.table
    want_gamma = parse(
        "(a1 + a2*r)*Gamma_r + (a3 + a4*t)*Gamma_t + a4*Gamma", table)
    assert sign_normalize(system.gamma_pde) == sign_normalize(want_gamma)
    want_d = parse(
        "(a1 + a2*r)*D_r + (a3 + a4*t)*D_t - (2*a2 - a4)*D", table)
    assert sign_normalize(system.diffusion_pde_reduced) == \
        sign_normalize(want_d)
    ok("criterion 1: determining equations reproduced, golden file matches")


@pytest.mark.parametrize("golden, argv", [
    ("derive_n0.json", ["derive", "--n", "0"]),
    ("derive_n1.json", ["derive", "--n", "1"]),
    ("derive_n2.json", ["derive", "--n", "2"]),
    ("verify_closure.json", ["verify", "--closure"]),
], ids=lambda x: x if isinstance(x, str) else None)
def test_symbolic_reports_match_the_golden_files(tmp_path, golden, argv):
    # every literal geometry goes through the reduction and the audit
    out = tmp_path / golden
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN.parent / golden).read_bytes()


def test_criterion_2_second_order_is_r_derivative():
    model = Model()
    table = model.table
    first_order = parse(
        "(a1 + a2*r)*D_r + (a3 + a4*t)*D_t - (2*a2 - a4)*D", table)
    second_order = parse(
        "(a1 + a2*r)*D_rr + (a3 + a4*t)*D_rt - (a2 - a4)*D_r", table)
    diff = normalize(differentiate(first_order, "r", table) - second_order)
    assert diff == ZERO
    system = extract_determining(model, "symbolic")
    report = audit_against_published(system, model)
    statuses = {row.identifier: row.status for row in report.rows}
    assert statuses["diffusion_second_order"] == "implied"
    assert statuses["diffusion_second_order_reduced"] == "implied"
    ok("criterion 2: second-order condition is the r-derivative of the "
       "first-order one; audit row implied")


def test_criterion_3_audit_is_exhaustive_and_definite():
    model = Model()
    system = extract_determining(model, "symbolic")
    report = audit_against_published(system, model)
    statuses = {row.identifier: row.status for row in report.rows}
    for identifier in AUDITED_IDS:
        assert statuses[identifier] in (
            "reproduced", "implied", "not-derivable", "discrepant")
    assert report.unknown_verdicts == 0
    assert determining_system_payload(system)["unknown_verdicts"] == 0
    ok("criterion 3: all ten published equations graded definitively, "
       "zero unknown verdicts")


def test_criterion_4_closure_and_mutation(monkeypatch):
    model = Model()
    result = closure_check(model)
    assert result.identically_zero and result.residual == ZERO
    # the mutation: the generator's action on D_r mis-set to zero
    real = isovector._lie_symbol
    monkeypatch.setattr(
        isovector, "_lie_symbol",
        lambda s, gen, m: ZERO if s.name == "D_r" else real(s, gen, m))
    mutated = closure_check(model)
    assert not mutated.identically_zero
    expected = normalize((Sym("a1") + Sym("a2") * model.r) * Sym("D_rr")
                         + (Sym("a3") + Sym("a4") * model.t) * Sym("D_rt"))
    assert sign_normalize(mutated.residual) == sign_normalize(expected)
    ok("criterion 4: gradient-closure invariance identically satisfied; "
       "mutation yields the predicted residual")


def test_criterion_5_case_forms_verified():
    model = Model()
    table = model.table
    cases = enumerate_cases(model)
    assert len(cases) == 6
    for case in cases:
        assert case.diffusion_check.verdict == "zero"
        assert case.gamma_check.verdict == "zero"
    # numeric residuals of the raw (un-normalized) residual trees with the
    # sampled functions, at 1000 random points
    fns = {"G": lambda x: math.exp(-x * x),
           "G'": lambda x: -2 * x * math.exp(-x * x),
           "F": lambda x: 1.0 / (1.0 + x * x),
           "F'": lambda x: -2 * x / (1.0 + x * x) ** 2}
    rng = random.Random(0)
    worst = 0.0
    for case in cases:
        for sol, pde in ((case.diffusion, material_condition(
                              model, "D", case.constraints)),
                         (case.gamma, material_condition(
                              model, "Gamma", case.constraints))):
            f = sol.expression
            raw = Add((
                Mul((pde.c_r, differentiate(f, "r", table))),
                Mul((pde.c_t, differentiate(f, "t", table))),
                Mul((Rat(-1), pde.growth, f)),
            ))
            for _ in range(1000 // 12):
                point = {name: rng.uniform(0.25, 2.0)
                         for name in ("a1", "a2", "a3", "a4", "r", "t", "C")}
                val = evaluate(raw, point, fns)
                scale = abs(evaluate(f, point, fns)) + 1.0
                worst = max(worst, abs(val) / scale)
    assert worst <= 1e-10
    # finite-difference residuals of a grid instance
    from fluxsym.cli import _case_materials
    a = {"a1": 0.0, "a2": 1.0, "a3": 1.0, "a4": 2.0, "a6": 0.0}
    material = _case_materials(find_case(model, "B"), a, 1.0)
    conditions = tuple(material_condition(model, func)
                       for func in ("D", "Gamma"))
    res = material_residual(material, conditions, TransformParams(0.02, a),
                            GridSpec(0.0, 1.0, 1.0, 2048, 2048))
    assert max(res["res_D"], res["res_Gamma"]) <= 1e-6
    ok(f"criterion 5: six cases back-substitute symbolically; exact-path "
       f"residual {worst:.1e} <= 1e-10; finite-difference residuals <= 1e-6")


def test_criterion_6_exterior_algebra_property_suite(model):
    rng = random.Random(77)
    table = model.table
    names = ("r", "t", "phi", "w", "D", "Gamma", "a1", "a2", "v")
    from test_forms import random_form
    gen = standard_generator(model)
    for _ in range(300):
        alpha = random_form(rng, 1, names)
        beta = random_form(rng, 1, names)
        # antisymmetry (degree 1 x degree 1)
        assert wedge(alpha, beta).coefficients == \
            form_scale(wedge(beta, alpha), Rat(-1)).coefficients
        # nilpotency
        f = scalar_form(random_expression(rng, names, depth=3))
        assert not exterior_d(exterior_d(f, table), table).coefficients
        # section homomorphism
        assert section(wedge(alpha, beta), table).coefficients == \
            wedge(section(alpha, table), section(beta, table)).coefficients
        # Lie-exterior commutation
        g = normalize(random_expression(rng, names, depth=2))
        lhs = lie_form(gen, exterior_d(scalar_form(g), table), model)
        rhs = exterior_d(scalar_form(lie_scalar(gen, g, model)), table)
        assert lhs.coefficients == rhs.coefficients
    ok("criterion 6: antisymmetry, nilpotency, section homomorphism and "
       "Lie-exterior commutation hold over 300 randomized trials each")


def test_criterion_7_solver_verification():
    v = 1.0
    mat = MaterialModel(
        D=lambda r, t: np.ones(np.broadcast_shapes(np.shape(r), np.shape(t))),
        Gamma=lambda r, t: (1.0 / (v * (1.0 + np.asarray(t, float)))
                            + (math.pi / 2) ** 2) * np.ones(
                                np.broadcast_shapes(np.shape(r), np.shape(t))),
        v=v)
    exact = lambda r, t: (1.0 + t) * np.cos(math.pi * r / 2)
    errors = []
    for n in (32, 64, 128):
        grid = GridSpec(0.0, 1.0, 1.0, n, n)
        field = solve_pde(grid, mat, lambda r: exact(r, 0.0),
                          (("zero_gradient",), ("dirichlet", 0.0)))
        rr, tt = np.meshgrid(grid.r_nodes, grid.t_nodes)
        errors.append(np.max(np.abs(field.phi - exact(rr, tt))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(1.8 <= o <= 2.2 for o in orders)

    grid = GridSpec(0.0, 1.0, 1.0, 8, 4096, geometry=1)
    uniform = MaterialModel(
        D=lambda r, t: np.full(np.broadcast_shapes(np.shape(r), np.shape(t)), 0.3),
        Gamma=lambda r, t: np.full(np.broadcast_shapes(np.shape(r), np.shape(t)), 0.5),
        v=2.0)
    field = solve_pde(grid, uniform, lambda r: np.ones_like(r),
                      (("zero_gradient",), ("zero_gradient",)))
    rel = np.max(np.abs(field.phi[-1] - math.exp(1.0))) / math.exp(1.0)
    assert rel <= 1e-6
    ok(f"criterion 7: manufactured-solution orders {orders[0]:.2f}, "
       f"{orders[1]:.2f}; exponential-growth error {rel:.1e} <= 1e-6")


def test_criterion_8_invariance_at_desk_scale():
    # case D with (a2, a4, a6) = (1, 2, 0), pure scaling, eps = 0.02
    a = {"a1": 0, "a2": 1, "a3": 0, "a4": 2, "a6": 0}
    p = TransformParams(0.02, a)
    amplitude, C = 0.5, 0.35
    def gamma(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return amplitude / (2.0 * t + r * r) * np.ones(
            np.broadcast_shapes(r.shape, t.shape))
    material = MaterialModel(
        D=lambda r, t: np.full(np.broadcast_shapes(np.shape(r), np.shape(t)), C),
        Gamma=gamma, v=1.0)
    grid = GridSpec(0.5, 1.5, 1.0, 40, 40)
    ic = lambda r: 1.0 + np.cos(math.pi * (r - 0.5))
    bc = (("zero_gradient",), ("zero_gradient",))
    model = Model()
    conditions = tuple(material_condition(model, func)
                       for func in ("D", "Gamma"))
    check = material_residual(material, conditions, p,
                              GridSpec(0.5, 1.5, 1.0, 4096, 4096))
    assert max(check["res_D"], check["res_Gamma"]) <= 1e-6
    report = invariance_residual(grid, material, p, ic, bc, refinements=4)
    assert len(report.ratios) == 3
    for ratio in report.ratios:
        assert 2.8 <= ratio <= 5.2
    # exponent-perturbed mutation: the prefactor power -1 becomes -0.9
    def gamma_mut(r, t):
        r = np.asarray(r, float)
        t = np.asarray(t, float)
        return amplitude * (2.0 * t + r * r) ** -0.9 * np.ones(
            np.broadcast_shapes(r.shape, t.shape))
    mutated = MaterialModel(D=material.D, Gamma=gamma_mut, v=1.0)
    finest = grid
    for _ in range(3):
        finest = finest.refined()
    mut_field = solve_pde(finest, mutated, ic, bc)
    mut_res = max_interior_residual(transform_field(mut_field, p))
    assert mut_res > 10 * report.residuals[-1]
    ok(f"criterion 8: residual ratios {', '.join(f'{x:.2f}' for x in report.ratios)} "
       f"(4 +/- 30%); mutation plateau {mut_res:.1e} > 10x finest "
       f"{report.residuals[-1]:.1e}")


def test_criterion_9_deterministic_reports(tmp_path):
    pairs = []
    for tag in ("x", "y"):
        derive = tmp_path / f"derive_{tag}.json"
        cases = tmp_path / f"cases_{tag}.json"
        verify = tmp_path / f"verify_{tag}.json"
        assert main(["derive", "--seed", "0", "--out", str(derive)]) == 0
        assert main(["cases", "--seed", "0", "--out", str(cases)]) == 0
        assert main(["verify", "--closure", "--seed", "0",
                     "--out", str(verify)]) == 0
        pairs.append((derive.read_bytes(), cases.read_bytes(),
                      verify.read_bytes()))
    assert pairs[0] == pairs[1]
    ok("criterion 9: repeated runs with the same seed produce byte-identical "
       "JSON reports")
