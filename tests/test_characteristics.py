import math
import random
from fractions import Fraction

import pytest

from fluxsym import characteristics, published
from fluxsym.characteristics import (
    CASE_CONSTRAINTS, MaterialSolution, QuasiLinearPDE,
    UnsupportedBranchError, back_substitute, constant_material_constraints,
    enumerate_cases, material_condition, solve_characteristics,
)
from fluxsym.isovector import extract_determining
from fluxsym.kernel import (
    Call, Mul, Rat, Sym, ZERO, ZeroVerdict, evaluate,
    normalize, strip_coordinates, substitute, to_text,
)
from fluxsym.parser import parse


@pytest.mark.parametrize("mode", ["symbolic", 0, 1, 2])
def test_material_conditions_are_the_derived_determining_equations(model,
                                                                   mode):
    # the one builder states the two first-order equations that the
    # isovector reduction derives, in every geometry
    system = extract_determining(model, mode)
    for func, derived in (("D", system.diffusion_pde_reduced),
                          ("Gamma", system.gamma_pde)):
        condition = material_condition(model, func)
        residual = condition.residual(getattr(model, func), model)
        assert strip_coordinates(residual) == strip_coordinates(derived)


def test_gamma_generic_solution_matches_text(model):
    pde = material_condition(model, "Gamma")
    sol = solve_characteristics(pde, model)
    expected = parse(
        "(a3 + a4*t)^(-1) * F((r + a1/a2)*(a3 + a4*t)^(-a2/a4))", model.table)
    assert normalize(sol.expression - expected) == ZERO
    assert sol.symbol == "F"
    assert set(sol.conditions) == {"a2 != 0", "a4 != 0"}


def test_diffusion_a1_zero_solution_matches_text(model):
    pde = material_condition(model, "D", ("a1 = 0",))
    sol = solve_characteristics(pde, model)
    expected = parse(
        "(a3 + a4*t)^(2*a2/a4 - 1) * G(r*(a3 + a4*t)^(-a2/a4))", model.table)
    assert normalize(sol.expression - expected) == ZERO


def test_diffusion_gradient_free_solution(model):
    pde = material_condition(model, "D", ("D_r = 0",))
    sol = solve_characteristics(pde, model)
    expected = parse("C*(a3 + a4*t)^(2*a2/a4 - 1)", model.table)
    assert normalize(sol.expression - expected) == ZERO
    assert sol.xi is None and sol.symbol == "C"
    assert sol.branch == "gradient-free"


def test_all_cases_back_substitute_symbolically(model):
    cases = enumerate_cases(model)
    assert list(cases) == list("ABCDEF")
    for case_id, c in cases.items():
        assert c.case_id == case_id
        assert c.failed_checks() == ()
        assert c.diffusion_check.verdict == "zero"
        assert c.gamma_check.verdict == "zero"


def test_each_distinct_condition_is_solved_once(model, monkeypatch):
    # five distinct conditions: D with c_r = a1 + a2*r (A), a2*r (B, C)
    # and 0 (D, E, F), and Gamma with c_r = a1 + a2*r (A, D) and a2*r
    # (B, C, E, F)
    reference = []
    for case_id, constraints in CASE_CONSTRAINTS.items():
        row = []
        for pde in (material_condition(model, "D", constraints),
                    material_condition(model, "Gamma", constraints)):
            sol = solve_characteristics(pde, model)
            row.append((sol, back_substitute(sol, pde, model)))
        reference.append((case_id, row))
    calls = {"solve_characteristics": 0, "back_substitute": 0}
    for name in calls:
        def counted(*args, _original=getattr(characteristics, name),
                    _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(characteristics, name, counted)
    cases = enumerate_cases(model)
    assert calls == {"solve_characteristics": 5, "back_substitute": 5}
    for case, (case_id, row) in zip(cases.values(), reference, strict=True):
        assert case.case_id == case_id
        for (sol, check), got_sol, got_check in zip(
                row, (case.diffusion, case.gamma),
                (case.diffusion_check, case.gamma_check)):
            assert to_text(got_sol.expression) == to_text(sol.expression)
            assert got_sol == sol
            assert got_check == check


def test_only_the_requested_cases_are_solved(model, monkeypatch):
    # case C has two of the five distinct conditions; it still coincides
    # with case B, which is not solved
    calls = {"solve_characteristics": [], "back_substitute": []}
    for name in calls:
        def counted(first, *args, _original=getattr(characteristics, name),
                    _name=name, **kwargs):
            calls[_name].append(first)
            return _original(first, *args, **kwargs)
        monkeypatch.setattr(characteristics, name, counted)
    cases = enumerate_cases(model, ("C",))
    assert list(cases) == ["C"]
    c = cases["C"]
    assert c.coincides_with == "B"
    pdes = [material_condition(model, func, CASE_CONSTRAINTS["C"])
            for func in ("D", "Gamma")]
    assert calls["solve_characteristics"] == pdes
    assert calls["back_substitute"] == [c.diffusion, c.gamma]
    assert enumerate_cases(model, ()) == {}


def test_case_constraint_sets(model):
    assert CASE_CONSTRAINTS == {
        "A": ("n = 0",),
        "B": ("a1 = 0",),
        "C": ("n = 0", "a1 = 0"),
        "D": ("n = 0", "D_r = 0"),
        "E": ("a1 = 0", "D_r = 0"),
        "F": ("n = 0", "a1 = 0", "D_r = 0"),
    }
    for case_id, constraints in CASE_CONSTRAINTS.items():
        assert enumerate_cases(model, (case_id,))[case_id].constraints \
            == constraints


def test_case_a_shares_similarity_argument(model):
    cases = enumerate_cases(model)
    a = cases["A"]
    assert normalize(a.diffusion.xi - a.gamma.xi) == ZERO
    expected = parse("(r + a1/a2)*(a3 + a4*t)^(-a2/a4)", model.table)
    assert normalize(a.diffusion.xi - expected) == ZERO


def test_case_coincidences(model):
    cases = enumerate_cases(model)
    assert cases["C"].coincides_with == "B"
    assert cases["F"].coincides_with == "E"
    for pair in (("C", "B"), ("F", "E")):
        one, other = (cases[p] for p in pair)
        assert normalize(one.diffusion.expression
                         - other.diffusion.expression) == ZERO
        assert normalize(one.gamma.expression - other.gamma.expression) == ZERO


def test_case_d_gradient_term_absent(model):
    cases = enumerate_cases(model)
    table = model.table
    from fluxsym.kernel import differentiate
    d = cases["D"].diffusion.expression
    assert differentiate(d, "r", table) == ZERO
    pde = material_condition(model, "D", ("D_r = 0",))
    assert pde.residual(d, model) == ZERO


def test_generic_branch_on_random_rational_constants(model):
    # 100 random rational assignments of a1..a4 keep the symbolic residual
    # identically zero (exponents may collapse to integers)
    rng = random.Random(51)
    table = model.table
    pde = material_condition(model, "D")
    sol = solve_characteristics(pde, model)
    residual = pde.residual(sol.expression, model)
    assert residual == ZERO
    base = normalize(sol.expression)
    for _ in range(100):
        subs = {name: Rat(Fraction(rng.randint(1, 6), rng.randint(1, 4)))
                for name in ("a1", "a2", "a3", "a4")}
        inst = substitute(base, subs, table)
        inst_pde = QuasiLinearPDE(
            func="D",
            c_r=substitute(pde.c_r, subs, table),
            c_t=substitute(pde.c_t, subs, table),
            growth=substitute(pde.growth, subs, table))
        assert inst_pde.residual(inst, model) == ZERO


def test_mutated_exponent_fails_back_substitution(model):
    # dropping the -1 in the prefactor exponent breaks the condition
    table = model.table
    wrong = parse(
        "(a3 + a4*t)^(2*a2/a4) * G(r*(a3 + a4*t)^(-a2/a4))", table)
    pde = material_condition(model, "D", ("a1 = 0",))
    sol = MaterialSolution("D", wrong, None, "G", ())
    check = back_substitute(sol, pde, model)
    assert check.verdict == "nonzero"
    # the a4 = 0 extension family holds exp, which the exact zero test
    # leaves unknown: the numeric check finds the tripled growth
    generic = material_condition(model, "D")
    pde = QuasiLinearPDE(generic.func, *(
        substitute(part, {"a4": ZERO}, table)
        for part in (generic.c_r, generic.c_t, generic.growth)))
    tripled = QuasiLinearPDE(pde.func, pde.c_r, pde.c_t,
                             normalize(Mul((Rat(3), pde.growth))))
    check = back_substitute(solve_characteristics(pde, model), tripled, model)
    assert check.verdict == "nonzero"
    assert math.isfinite(check.max_residual)
    assert check.evaluated == 1000


# the printed summary-table entries that fail back-substitution; the
# derived forms of the same conditions pass
PRINTED_FAILURES = {("A", "Gamma"), ("B", "D"), ("C", "D"), ("D", "Gamma")}


@pytest.mark.parametrize("case_id,material", [
    (case_id, material) for case_id in published.TABLE_FORMS
    for material in ("D", "Gamma")])
def test_published_table_typos_fail_back_substitution(model, case_id,
                                                      material):
    table = model.table
    pde = material_condition(model, material, CASE_CONSTRAINTS[case_id])
    func = "G" if material == "D" else "F"
    printed = parse(published.TABLE_FORMS[case_id][material], table)
    check = back_substitute(
        MaterialSolution(material, printed, None, func, ()), pde, model)
    failing = (case_id, material) in PRINTED_FAILURES
    assert check.verdict == ("nonzero" if failing else "zero")
    derived = solve_characteristics(pde, model)
    assert back_substitute(derived, pde, model).verdict == "zero"


def test_back_substitution_counts_evaluated_points(model, monkeypatch):
    # force the numeric check with a wrong condition (growth tripled); H has
    # no sampled callable, so no point evaluates and the verdict stays unknown
    monkeypatch.setattr(characteristics, "is_zero",
                        lambda *args, **kwargs: ZeroVerdict.UNKNOWN)
    table = model.table
    table.declare("H", "arbitrary-function", arity=1)
    pde = material_condition(model, "D")
    tripled = QuasiLinearPDE(pde.func, pde.c_r, pde.c_t,
                             normalize(Mul((Rat(3), pde.growth))))
    h_family = parse("(a3 + a4*t)^((2*a2 - a4)/a4)"
                     " * H((r + a1/a2)*(a3 + a4*t)^(-a2/a4))", table)
    unbound = back_substitute(
        MaterialSolution("D", h_family, None, "H", ()), tripled, model)
    assert unbound.verdict == "unknown"
    assert unbound.evaluated == 0
    sampled = back_substitute(solve_characteristics(pde, model),
                              tripled, model)
    assert sampled.verdict == "nonzero"
    assert sampled.evaluated == 1000


def test_back_substitution_is_numeric_only_on_a_residual_it_cannot_fold(model):
    # the residual of this true solution normalizes to three G' terms, not to
    # 0: (a3 + a4*t)*(a3 + a4*t)^(a2/a4) does not fold once the first factor
    # is distributed over a sum; a kernel that folds it (ROADMAP item 5)
    # turns this verdict into zero
    table = model.table
    pde = QuasiLinearPDE("D", *(parse(text, table)
                                for text in ("a1", "a3 + a4*t", "a2")))
    family = parse("(a3 + a4*t)^(a2/a4) * G((a3 + a4*t)*exp(-a4*r/a1))", table)
    check = back_substitute(MaterialSolution("D", family, None, "G", ()),
                            pde, model)
    assert pde.residual(family, model) != ZERO
    assert check.verdict == "numeric-only"
    assert check.evaluated == 1000 and check.max_residual <= 1e-10


def test_published_table_notes_recorded(model):
    cases = enumerate_cases(model)
    assert any("exponent" in n for n in cases["A"].notes)
    assert any("missing t" in n for n in cases["B"].notes)
    assert cases["E"].notes == ()
    # a case carries a note exactly when one of its printed entries fails
    noted = {case_id for case_id, notes in published.TABLE_NOTES.items()
             if notes}
    assert noted == {case_id for case_id, _ in PRINTED_FAILURES} \
        == {"A", "B", "C", "D"}


def test_scaling_coherence_of_similarity_argument(model):
    # with a1 = a3 = 0 the similarity argument is invariant under the finite
    # scaling maps; power-law identity checked numerically at 20 epsilons
    table = model.table
    xi = parse("r*(a3 + a4*t)^(-a2/a4)", table)
    a2v, a4v = 0.7, 1.3
    fns = {}
    for k, eps in enumerate(e / 20 for e in range(1, 21)):
        point = {"r": 1.3, "t": 0.9, "a2": a2v, "a4": a4v, "a3": 0.0}
        before = evaluate(xi, point)
        scaled = {**point, "r": math.exp(eps * a2v) * point["r"],
                  "t": math.exp(eps * a4v) * point["t"]}
        after = evaluate(xi, scaled)
        assert abs(after - before) <= 1e-12 * abs(before)


# --- degenerate branches (extensions) ---------------------------------------

def test_translation_only_time_branch(model):
    # a4 = 0 with a3 != 0: exponential in t
    table = model.table
    m = model
    pde = QuasiLinearPDE("Gamma", c_r=normalize(m.a1 + m.a2 * m.r),
                         c_t=m.a3, growth=normalize(-m.a4))
    pde = QuasiLinearPDE("Gamma", pde.c_r, Sym("a3"), Sym("a2"))
    sol = solve_characteristics(pde, model)
    assert sol.branch == "extension"
    assert pde.residual(sol.expression, model) == ZERO


def test_translation_only_space_branch(model):
    # a2 = 0 with a1 != 0: exponential in r
    m = model
    pde = QuasiLinearPDE("D", c_r=Sym("a1"),
                         c_t=normalize(m.a3 + m.a4 * m.t),
                         growth=Sym("a4"))
    sol = solve_characteristics(pde, model)
    assert sol.branch == "extension"
    assert pde.residual(sol.expression, model) == ZERO


def test_pure_translation_branch(model):
    m = model
    pde = QuasiLinearPDE("D", c_r=Sym("a1"), c_t=Sym("a3"), growth=ZERO)
    sol = solve_characteristics(pde, model)
    assert pde.residual(sol.expression, model) == ZERO


def test_gradient_free_exponential_branch(model):
    pde = QuasiLinearPDE("D", c_r=ZERO, c_t=Sym("a3"), growth=Sym("a2"))
    sol = solve_characteristics(pde, model)
    assert sol.branch == "extension"
    assert pde.residual(sol.expression, model) == ZERO


# each c_r and c_t and the conditions its family needs
R_CONDITIONS = {
    "0": (),
    "a1": ("a2 = 0", "a1 != 0"),
    "a2*r": ("a2 != 0",),
    "a1 + a2*r": ("a2 != 0",),
}
T_CONDITIONS = {"a3": ("a4 = 0", "a3 != 0"), "a3 + a4*t": ("a4 != 0",)}


@pytest.mark.parametrize("c_r", R_CONDITIONS)
@pytest.mark.parametrize("c_t", T_CONDITIONS)
@pytest.mark.parametrize("growth", ["2*a2 - a4", "0"],
                         ids=["growth", "zero-growth"])
def test_every_branch_solves_its_condition(model, c_r, c_t, growth):
    table = model.table
    pde = QuasiLinearPDE("D", *(parse(text, table)
                                for text in (c_r, c_t, growth)))
    sol = solve_characteristics(pde, model)
    check = back_substitute(sol, pde, model)
    assert check.verdict == "zero"
    conditions = R_CONDITIONS[c_r] + T_CONDITIONS[c_t]
    assert sol.conditions == conditions
    if "a2 = 0" in conditions or "a4 = 0" in conditions:
        assert sol.branch == "extension"
    else:
        assert sol.branch == ("gradient-free" if c_r == "0" else "generic")
    if growth == "0":
        # no growth: no time factor, not even exp(0)
        assert sol.expression == (
            model.C if c_r == "0" else normalize(Call("G", (sol.xi,))))


@pytest.mark.parametrize("c_r", R_CONDITIONS)
def test_a_vanishing_time_coefficient_raises(model, c_r):
    table = model.table
    pde = QuasiLinearPDE("D", parse(c_r, table), ZERO, parse("-a4", table))
    with pytest.raises(UnsupportedBranchError, match="pivot"):
        solve_characteristics(pde, model)


def test_fully_degenerate_raises(model):
    pde = QuasiLinearPDE("D", c_r=ZERO, c_t=ZERO,
                         growth=parse("-a4", model.table))
    with pytest.raises(UnsupportedBranchError) as err:
        solve_characteristics(pde, model)
    assert "pivot" in str(err.value)


# --- degenerate material constraints -----------------------------------------

def test_constant_material_constraints(model):
    report = constant_material_constraints(model)
    assert report["constant_D"]["constraint"] == "a4 = 2*a2"
    assert report["constant_Gamma"]["constraint"] == "a4 = 0"
    assert report["zero_Gamma"]["constraint"] is None
    assert report["zero_Gamma"]["residual"] == "0"
    # oracle: substitute constant materials into the conditions directly
    table = model.table
    d_res = substitute(
        material_condition(model, "D").residual(model.D, model),
        {"D_r": ZERO, "D_t": ZERO, "a4": 2 * Sym("a2")}, table)
    assert d_res == ZERO
    g_res = substitute(
        material_condition(model, "Gamma").residual(model.Gamma, model),
        {"Gamma_r": ZERO, "Gamma_t": ZERO, "a4": ZERO}, table)
    assert g_res == ZERO
