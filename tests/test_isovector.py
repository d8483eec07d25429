import random
import sys

import pytest

from fluxsym import isovector, published
from fluxsym.forms import (
    DifferentialForm, SLOTS, basis_label, build_mu1, build_mu2, build_mu3,
    d_slot, exterior_d, scalar_form, wedge,
)
from fluxsym.isovector import (
    DerivationError, Generator, Reduction, audit_against_published,
    check_self_consistency, closure_check, _eliminate, extract_determining,
    ideal_reduce, lie_form, lie_scalar, solve_linear, strip_coordinates,
)
from fluxsym.kernel import (
    Add, Mul, ONE, Rat, Sym, ZERO, ZeroVerdict, apply_derivation, coefficient,
    collect_by, differentiate, is_zero, normalize, poly_div_exact,
    sign_normalize, substitute, to_text,
)
from fluxsym.model import standard_table
from fluxsym.parser import parse
from fluxsym.reports import determining_system_payload

from conftest import random_expression


@pytest.fixture()
def gen(model):
    return Generator.standard(model)


def standard_basis(model):
    r_mu1 = build_mu1(model, model.n)
    mu2 = build_mu2(model)
    return (("r*mu1", r_mu1, ("r", "phi")), ("mu2", mu2, ("t", "phi")))


# --- generator action ------------------------------------------------------

def test_lie_scalar_on_coordinates(model, gen):
    assert normalize(lie_scalar(gen, model.r, model)
                     - (Sym("a1") + Sym("a2") * model.r)) == ZERO
    assert lie_scalar(gen, Rat(5), model) == ZERO


def test_lie_scalar_on_material(model, gen):
    got = lie_scalar(gen, model.Gamma, model)
    expected = ((Sym("a1") + Sym("a2") * model.r) * Sym("Gamma_r")
                + (Sym("a3") + Sym("a4") * model.t) * Sym("Gamma_t"))
    assert normalize(got - expected) == ZERO


def test_lie_scalar_jet_propagation(model, gen):
    got = lie_scalar(gen, Sym("D_r"), model)
    expected = ((Sym("a1") + Sym("a2") * model.r) * Sym("D_rr")
                + (Sym("a3") + Sym("a4") * model.t) * Sym("D_rt"))
    assert normalize(got - expected) == ZERO


def _chi_by_its_own_jet_rule(s, gen, model):
    """The generator's action on a symbol with the jet rule written out
    here, independently of `differentiate`: a coordinate goes to its
    coefficient, a material function and each of its jets to
    xi_r * (one more r) + xi_t * (one more t), anything else to 0."""
    table = model.table
    info = table.info(s.name)
    if info.kind == "coordinate":
        return gen.coordinate_coefficient(s.name)
    if info.kind == "arbitrary-function" and info.arity == 0:
        base, (d_r, d_t) = s.name, (0, 0)
    elif info.kind == "jet":
        base, (d_r, d_t) = info.base, info.order
    else:
        return ZERO
    return Add(tuple(
        Mul((gen.coordinate_coefficient(q),
             table.jet(base, d_r + int(q == "r"), d_t + int(q == "t"))))
        for q in ("r", "t")))


def test_lie_scalar_is_the_jet_rule_along_the_generator(model):
    table = model.table
    table.jet("D", 2, 1)                 # a jet beyond the standard ones
    rng = random.Random(29)
    standard = Generator.standard(model)
    # and a generator with a1 = a4 = 0
    for gen in (standard, standard._replace(
            xi_r=normalize(Sym("a2") * model.r), xi_t=Sym("a3"))):
        def reference(e):
            return apply_derivation(
                e, lambda s: _chi_by_its_own_jet_rule(s, gen, model), table)
        for name in standard_table().names() + ["D_rrt"]:
            assert lie_scalar(gen, Sym(name), model) == reference(Sym(name)), name
        names = tuple(standard_table().names())
        for _ in range(200):
            e = random_expression(rng, names, depth=3, funcs=("G", "F"))
            assert lie_scalar(gen, e, model) == reference(e), e


def test_lie_form_of_basis_differential(model, gen):
    out = lie_form(gen, d_slot("r"), model)
    assert normalize(out.get("r") - Sym("a2")) == ZERO


def test_lie_form_mu2_matches_expansion(model, gen):
    out = lie_form(gen, build_mu2(model), model)
    a2, a4, a6, a7, a8 = (Sym(n) for n in ("a2", "a4", "a6", "a7", "a8"))
    assert normalize(out.get("t", "r")
                     - (a7 + a8 * model.w + (a4 + a2) * model.w)) == ZERO
    assert normalize(out.get("phi", "t") - (a6 + a4)) == ZERO


def test_lie_form_r_mu1_gradient_slot(model, gen):
    # the dw∧dt coefficient of the expanded flux-balance relation
    out = lie_form(gen, build_mu1(model, model.n), model)
    a1, a2, a3, a4, a8 = (Sym(n) for n in ("a1", "a2", "a3", "a4", "a8"))
    r, t, D = model.r, model.t, model.D
    expected = (r * ((a1 + a2 * r) * Sym("D_r") + (a3 + a4 * t) * Sym("D_t"))
                + D * ((a1 + a2 * r) + r * (a8 + a4)))
    assert normalize(out.get("w", "t") - expected) == ZERO


def test_lie_exterior_commutation(model, gen):
    # chi(d f) = d(chi f) for the material symbols and random scalars
    table = model.table
    rng = random.Random(41)
    cases = [model.D, model.Gamma, Sym("D_r")]
    names = ("r", "t", "phi", "w", "D", "Gamma", "a1", "a2", "v")
    cases += [normalize(random_expression(rng, names, depth=3))
              for _ in range(300)]
    for f in cases:
        lhs = lie_form(gen, exterior_d(scalar_form(f), table), model)
        rhs = exterior_d(scalar_form(lie_scalar(gen, f, model)), table)
        assert lhs.coefficients == rhs.coefficients


def test_lie_form_linear(model, gen):
    rng = random.Random(43)
    from test_forms import random_form
    for _ in range(50):
        alpha = random_form(rng, 2)
        beta = random_form(rng, 2)
        lhs = lie_form(gen, alpha + beta, model)
        rhs = lie_form(gen, alpha, model) + lie_form(gen, beta, model)
        assert lhs.coefficients == rhs.coefficients


def _lie_form_by_wedge_chain(gen, alpha, model):
    """Reference: each replaced-slot term as a chain of wedges starting from
    the coefficient."""
    table = model.table
    terms = []
    for key, coef in alpha.coefficients:
        terms.append((key, lie_scalar(gen, coef, model)))
        for i, slot in enumerate(key):
            chi_q = lie_scalar(gen, Sym(SLOTS[slot]), model)
            d_chi = exterior_d(scalar_form(chi_q), table)
            term = scalar_form(coef)
            for j, other in enumerate(key):
                term = wedge(term, d_chi if j == i else d_slot(SLOTS[other]))
            terms.extend(term.coefficients)
    return DifferentialForm.build(alpha.degree, terms)


def _system_forms(model):
    """r*mu1 at every geometry index, mu2 and mu3."""
    forms = [build_mu1(model, model.geometry_index(mode))
             for mode in ("symbolic", 0, 1, 2)]
    return forms + [build_mu2(model), build_mu3(model)]


def test_lie_form_matches_the_wedge_chain(model, gen):
    from test_forms import random_form
    rng = random.Random(47)
    names = ("r", "t", "phi", "w", "D", "Gamma", "a1", "v")
    forms = _system_forms(model) + [
        random_form(rng, degree, names, slots=SLOTS)
        for degree in (1, 2, 3) for _ in range(40)]
    for alpha in forms:
        assert (lie_form(gen, alpha, model).coefficients
                == _lie_form_by_wedge_chain(gen, alpha, model).coefficients)


# --- ideal reduction --------------------------------------------------------

def _ideal_reduce_in_three_steps(lie_mu, basis):
    """Reference: (multipliers, remainder) with each subtraction written as
    remainder - form.scale(lam)."""
    remainder = lie_mu
    multipliers = []
    for _, form, pivot in basis:
        inv = poly_div_exact(ONE, form.get(*pivot))
        lam = normalize(Mul((remainder.get(*pivot), inv)))
        remainder = remainder - form.scale(lam)
        multipliers.append(lam)
    return multipliers, remainder


def test_ideal_reduce_matches_the_three_step_subtraction(model, gen):
    from test_forms import random_form
    rng = random.Random(53)
    mu3_basis = (("mu3", build_mu3(model), ("t", "D")),)
    cases = []
    for mode in ("symbolic", 0, 1, 2):
        geometry = model.geometry_index(mode)
        r_mu1 = build_mu1(model, geometry)
        basis = (("r*mu1", r_mu1, ("r", "phi")),
                 ("mu2", build_mu2(model), ("t", "phi")))
        cases += [(lie_form(gen, r_mu1, model), basis),
                  (lie_form(gen, build_mu2(model), model), basis)]
        cases += [(random_form(rng, 2), basis) for _ in range(20)]
    cases.append((lie_form(gen, build_mu3(model), model), mu3_basis))
    cases += [(random_form(rng, 2, slots=SLOTS), mu3_basis)
              for _ in range(20)]
    for lie_mu, basis in cases:
        solve = ideal_reduce(lie_mu, basis)
        multipliers, remainder = _ideal_reduce_in_three_steps(lie_mu, basis)
        assert [lam for _, _, lam in solve.multipliers] == multipliers
        assert solve.residual_form.coefficients == remainder.coefficients


def test_ideal_reduce_mu2(model, gen):
    basis = standard_basis(model)
    solve = ideal_reduce(lie_form(gen, build_mu2(model), model), basis)
    mults = dict((name, lam) for name, _, lam in solve.multipliers)
    assert mults["r*mu1"] == ZERO
    # convention chi(mu) = sum(lambda * basis) + residual
    assert normalize(mults["mu2"] - (Sym("a6") + Sym("a4"))) == ZERO
    split = {}
    for slots, expr in solve.residual_form.coefficients:
        split.update({(basis_label(slots), to_text(k)): v
                      for k, v in collect_by(expr, ("phi", "w")).items()})
    assert normalize(split[("dt∧dr", "1")] - Sym("a7")) == ZERO
    assert sign_normalize(split[("dt∧dr", "w")]) == sign_normalize(
        normalize(Sym("a8") + Sym("a2") - Sym("a6")))


def test_ideal_reduce_r_mu1_multiplier(model, gen):
    # oracle: the dphi∧dr coefficient of the expanded relation divided by
    # the same coefficient of the r-multiplied flux form
    basis = standard_basis(model)
    lie = lie_form(gen, basis[0][1], model)
    pivot_ratio = normalize(
        lie.get("phi", "r") * Mul((model.v, model.r ** Rat(-1))))
    solve = ideal_reduce(lie, basis)
    lam1 = dict((name, lam) for name, _, lam in solve.multipliers)["r*mu1"]
    assert normalize(lam1 - pivot_ratio) == ZERO
    expected = parse("a1/r + 2*a2 + a6", model.table)
    assert normalize(lam1 - expected) == ZERO


def test_ideal_reduce_reconstruction_identity(model, gen):
    basis = standard_basis(model)
    lie = lie_form(gen, basis[0][1], model)
    solve = ideal_reduce(lie, basis)
    rebuilt = solve.residual_form
    for (name, form, _), (_, _, lam) in zip(basis,
                                            [(None, None, l) for _, _, l
                                             in solve.multipliers]):
        rebuilt = rebuilt + form.scale(lam)
    assert rebuilt.coefficients == lie.coefficients


def test_ideal_reduce_unsolvable_pivot(model, gen):
    # a pivot whose coefficient is a sum is reported, with the pivot named
    mixed = build_mu2(model) + build_mu1(model, model.n)
    with pytest.raises(DerivationError) as err:
        ideal_reduce(lie_form(gen, mixed, model),
                     (("mixed", mixed, ("t", "r")),))
    assert "pivot" in str(err.value)


def test_residual_split_gives_gamma_condition(model, gen):
    basis = standard_basis(model)
    solve = ideal_reduce(lie_form(gen, basis[0][1], model), basis)
    tr = {basis_label(slots): expr for slots, expr
          in solve.residual_form.coefficients}["dt∧dr"]
    groups = collect_by(tr, ("phi", "w"))
    gamma_part = strip_coordinates(groups[Sym("phi")])
    expected = parse(
        "(a1 + a2*r)*Gamma_r + (a3 + a4*t)*Gamma_t + a4*Gamma", model.table)
    assert sign_normalize(gamma_part) == sign_normalize(expected)
    flux_translation = groups[Rat(1)]
    assert sign_normalize(strip_coordinates(flux_translation)) == \
        sign_normalize(normalize(Sym("a5") * model.Gamma))


# --- determining system ------------------------------------------------------

def test_extract_symbolic_constraints(model):
    system = extract_determining(model, "symbolic")
    solved = {c.name: c.solved for c in system.constraints}
    assert solved == {"a5": "a5 = 0", "a7": "a7 = 0", "a8": "a8 = a6 - a2",
                      "geometry_lock": "n*a1 = 0"}
    lock = next(c for c in system.constraints if c.name == "geometry_lock")
    assert lock.assumption == "D != 0"
    assert sign_normalize(system.geometry_lock) == sign_normalize(
        normalize(Sym("n") * Sym("a1") * model.D))


def test_extract_planar_leaves_a1_free(model):
    system = extract_determining(model, 0)
    assert system.geometry_lock is None
    assert all(c.name != "geometry_lock" for c in system.constraints)


def test_extract_curvilinear_pins_a1(model):
    for mode in (1, 2):
        system = extract_determining(model, mode)
        lock = next(c for c in system.constraints
                    if c.name == "geometry_lock")
        assert lock.solved == "a1 = 0"


@pytest.mark.parametrize("mode", [True, False, 1.0, 0.0, "1", 3, -1, None])
def test_the_geometry_index_is_symbolic_or_an_int(model, mode):
    # True == 1 and 1.0 == 1, but neither is an index: a derive from one
    # reported it as the geometry mode
    with pytest.raises(ValueError):
        model.geometry_index(mode)
    with pytest.raises(ValueError):
        extract_determining(model, mode)


def test_geometry_index_values(model):
    assert model.geometry_index("symbolic") == model.n
    assert ([model.geometry_index(i) for i in (0, 1, 2)]
            == [Rat(0), Rat(1), Rat(2)])


def test_material_conditions_match_published_text(model):
    system = extract_determining(model, "symbolic")
    table = model.table
    eq_d = parse("(a1 + a2*r)*D_r + (a3 + a4*t)*D_t + (a8 + a4 - a2 - a6)*D",
                 table)
    assert sign_normalize(system.diffusion_pde) == sign_normalize(eq_d)
    eq_d_reduced = parse(
        "(a1 + a2*r)*D_r + (a3 + a4*t)*D_t - (2*a2 - a4)*D", table)
    assert sign_normalize(system.diffusion_pde_reduced) == \
        sign_normalize(eq_d_reduced)
    eq_gamma = parse(
        "(a1 + a2*r)*Gamma_r + (a3 + a4*t)*Gamma_t + a4*Gamma", table)
    assert sign_normalize(system.gamma_pde) == sign_normalize(eq_gamma)


def test_final_generator_coefficients(model):
    system = extract_determining(model, "symbolic")
    assert system.generator_final == {
        "r": "a1 + a2*r", "t": "a3 + a4*t",
        "phi": "a6*phi", "w": "-a2*w + a6*w"}


def test_geometry_specialization_commutes(model):
    symbolic = extract_determining(model, "symbolic")
    table = model.table
    for mode in (0, 1, 2):
        literal = extract_determining(model, mode)
        subs = {"n": Rat(mode)}
        for attr in ("diffusion_pde", "diffusion_pde_reduced", "gamma_pde",
                     "diffusion_second_order"):
            specialized = substitute(getattr(symbolic, attr), subs, table)
            assert sign_normalize(specialized) == \
                sign_normalize(getattr(literal, attr))
        lock = substitute(symbolic.geometry_lock, subs, table)
        if mode == 0:
            assert normalize(lock) == ZERO and literal.geometry_lock is None
        else:
            assert strip_coordinates(lock) == strip_coordinates(
                literal.geometry_lock)


def test_self_consistency_residuals_annihilated(model):
    # every stored residual vanishes under the constraint set plus the
    # material conditions (extract_determining re-checks internally; this
    # asserts the jet elimination directly on the gradient-slot residual)
    system = extract_determining(model, "symbolic")
    table = model.table
    e_dw = next(eq.expression for eq in system.residual_equations
                if eq.basis == "dt∧dw")
    relations = (("D_t", system.diffusion_pde,
                  coefficient(system.diffusion_pde, "D_t")),)
    reduced = _eliminate(e_dw, relations)
    assert is_zero(reduced) == ZeroVerdict.ZERO
    assert determining_system_payload(system)["unknown_verdicts"] == 0


def test_a_residual_the_system_does_not_imply_is_a_derivation_error(model):
    # a6 survives every constraint and material condition, so the first
    # residual no longer vanishes under the determining system
    system = extract_determining(model, "symbolic")
    first, *rest = system.residual_equations
    broken = system._replace(residual_equations=(
        first._replace(expression=first.expression + Sym("a6")), *rest))
    with pytest.raises(DerivationError,
                       match=r"^residual chi\(r\*mu1\) dt∧dr \[1\] does "
                             r"not vanish .*a6 \(nonzero\)$"):
        check_self_consistency(broken, model)


def test_solve_linear_helper(model):
    e = parse("a2 + a8 - a6", model.table)
    assert to_text(solve_linear(e, "a8")) == "a6 - a2"
    assert solve_linear(parse("a8^2 - a6", model.table), "a8") is None


# --- audit -------------------------------------------------------------------

def test_audit_statuses(model):
    system = extract_determining(model, "symbolic")
    report = audit_against_published(system, model)
    statuses = {row.identifier: row.status for row in report.rows}
    assert statuses["diffusion_first_order_reduced"] == "reproduced"
    assert statuses["diffusion_second_order"] == "implied"
    assert statuses["diffusion_second_order_reduced"] == "implied"
    assert statuses["diffusion_gradient_lock"] == "not-derivable"
    assert statuses["expanded_flux_phi_t_coefficient"] == "discrepant"
    assert report.unknown_verdicts == 0


def test_audit_grades_against_the_derived_constraints(model):
    # a derived a7 equation that is not the printed one is not reproduced,
    # though the reduction still implies the printed row
    system = extract_determining(model, "symbolic")
    broken = system._replace(constraints=tuple(
        c._replace(equation=c.equation + Sym("a5")) if c.name == "a7" else c
        for c in system.constraints))
    rows = {row.identifier: row
            for row in audit_against_published(broken, model).rows}
    assert rows["w_translation"].status == "implied"
    assert rows["w_translation"].engine_form is None


def test_audit_gradient_lock_conflicts_with_planar_translation(model):
    # the not-derivable grade is consistent: a planar-geometry family with
    # a1 != 0 and D_r != 0 satisfies every derived equation
    from fluxsym.characteristics import (back_substitute,
                                         material_condition,
                                         solve_characteristics)
    pde = material_condition(model, "D")
    sol = solve_characteristics(pde, model)
    assert back_substitute(sol, pde, model).verdict == "zero"
    assert "a1" in to_text(sol.expression)


def test_audit_grades_a_conflicting_printed_row_discrepant(model,
                                                           monkeypatch):
    # with its growth term's sign flipped the printed Gamma condition is
    # neither the derived one nor implied by the system
    monkeypatch.setitem(
        published.DETERMINING_EQUATIONS, "gamma_first_order",
        "(a1 + a2*r)*Gamma_r + (a3 + a4*t)*Gamma_t - a4*Gamma")
    system = extract_determining(model, "symbolic")
    report = audit_against_published(system, model)
    row = next(r for r in report.rows if r.identifier == "gamma_first_order")
    assert (row.status, row.note) == ("discrepant",
                                      "conflicts with the derived equation")
    assert row.engine_form == to_text(strip_coordinates(system.gamma_pde))
    assert report.unknown_verdicts == 0


def test_audit_second_order_is_r_derivative(model):
    system = extract_determining(model, "symbolic")
    table = model.table
    derived = differentiate(system.diffusion_pde_reduced, "r", table)
    printed = parse(
        "(a1 + a2*r)*D_rr + (a3 + a4*t)*D_rt - (a2 - a4)*D_r", table)
    assert normalize(sign_normalize(derived) - sign_normalize(printed)) == ZERO


def test_audit_expansion_delta_is_duplicated_term(model):
    system = extract_determining(model, "symbolic")
    report = audit_against_published(system, model)
    row = next(r for r in report.rows
               if r.identifier == "expanded_flux_phi_t_coefficient")
    assert "D_r*a1 + D_r*a2*r" in row.note


def test_derive_and_audit_take_each_lie_derivative_once(model, monkeypatch):
    from fluxsym import isovector
    forms = []
    real = isovector.lie_form

    def recording(gen, alpha, model):
        forms.append(alpha)
        return real(gen, alpha, model)
    monkeypatch.setattr(isovector, "lie_form", recording)
    system = extract_determining(model, "symbolic")
    audit_against_published(system, model)
    assert forms == [build_mu1(model, model.n),
                     build_mu2(model)]


@pytest.mark.parametrize("mode", ["symbolic", 0, 1, 2])
def test_the_shared_reducer_matches_a_fresh_one(model, mode):
    # the reduction a derive builds once gives, for every residual equation
    # and every printed audit row, the branches of one built from the
    # system's public fields
    table = model.table
    system = extract_determining(model, mode)
    a8_equation = next(c.equation for c in system.constraints
                       if c.name == "a8")
    relations = tuple(
        (jet, relation, coefficient(relation, jet)) for jet, relation in (
            ("D_t", system.diffusion_pde),
            ("D_rt", differentiate(system.diffusion_pde, "r", table)),
            ("Gamma_t", system.gamma_pde)))
    links = {"a5": ZERO, "a7": ZERO, "a8": solve_linear(a8_equation, "a8")}
    pins = ()
    if system.geometry_lock is not None:
        pins = ({"n": ZERO}, {"a1": ZERO}) if mode == "symbolic" else (
            {"a1": ZERO},)
    fresh = Reduction(relations, links, pins)
    literal = ({} if mode == "symbolic"
               else {"n": model.geometry_index(mode)})
    printed = [sign_normalize(strip_coordinates(
        substitute(parse(text, table), literal, table)))
        for text in published.DETERMINING_EQUATIONS.values()]
    expressions = [eq.expression for eq in system.residual_equations] + printed
    for e in expressions:
        assert system.reduction.branches(e, table) == fresh.branches(e, table)


def test_one_reducer_per_derive(model, monkeypatch):
    # a derive and its audit take each relation's jet coefficient once
    taken = []
    real = isovector.coefficient

    def recording(e, jet_name):
        taken.append((e, jet_name))
        return real(e, jet_name)
    monkeypatch.setattr(isovector, "coefficient", recording)
    system = extract_determining(model, "symbolic")
    audit_against_published(system, model)
    for jet, relation, _ in system.reduction.relations:
        assert sum(e is relation and name == jet for e, name in taken) == 1


def test_two_derives_are_equal_reduction_included(model):
    from fluxsym.reports import determining_system_payload
    first = extract_determining(model, "symbolic")
    second = extract_determining(model, "symbolic")
    assert first.reduction is not second.reduction
    assert first.reduction == second.reduction
    assert first == second
    assert determining_system_payload(first) == determining_system_payload(
        second)


def _count_calls(monkeypatch, module_name, function_name):
    """Count the calls of a fluxsym function wherever a fluxsym module binds
    it, as the benchmark's tracer does."""
    original = getattr(sys.modules[module_name], function_name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "fluxsym" or name.startswith("fluxsym."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("argv, function", [
    (["derive", "--n", "symbolic"], "wedge"),
    (["verify", "--closure"], "section"),
])
def test_the_forms_layer_stays_on_the_command_path(tmp_path, monkeypatch,
                                                   argv, function):
    # the benchmark's traced run fails when a heavy layer records no call;
    # forms.wedge on derive and forms.section on verify --closure are two
    from fluxsym.cli import main
    calls = _count_calls(monkeypatch, "fluxsym.forms", function)
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert calls


# --- closure -----------------------------------------------------------------

def test_closure_identically_satisfied(model):
    result = closure_check(model)
    assert result.identically_zero
    assert normalize(result.multiplier - Sym("a4")) == ZERO
    assert result.residual == ZERO


def test_closure_reduces_through_ideal_reduce(model, monkeypatch):
    from fluxsym import isovector
    calls = []
    real = isovector.ideal_reduce

    def recording(lie_mu, basis):
        calls.append(tuple(name for name, _, _ in basis))
        return real(lie_mu, basis)
    monkeypatch.setattr(isovector, "ideal_reduce", recording)
    assert closure_check(model).identically_zero
    assert calls == [("mu3",)]


def test_closure_mutation_detects_gradient_action(model, monkeypatch):
    # mis-set the generator's action on D_r to zero
    real = isovector._lie_symbol
    monkeypatch.setattr(
        isovector, "_lie_symbol",
        lambda s, gen, m: ZERO if s.name == "D_r" else real(s, gen, m))
    result = closure_check(model)
    assert not result.identically_zero
    expected = normalize((Sym("a1") + Sym("a2") * model.r) * Sym("D_rr")
                         + (Sym("a3") + Sym("a4") * model.t) * Sym("D_rt"))
    assert sign_normalize(result.residual) == sign_normalize(expected)


def test_closure_trivial_generator(model):
    gen0 = Generator(ZERO, ZERO, ZERO, ZERO)
    out = lie_form(gen0, build_mu3(model), model)
    assert out.is_zero()
