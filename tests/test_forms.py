import random

import pytest

from fluxsym.forms import (
    DifferentialForm, SLOTS,
    build_mu1, build_mu2, build_mu3, d_slot, exterior_d, scalar_form,
    section, wedge,
)
from fluxsym.kernel import Rat, Sym, ZERO, normalize, sign_normalize
from fluxsym.model import COORDINATES

from conftest import form_scale, random_expression


def form_of(degree, *terms):
    return DifferentialForm.build(degree, terms)


def random_form(rng, degree, names=("r", "t", "phi", "w", "D"),
                slots=COORDINATES):
    slots = list(slots)
    terms = []
    for _ in range(rng.randint(1, 3)):
        picked = tuple(rng.sample(slots, degree))
        terms.append((picked, random_expression(rng, names, depth=2)))
    return DifferentialForm.build(degree, terms)


# --- wedge algebra -------------------------------------------------------

def test_wedge_antisymmetric_on_all_pairs():
    for a in SLOTS:
        for b in SLOTS:
            lhs = wedge(d_slot(a), d_slot(b))
            rhs = form_scale(wedge(d_slot(b), d_slot(a)), Rat(-1))
            assert lhs.coefficients == rhs.coefficients


def test_wedge_repeated_slot_vanishes():
    for name in SLOTS:
        assert not wedge(d_slot(name), d_slot(name)).coefficients


def test_wedge_bilinear_with_coefficients(model):
    f = Sym("a1") + Sym("a2") * Sym("r")
    g = Sym("v")
    lhs = wedge(form_of(1, (("r",), f)), form_of(1, (("t",), g)))
    assert normalize(lhs.get("r", "t") - normalize(f * g)) == ZERO
    assert normalize(lhs.get("t", "r") + normalize(f * g)) == ZERO


def test_wedge_graded_anticommutative_random(model):
    rng = random.Random(5)
    for _ in range(300):
        da = rng.randint(0, 2)
        db = rng.randint(0, 2 - (da > 1))
        alpha = random_form(rng, da) if da else scalar_form(
            random_expression(rng, ("r", "t", "a1"), depth=2))
        beta = random_form(rng, db) if db else scalar_form(
            random_expression(rng, ("r", "t", "a2"), depth=2))
        sign = Rat((-1) ** (da * db))
        lhs = wedge(alpha, beta)
        rhs = form_scale(wedge(beta, alpha), sign)
        assert lhs.coefficients == rhs.coefficients


def test_wedge_past_the_six_slots_is_the_zero_form():
    four = wedge(wedge(d_slot("t"), d_slot("r")),
                 wedge(d_slot("phi"), d_slot("w")))
    assert four.coefficients
    seven = wedge(four, wedge(d_slot("D"), wedge(d_slot("Gamma"), four)))
    assert not seven.coefficients


def test_wedge_associative_random(model):
    rng = random.Random(9)
    for _ in range(100):
        a = random_form(rng, 1)
        b = random_form(rng, 1)
        c = random_form(rng, 1)
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert lhs.coefficients == rhs.coefficients


# --- exterior derivative --------------------------------------------------

def test_exterior_d_material_symbol(model):
    df = exterior_d(scalar_form(model.D), model.table)
    assert df.get("r") == Sym("D_r")
    assert df.get("t") == Sym("D_t")


def test_exterior_d_coordinate(model):
    dphi = exterior_d(scalar_form(model.phi), model.table)
    assert dphi.get("phi") == Rat(1)
    assert dphi.get("r") == ZERO


def test_exterior_d_nilpotent_random(model):
    rng = random.Random(21)
    names = ("r", "t", "phi", "w", "D", "Gamma", "a1", "a2", "v")
    for _ in range(300):
        f = scalar_form(random_expression(rng, names, depth=3))
        dd = exterior_d(exterior_d(f, model.table), model.table)
        assert not dd.coefficients
    for _ in range(50):
        alpha = random_form(rng, 1, names)
        dd = exterior_d(exterior_d(alpha, model.table), model.table)
        assert not dd.coefficients


def test_exterior_d_nilpotent_on_system_forms(model):
    table = model.table
    for form in (build_mu1(model, model.n), build_mu2(model)):
        assert not exterior_d(exterior_d(form, table), table).coefficients


# --- the system of 2-forms -------------------------------------------------

def test_mu2_coefficients(model):
    mu2 = build_mu2(model)
    assert mu2.get("t", "r") == model.w
    assert mu2.get("phi", "t") == Rat(1)


def test_mu1_planar_has_no_curvature_term(model):
    r_mu1 = build_mu1(model, model.geometry_index(0))
    coef = r_mu1.get("phi", "t")
    assert normalize(coef - model.r * Sym("D_r")) == ZERO


def test_geometry_index_validation(model):
    # build_mu1 takes its geometry from geometry_index, which refuses any
    # index but 'symbolic', 0, 1 and 2
    for mode in (3, -1, 1.0, True, "planar"):
        with pytest.raises(ValueError):
            model.geometry_index(mode)


def test_mu1_r_multiplied_regularizes(model):
    r_mu1 = build_mu1(model, model.n)
    coef = r_mu1.get("phi", "t")
    # n D + r D_r: no r^(-1) factor remains
    assert normalize(coef - (model.n * model.D + model.r * Sym("D_r"))) == ZERO


def test_mu3_formal_and_expanded(model):
    mu3 = build_mu3(model)
    assert mu3.get("r", "t") == Sym("D_r")
    assert mu3.get("D", "t") == Rat(-1)
    assert not section(build_mu3(model), model.table).coefficients


# --- sectioning ------------------------------------------------------------

def _dt_dr_coefficient(sectioned):
    """The dt∧dr coefficient of a sectioned 2-form, its only slot."""
    assert [key for key, _ in sectioned.coefficients] == [
        (SLOTS.index("t"), SLOTS.index("r"))]
    return sectioned.get("t", "r")


def test_section_mu2_gives_gradient_definition(model):
    res = _dt_dr_coefficient(section(build_mu2(model), model.table))
    assert normalize(res - (model.w - Sym("phi_r"))) == ZERO


def test_section_mu1_recovers_governing_equation(model):
    # r*mu1 sections to r times the governing equation
    res = _dt_dr_coefficient(
        section(build_mu1(model, model.n), model.table))
    v, n, r = model.v, model.n, model.r
    expected = r * (-Sym("phi_t") / v + n * model.D * Sym("phi_r") / r
                    + Sym("D_r") * Sym("phi_r") + model.D * Sym("w_r")
                    + model.Gamma * model.phi)
    assert sign_normalize(res) == sign_normalize(normalize(expected))


def test_section_of_base_coordinate_unchanged(model):
    out = section(d_slot("r"), model.table)
    assert out.get("r") == Rat(1)


def test_section_is_wedge_homomorphism(model):
    rng = random.Random(33)
    table = model.table
    for _ in range(300):
        alpha = random_form(rng, 1)
        beta = random_form(rng, 1)
        lhs = section(wedge(alpha, beta), table)
        rhs = wedge(section(alpha, table), section(beta, table))
        assert lhs.coefficients == rhs.coefficients


def _section_by_wedge_chain(alpha, table):
    """Reference: section each term by wedging its coefficient with one
    sectioned differential at a time."""
    repl = {name: form_of(1, (("r",), table.jet(name, 1, 0)),
                          (("t",), table.jet(name, 0, 1)))
            for name in ("phi", "w", "D", "Gamma")}
    terms = []
    for key, coef in alpha.coefficients:
        term = scalar_form(coef)
        for i in key:
            name = SLOTS[i]
            term = wedge(term, repl[name] if name in repl else d_slot(name))
        terms.extend(term.coefficients)
    return DifferentialForm.build(alpha.degree, terms)


def test_section_matches_the_wedge_chain(model):
    table = model.table
    rng = random.Random(41)
    forms = [build_mu1(model, model.geometry_index(mode))
             for mode in ("symbolic", 0, 1, 2)]
    forms += [build_mu2(model), build_mu3(model)]
    forms += [random_form(rng, degree, slots=SLOTS)
              for degree in (1, 2, 3) for _ in range(60)]
    for alpha in forms:
        assert (section(alpha, table).coefficients
                == _section_by_wedge_chain(alpha, table).coefficients)


def test_round_trip_matches_governing_residuals(model):
    # the sectioned system equals the first-order reduction of the governing
    # equation (gradient definition and r times the flux balance) up to
    # overall sign
    table = model.table
    gradient = _dt_dr_coefficient(section(build_mu2(model), table))
    assert sign_normalize(gradient) == sign_normalize(
        normalize(model.w - Sym("phi_r")))
    balance = _dt_dr_coefficient(section(build_mu1(model, model.n), table))
    governing = model.r * (-Sym("phi_t") / model.v
                           + model.n * model.D * Sym("phi_r") / model.r
                           + Sym("D_r") * Sym("phi_r") + model.D * Sym("w_r")
                           + model.Gamma * model.phi)
    assert sign_normalize(balance) == sign_normalize(normalize(governing))
