import math
import random
import re
from fractions import Fraction

import pytest

from fluxsym import kernel
from fluxsym.kernel import (
    Add, Call, EvaluationError, KernelError, MINUS_ONE, Mul, ONE, Pow, Rat,
    Sym, ZERO, ZeroVerdict, as_expr, coefficient, differentiate, evaluate, is_zero,
    linear_combination, normalize, sign_normalize, substitute, to_text,
    collect_by, poly_div_exact, strip_coordinates, UndeclaredSymbolError,
)
from fluxsym.isovector import extract_determining
from fluxsym.model import Model
from fluxsym.parser import parse

from conftest import random_expression


def syms(*names):
    return tuple(Sym(n) for n in names)


# --- normalization -----------------------------------------------------

def test_normalize_cancelling_sum(model):
    a2, a6, a8 = syms("a2", "a6", "a8")
    assert normalize(a6 - a2 - a8 + a8 + a2 - a6) == ZERO


def test_normalize_ring_identity(model):
    x = model.table.declare("x", "parameter")
    y = model.table.declare("y", "parameter")
    assert normalize((x + y) * (x - y) - x**2 + y**2) == ZERO


def _copy(e):
    """A structurally equal tree built afresh, node by node."""
    if isinstance(e, (Rat, Sym)):
        return type(e)(e.value if isinstance(e, Rat) else e.name)
    if isinstance(e, Add):
        return Add(tuple(_copy(t) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_copy(f) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(_copy(e.base), _copy(e.exponent))
    return Call(e.func, tuple(_copy(a) for a in e.args))


def test_normalize_idempotent_on_random_expressions(model):
    rng = random.Random(7)
    names = ("r", "t", "a1", "a2", "a3", "a4", "phi", "w", "D", "Gamma")
    for _ in range(1000):
        e = random_expression(rng, names, depth=3)
        n = normalize(e)
        assert normalize(n) == n
        # a normal form built afresh is read back, not passed through
        assert normalize(_copy(n)) == n


# --- the node contract ---------------------------------------------------

_FIELDS = {Rat: ("value",), Sym: ("name",), Add: ("terms",),
           Mul: ("factors",), Pow: ("base", "exponent"), Call: ("func", "args")}


def _nodes(count=300):
    """A node of every type, then random expressions and their normal forms."""
    x, y = Sym("x"), Sym("y")
    nodes = [Rat(2), x, Add((x, y)), Mul((x, y)), Pow(x, Rat(3)),
             Call("G", (x,))]
    rng = random.Random(13)
    names = ("r", "t", "a1", "a2", "phi", "D")
    for _ in range(count):
        e = random_expression(rng, names, depth=3, funcs=("G", "exp"))
        nodes += [e, normalize(e)]
    return nodes


def test_nodes_are_immutable(model):
    for node in _nodes(100):
        before = hash(node)
        for name in _FIELDS[type(node)] + ("_hash", "_key", "_poly"):
            with pytest.raises(AttributeError):
                setattr(node, name, ZERO)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert hash(node) == before
        assert node == _copy(node)


def test_equal_trees_are_equal_and_hash_alike(model):
    assert {type(node) for node in _nodes(0)} == set(_FIELDS)
    for node in _nodes():
        # the copy has none of the caches the original may have filled
        copy = _copy(node)
        assert copy is not node
        assert copy == node and not copy != node
        assert hash(copy) == hash(node)


def test_nodes_of_different_types_are_unequal():
    x, y = Sym("x"), Sym("y")
    assert Add((x, y)) != Mul((x, y))
    assert Rat(1) != Sym("1")
    assert Pow(x, y) != Call("x", (y,))
    nodes = _nodes(0)
    for a in nodes:
        assert [b for b in nodes if b == a] == [a]
    assert Add((x, y)) != (x, y) and Rat(1) != 1


def test_normalizing_a_normal_form_returns_it(model):
    for node in _nodes():
        n = normalize(node)
        assert normalize(n) is n


def test_rat_takes_what_as_expr_takes():
    assert Rat(3) == Rat(Fraction(6, 2)) == as_expr(3)
    assert type(Rat(3).value) is Fraction
    for bad in (0.1, 1.0, True, False, "1", None, complex(1, 0)):
        with pytest.raises(TypeError):
            Rat(bad)
        with pytest.raises(TypeError):
            as_expr(bad)


def test_normalize_commutative_and_distributive(model):
    rng = random.Random(11)
    names = ("r", "t", "a1", "a2", "v")
    for _ in range(300):
        e1 = random_expression(rng, names, depth=2)
        e2 = random_expression(rng, names, depth=2)
        e3 = random_expression(rng, names, depth=2)
        assert normalize(e1 + e2) == normalize(e2 + e1)
        assert normalize(e1 * (e2 + e3)) == normalize(e1 * e2 + e1 * e3)


def test_same_base_powers_combine(model):
    a2, a3, a4, t = syms("a2", "a3", "a4", "t")
    base = a3 + a4 * t
    x = 2 * a2 / a4 - 1
    assert normalize(base ** x * base ** (1 - 2 * a2 / a4)) == Rat(1)
    assert normalize(base ** x * base ** (3 - 2 * a2 / a4)) == normalize(base * base)


def test_inverse_of_sum_cancels(model):
    a3, a4, t = syms("a3", "a4", "t")
    base = a3 + a4 * t
    assert normalize(base * base ** Rat(-1)) == Rat(1)
    assert normalize(base**2 * base ** Rat(-1)) == normalize(base)


def test_sums_merge_across_the_factors_of_a_product(model):
    # a sum to a positive integer power is multiplied out, unless the
    # product holds another power of the same sum: then the exponents add
    a, b, e = syms("a", "b", "e")
    a3, a4, t = syms("a3", "a4", "t")
    half = Rat(Fraction(1, 2))
    assert normalize((a + b) ** 2 * (a + b) ** half) == normalize(
        (a + b) ** Rat(Fraction(5, 2)))
    assert normalize((a + b) * (a + b) ** Rat(-1)) == Rat(1)
    assert normalize((a3 + a4 * t) * (a3 + a4 * t) ** (e - 1)) == normalize(
        (a3 + a4 * t) ** e)
    assert normalize((2 * a + 2 * b) * (a + b)) == normalize(
        2 * a**2 + 4 * a * b + 2 * b**2)
    assert to_text(normalize((2 * a + 2 * b) ** half * (a + b))) == (
        "2^(1/2)*(a + b)^(3/2)")


def test_products_with_an_opaque_sum_power_are_canonical(model):
    # the sum becomes an opaque base to add its exponent to the power, and
    # its product with the constant term must still be multiplied out
    a, b = syms("a", "b")
    half = Rat(Fraction(1, 2))
    want = normalize(a + b + (a + b) ** Rat(Fraction(3, 2)))
    for e in ((a + b) * (1 + (a + b) ** half),
              (1 + (a + b) ** half) * (a + b)):
        assert normalize(e) == want
        assert is_zero(normalize(e) - want) == ZeroVerdict.ZERO
    # a sum squared that multiplies out to an opaque base joins its power
    square = normalize((a + b) ** 2)
    assert normalize((a + b) ** 2 * square ** half) == normalize(
        square ** Rat(Fraction(3, 2)))


def test_a_sum_joins_a_power_in_the_terms_of_another_factor(model):
    # the sum joins the opaque (a+b)^(1/2) in the other factor's terms
    # whatever the order of the factors, so both orders are one tree
    a, b, x = syms("a", "b", "x")
    half = Rat(Fraction(1, 2))
    first = normalize(x * (a + b) * (1 + (a + b) ** half))
    second = normalize((1 + (a + b) ** half) * x * (a + b))
    assert first == second == normalize(
        a * x + b * x + x * (a + b) ** Rat(Fraction(3, 2)))
    assert is_zero(first - second) == ZeroVerdict.ZERO


def test_products_of_shared_sums_have_one_normal_form(model):
    # a product decides once which of its sums stay opaque bases, so
    # neither the order of its factors nor a factor written as two powers
    # of its base changes its normal form, and the printed normal form
    # parses back to it
    table = model.table
    rng = random.Random(37)
    sums = [parse(s, table) for s in (
        "a1 + a2", "a3 + a4*t", "2*a1 + 2*a2", "1 + r", "a1 - a2", "r + a1*t")]
    exponents = [parse(x, table) for x in (
        "1", "2", "3", "-1", "1/2", "-1/2", "3/2", "a2/a4", "a2/a4 - 1")]
    for _ in range(300):
        factors = []
        for _ in range(rng.randint(3, 4)):
            base = rng.choice(sums)
            u = rng.random()
            if u < 0.3:         # a sum that holds a power of a shared sum
                base = 1 + base ** rng.choice(exponents[4:])
            elif u < 0.45:
                base = Sym(rng.choice(("r", "t", "a3")))
            factors.append(base ** rng.choice(exponents))
        j = rng.randrange(len(factors))
        base, x = factors[j].base, factors[j].exponent
        half = rng.choice(exponents[4:7])
        split = (factors[:j] + [base ** half, base ** (x - half)]
                 + factors[j + 1:])
        forms = {normalize(Mul(tuple(order))) for order in (
            factors, factors[::-1], factors[1:] + factors[:1], split)}
        assert len(forms) == 1, factors
        n, = forms
        assert parse(to_text(n), table) == n, to_text(n)


def test_constant_power_with_integer_exponent_joins_the_coefficient():
    h = Pow(Rat(2), Rat(Fraction(1, 2)))
    assert normalize(h * h - 2) == ZERO
    assert normalize(1 + h * h) == Rat(3)
    assert normalize((1 + h) ** Rat(3)) == normalize(7 + 5 * h)


@pytest.mark.parametrize("text, message", [
    ("10^(10^7)", "10^10000000"), ("(1/3)^(10^7)", "3^-10000000"),
    # the content of a sum base
    ("(-3/2 - 3/2*r)^(-10^7)", "(-3/2)^-10000000")])
def test_a_constant_power_past_2_22_bits_is_refused_before_it_is_formed(
        model, text, message):
    # |k| times the bit length of the base bounds the bits of c^k
    with pytest.raises(KernelError, match=rf"^the constant power "
                                          rf"{re.escape(message)} would take "
                                          rf"more than 2\^22 bits$"):
        parse(text, model.table)


def test_a_power_of_1_or_minus_1_is_not_bounded(model):
    # its bits do not grow with k
    assert normalize(parse("(-1)^(10^9) + 1^(-10^9)", model.table)) == Rat(2)


@pytest.mark.parametrize("text", [
    "1/0", "(r-r)^(-1) - (t-t)^(-1)", "0*(r-r)^(-1)", "(r-r)^(-1)*0",
    "0^a1", "0^(-1/2)", "r + 0^(a1 - a2)"])
def test_a_zero_base_to_a_negative_or_symbolic_power_is_refused(model, text):
    with pytest.raises(KernelError, match=r"has a zero base and a negative "
                                          r"or symbolic exponent$"):
        parse(text, model.table)


def test_zero_to_a_constant_power(model):
    # 0^0 is 1 and 0^x is 0 for a constant x > 0
    assert parse("0^0", model.table) == ONE
    assert parse("0^(1/2)", model.table) == ZERO
    assert parse("r + 2*0^(3/2)", model.table) == Sym("r")


def test_is_zero_of_cancelling_poles_is_not_zero():
    # (r-r)^(-1) - (t-t)^(-1) once normalized to 0, a structural zero
    r, t = Sym("r"), Sym("t")
    e = Add((Pow(r - r, MINUS_ONE), Mul((MINUS_ONE, Pow(t - t, MINUS_ONE)))))
    with pytest.raises(KernelError):
        is_zero(e)


@pytest.mark.parametrize("text, message", [
    ("(1 + r)^400", "a power of a sum of 2 terms would expand to more than "
                    "400 terms"),
    ("(1 + r + t)^27", "a power of a sum of 3 terms would expand to more "
                       "than 400 terms"),
    ("(1 + r)^(10^5000)", "a power of a sum of 2 terms would expand to more "
                          "than 400 terms"),
    ("(10^100000 + r)^300", "a power of a sum would take more than 2^22 bits"),
    ("(r + 1/10^100000)^300", "a power of a sum would take more than 2^22 "
                              "bits")])
def test_a_power_of_a_sum_past_the_bound_is_refused_before_it_is_formed(
        model, text, message):
    with pytest.raises(KernelError, match=rf"^{re.escape(message)}$"):
        parse(text, model.table)


def test_a_power_of_a_sum_at_the_bound_is_expanded_exactly(model):
    # C(k+m-1, m-1) terms, at most 400: 400 for a binomial to the 399th and
    # 378 for a trinomial to the 26th
    assert len(parse("(1 + r)^399", model.table).terms) == 400
    assert len(parse("(1 + r + t)^26", model.table).terms) == 378
    # rational coefficients are multiplied out over the integers
    k = 7
    expected = linear_combination(
        (math.comb(k, i) * Fraction(1, 3) ** (k - i) * Fraction(-2, 5) ** i,
         Sym("r") ** Rat(i)) for i in range(k + 1))
    assert parse("(1/3 - 2*r/5)^7", model.table) == expected


def test_constant_power_keeps_an_exponent_below_one(model):
    # the integer part of the exponent joins the coefficient, so a product
    # has one normal form whatever order its exponents are added in
    table = model.table
    assert to_text(normalize(parse("2^(3/2)", table))) == "2*2^(1/2)"
    assert normalize(parse("2^(-1/2)", table)) == normalize(
        parse("1/2*2^(1/2)", table))
    e = parse("2*2^(1/2) - 2^(3/2)", table)
    assert normalize(e) == ZERO
    assert is_zero(e) == ZeroVerdict.ZERO


def test_sign_normalize_flips_leading_negative():
    a6, a2, a8 = syms("a6", "a2", "a8")
    assert sign_normalize(a6 - a2 - a8) == sign_normalize(a8 + a2 - a6)


def test_collect_by_monomials():
    phi, w, a5, a6 = syms("phi", "w", "a5", "a6")
    groups = collect_by(a5 + a6 * phi + w * (a6 + a5), ("phi", "w"))
    assert normalize(groups[Sym("phi")] - a6) == ZERO
    assert normalize(groups[Sym("w")] - (a6 + a5)) == ZERO
    assert normalize(groups[Rat(1)] - a5) == ZERO


def test_coefficient_matches_collect_by(model):
    rng = random.Random(29)
    names = ("r", "t", "a1", "a2", "phi", "w", "D")
    for _ in range(300):
        e = random_expression(rng, names, depth=3, funcs=("G",))
        for name in ("r", "phi", "a1", "x"):
            assert coefficient(e, name) == collect_by(e, (name,)).get(
                Sym(name), ZERO)
    e = Sym("a1") * Sym("r") + Sym("r") ** Rat(Fraction(1, 2))
    with pytest.raises(KernelError) as ours:
        coefficient(e, "r")
    with pytest.raises(KernelError) as theirs:
        collect_by(e, ("r",))
    assert str(ours.value) == str(theirs.value)


def test_cached_polys_are_never_updated_in_place(model):
    # a normal form hands its poly out read-only: no kernel function that
    # reads it may change it
    table = model.table
    rng = random.Random(31)
    names = ("r", "t", "a1", "a2", "phi", "D", "D_r")
    half = Rat(Fraction(1, 2))
    forms = []
    for _ in range(150):
        e = normalize(random_expression(rng, names, depth=3, funcs=("G",)))
        f = normalize(random_expression(rng, names, depth=2))
        # opaque sum powers, so that sums merge across factors
        forms += [e, normalize(Mul((e, Pow(f, half), f, Pow(e, half))))]
    for e, other in zip(forms, forms[1:] + forms[:1]):
        kept = {id(n): dict(n._poly) for n in (e, other)
                if getattr(n, "_poly", None) is not None}
        normalize(Mul((e, other, e)))
        linear_combination(((2, e), (-1, other), (1, e)))
        for split in (lambda: collect_by(e, ("r", "t")),
                      lambda: coefficient(e, "r")):
            try:
                split()
            except KernelError:     # r to a non-integer power
                pass
        sign_normalize(e)
        strip_coordinates(e)
        poly_div_exact(e, other)
        poly_div_exact(normalize(Mul((e, other))), other)
        substitute(e, {"a1": other}, table)
        differentiate(e, "r", table)
        for n in (e, other):
            if id(n) in kept:
                assert n._poly == kept[id(n)], n
        # a substitution that binds nothing in `e` returns `e` itself
        assert substitute(e, {"a9": ZERO}, table) is e


def test_poly_div_exact_monomial_quotient():
    n, a3, a4, t = syms("n", "a3", "a4", "t")
    quotient = poly_div_exact(normalize(n * (a3 + a4 * t)),
                              normalize(a3 + a4 * t))
    assert normalize(quotient - n) == ZERO
    assert poly_div_exact(normalize(a3), normalize(a3 + a4 * t)) is None


def test_strip_coordinates_clears_a_power_of_r():
    n, a1, D, r = syms("n", "a1", "D", "r")
    e = normalize(-n * a1 * D * r ** Rat(-1))
    assert strip_coordinates(e) == normalize(n * a1 * D)


def test_strip_coordinates_is_already_sign_normalized(model):
    # strip_coordinates integerizes with the leading coefficient positive,
    # so sign_normalize has nothing left to do, and the result is a normal
    # form that normalizing a fresh copy reproduces
    rng = random.Random(19)
    names = ("r", "t", "a1", "a2", "n", "D", "D_r")
    for _ in range(500):
        e = random_expression(rng, names, depth=3)
        stripped = strip_coordinates(e)
        assert sign_normalize(stripped) == stripped
        assert normalize(_copy(stripped)) == stripped


def test_strip_coordinates_does_not_depend_on_term_order(model):
    table = model.table
    x = parse("(a4 - a3)*t^(-2)", table)
    stripped = parse("a3 - a4 + 4*t^2", table)
    assert strip_coordinates(Add((Rat(-4), x))) == normalize(stripped)
    assert strip_coordinates(Add((x, Rat(-4)))) == normalize(stripped)
    assert strip_coordinates(parse("a1*t^3*r^(-1) + t^2*r", table)) == \
        normalize(parse("r^2 + a1*t", table))


def test_a_canonical_equation_comes_back_as_itself(model):
    # a normal form that is already stripped, or already sign-normalized,
    # is returned as the same object: nothing is rebuilt
    system = extract_determining(Model())
    for eq in (system.diffusion_pde, system.gamma_pde, system.geometry_lock):
        assert strip_coordinates(eq) is eq
    assert sign_normalize(system.diffusion_pde_reduced) is \
        system.diffusion_pde_reduced
    rng = random.Random(23)
    names = ("r", "t", "a1", "a2", "n", "D", "D_r")
    for _ in range(300):
        stripped = strip_coordinates(random_expression(rng, names, depth=3))
        assert strip_coordinates(stripped) is stripped
        assert sign_normalize(stripped) is stripped
    # a form that stripping changes is rebuilt
    a1, r = syms("a1", "r")
    e = normalize(2 * r * a1)
    assert strip_coordinates(e) == a1
    negated = normalize(-e)
    assert sign_normalize(negated) == e and sign_normalize(negated) is not negated


# --- differentiation ----------------------------------------------------

def test_differentiate_function_symbol_gives_jet(model):
    assert differentiate(model.D, "r", model.table) == Sym("D_r")
    assert differentiate(Sym("D_r"), "t", model.table) == Sym("D_rt")


def test_differentiate_linear(model):
    a1, a2, r = syms("a1", "a2", "r")
    assert normalize(differentiate(a1 + a2 * r, "r", model.table) - a2) == ZERO


def test_differentiate_an_undeclared_symbol_raises(model):
    with pytest.raises(UndeclaredSymbolError,
                       match="^symbol 'zz' is not declared$"):
        differentiate(Sym("zz"), "r", model.table)


def test_differentiate_coordinates_independent(model):
    # phi and w are independent coordinates at this layer
    assert differentiate(model.phi, "r", model.table) == ZERO
    assert differentiate(model.w, "t", model.table) == ZERO


def test_mixed_partials_commute(model):
    rng = random.Random(13)
    names = ("r", "t", "D", "Gamma", "a1", "a2", "v")
    table = model.table
    for _ in range(500):
        e = random_expression(rng, names, depth=3)
        rt = differentiate(differentiate(e, "r", table), "t", table)
        tr = differentiate(differentiate(e, "t", table), "r", table)
        assert rt == tr


def test_differentiate_matches_finite_differences(model):
    # time derivative of the scaled material family, checked against a
    # central-difference oracle at 50 random points
    table = model.table
    expr = parse("(a3 + a4*t)^(-1) * F(r*(a3 + a4*t)^(-a2/a4))", table)
    deriv = differentiate(expr, "t", table)
    fns = {"F": lambda x: 1.0 / (1.0 + x * x),
           "F'": lambda x: -2.0 * x / (1.0 + x * x) ** 2}
    rng = random.Random(3)
    h = 1e-6
    for _ in range(50):
        point = {"a2": rng.uniform(0.5, 2), "a3": rng.uniform(0.5, 2),
                 "a4": rng.uniform(0.5, 2), "r": rng.uniform(0.2, 2),
                 "t": rng.uniform(0.1, 2)}
        up = evaluate(expr, {**point, "t": point["t"] + h}, fns)
        dn = evaluate(expr, {**point, "t": point["t"] - h}, fns)
        oracle = (up - dn) / (2 * h)
        got = evaluate(deriv, point, fns)
        assert abs(got - oracle) <= 1e-7 * max(1.0, abs(oracle))


def test_substitute_then_differentiate_commutes(model):
    rng = random.Random(17)
    table = model.table
    names = ("r", "t", "a1", "a2", "a3", "v")
    for _ in range(200):
        e = random_expression(rng, names, depth=3)
        binding = {"a1": random_expression(rng, ("a2", "a3", "t"), depth=2)}
        lhs = differentiate(substitute(e, binding, table), "r", table)
        rhs = substitute(differentiate(e, "r", table), binding, table)
        assert lhs == rhs


# --- substitution -------------------------------------------------------

def test_substitute_returns_the_normal_form(model):
    rng = random.Random(23)
    table = model.table
    names = ("r", "t", "a1", "a2", "D", "D_r", "Gamma")
    for _ in range(300):
        e = random_expression(rng, names, depth=3, funcs=("G",))
        binding = {"a1": random_expression(rng, ("a2", "t"), depth=2),
                   "a2": random_expression(rng, ("r", "t", "a1"), depth=2)}
        out = substitute(e, binding, table)
        assert normalize(out) == out
        assert normalize(_copy(out)) == out


def test_substitute_drops_pinned_constant(model):
    a1, a2, r = syms("a1", "a2", "r")
    out = substitute(a1 + a2 * r, {"a1": ZERO}, model.table)
    assert out == normalize(a2 * r)


def test_substitute_swap_is_involution(model):
    e = normalize(Sym("a1") + Sym("r") * Sym("t") ** 2)
    swap = {"r": Sym("t"), "t": Sym("r")}
    once = substitute(e, swap, model.table)
    assert substitute(once, swap, model.table) == e
    assert once != e


@pytest.mark.parametrize("name", ["D", "Gamma", "G", "F"])
def test_substitute_refuses_a_function_symbol(model, monkeypatch, name):
    # a function symbol is refused before any tree is walked or normalized
    from fluxsym import kernel
    from fluxsym.kernel import SubstitutionError

    def no_work(*args):
        raise AssertionError("substitute did work before refusing")
    monkeypatch.setattr(kernel, "_subst", no_work)
    monkeypatch.setattr(kernel, "normalize", no_work)
    with pytest.raises(SubstitutionError, match=repr(name)):
        substitute(Sym("r"), {"a1": ZERO, name: Sym("r")}, model.table)


def test_substitute_applied_function_is_arity_error(model):
    from fluxsym.kernel import SubstitutionError
    e = Call("G", (Sym("r"),))
    with pytest.raises(SubstitutionError):
        substitute(e, {"G": Sym("r")}, model.table)


# --- zero testing -------------------------------------------------------

def test_is_zero_of_imposed_identity(model):
    # the gradient-slot identity under the derived constraints
    table = model.table
    e = parse("a7 + w*(a8 + a2 - a6)", table)
    imposed = substitute(e, {"a7": ZERO, "a8": Sym("a6") - Sym("a2")}, table)
    assert is_zero(imposed) == ZeroVerdict.ZERO


def test_is_zero_generic_product_nonzero(model):
    assert is_zero(Sym("a4") * model.Gamma) == ZeroVerdict.NONZERO


def test_is_zero_expansion_property(model):
    rng = random.Random(23)
    table = model.table
    names = ("r", "t", "a1", "a2", "a3")
    for _ in range(500):
        e = random_expression(rng, names, depth=3)
        # an expression minus its expansion is structurally zero
        assert is_zero(e - normalize(e)) == ZeroVerdict.ZERO


def test_is_zero_honest_unknown(model):
    # a true zero the polynomial normal form cannot witness is reported
    # unknown, never silently zero
    a3, a4, t = syms("a3", "a4", "t")
    base = a3 + a4 * t
    e = a3 * base ** Rat(-1) + a4 * t * base ** Rat(-1) - 1
    assert normalize(e) != ZERO
    assert is_zero(e) == ZeroVerdict.UNKNOWN


def test_is_zero_of_exp_is_unknown_before_any_sample(model, monkeypatch):
    # exp has no exact value: whether the expression is an identity, a
    # small or large nonzero, or overflows a float, the verdict is unknown
    # and no sample is drawn
    def no_sample(rng):
        raise AssertionError("is_zero sampled an expression with exp")

    monkeypatch.setattr(kernel, "_sample_fraction", no_sample)
    table = model.table
    overflowing = "10^308*exp(r) - 10^308*exp(a1)"
    for text in ("10^6*(exp(2*r) - exp(r)^2)", "(1/10)^12*exp(r)",
                 "exp(r) - 1", "exp(300*r) - 1", "exp(900*r*D*a1*a2) - 1",
                 overflowing):
        assert is_zero(parse(text, table)) == ZeroVerdict.UNKNOWN
    assert is_zero(Call("G", (parse(overflowing, table),))
                   ) == ZeroVerdict.UNKNOWN


def test_is_zero_samples_every_derivative_and_no_other_arity(model):
    table = model.table
    g4 = Call("G", (Sym("r"),))
    for _ in range(4):
        g4 = differentiate(g4, "r", table)
    assert to_text(g4) == "G''''(r)"
    # the fourth derivative of a sampled cubic is 0
    assert is_zero(g4) == ZeroVerdict.UNKNOWN
    assert is_zero(g4 + 1) == ZeroVerdict.NONZERO
    # a function of two arguments has no exact sample, so no sample
    # evaluates; with exp no sample is drawn
    h = Call("H", (Sym("r"), Sym("t")))
    assert is_zero(h) == ZeroVerdict.UNKNOWN
    assert is_zero(Call("exp", (Sym("r"),)) + h) == ZeroVerdict.UNKNOWN


# --- evaluation ---------------------------------------------------------

def test_evaluate_affine(model):
    assert evaluate(parse("a1 + a2*r", model.table),
                    {"a1": 1, "a2": 2, "r": 3}) == 7.0


def test_evaluate_gradient_free_family_value(model):
    # C (a3 + a4 t)^(2 a2/a4 - 1) at C=1, a3=0, a4=1, a2=1, t=4:
    # the exponent is 2*1/1 - 1 = 1, so the value is 4
    expr = parse("C*(a3 + a4*t)^(2*a2/a4 - 1)", model.table)
    val = evaluate(expr, {"C": 1, "a3": 0, "a4": 1, "a2": 1, "t": 4})
    assert val == pytest.approx(4.0, abs=1e-12)


def test_evaluate_sampled_function(model):
    expr = Call("G", (Sym("xi"),))
    model.table.declare("xi", "parameter")
    val = evaluate(expr, {"xi": 0.0}, {"G": lambda x: math.exp(-x * x)})
    assert val == 1.0


def test_evaluate_matches_direct_arithmetic(model):
    rng = random.Random(29)
    for _ in range(200):
        e = random_expression(rng, ("r", "t"), depth=3)
        point = {"r": rng.uniform(0.5, 2.0), "t": rng.uniform(0.5, 2.0)}
        text = to_text(normalize(e))
        try:
            direct = evaluate(e, point)
        except EvaluationError:
            continue
        via_parse = evaluate(parse(text, Model().table), point)
        assert via_parse == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_evaluate_division_by_zero(model):
    with pytest.raises(EvaluationError):
        evaluate(Pow(Sym("r"), Rat(-1)), {"r": 0.0})


def test_evaluate_negative_base_fractional_power(model):
    with pytest.raises(EvaluationError):
        evaluate(Pow(Sym("r"), Rat(Fraction(1, 2))), {"r": -1.0})


def test_standard_table_coordinate_registry(model):
    table = model.table
    coords = sorted(name for name in table.names()
                    if table.info(name).kind == "coordinate")
    assert coords == ["phi", "r", "t", "w"]
    jet = table.info("D_rt")
    assert jet.kind == "jet" and jet.base == "D" and jet.order == (1, 1)
    with pytest.raises(Exception):
        table.declare("r", "parameter")   # kind conflicts are rejected
