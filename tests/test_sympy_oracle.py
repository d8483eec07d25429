"""The kernel against sympy, an independent computer algebra system.

On the conftest random expressions, `normalize` and `linear_combination`
must agree with sympy's `expand`, `differentiate` with `diff` and
`substitute` with `subs`: the difference of the two results, expanded by
sympy, is zero.  On the shapes of the case families, `is_zero`,
`poly_div_exact`, `strip_coordinates` and `sign_normalize` are checked the
same way.  Each case family is checked to be the general solution of its
condition.  Material functions map to sympy functions of (r, t), their
jets to derivatives, and a unary function's derivative symbol G' to the
derivative of G.
"""

import cmath
import random
from fractions import Fraction

import pytest

from fluxsym.characteristics import (
    CASE_CONSTRAINTS, QuasiLinearPDE, material_conditions,
    solve_characteristics,
)
from fluxsym.kernel import (
    Add, Call, KernelError, Mul, Pow, Rat, Sym, ZERO, ZeroVerdict,
    differentiate, is_zero, linear_combination, normalize, poly_div_exact,
    sign_normalize, strip_coordinates, subexpressions, substitute,
)
from fluxsym.model import Model
from fluxsym.parser import parse

from conftest import random_expression

sympy = pytest.importorskip("sympy")

R, T = sympy.symbols("r t")


def to_sympy(e, table):
    if isinstance(e, Rat):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        info = table.info(e.name)
        if info.kind == "jet":
            d_r, d_t = info.order
            base = sympy.Function(info.base)(R, T)
            return sympy.Derivative(base, *[(v, k) for v, k in ((R, d_r), (T, d_t)) if k])
        if info.kind == "arbitrary-function" and info.arity == 0:
            return sympy.Function(e.name)(R, T)
        return sympy.Symbol(e.name)
    if isinstance(e, Add):
        return sympy.Add(*(to_sympy(t, table) for t in e.terms))
    if isinstance(e, Mul):
        return sympy.Mul(*(to_sympy(f, table) for f in e.factors))
    if isinstance(e, Pow):
        return sympy.Pow(to_sympy(e.base, table), to_sympy(e.exponent, table))
    assert isinstance(e, Call)
    args = [to_sympy(a, table) for a in e.args]
    if e.func == "exp":
        return sympy.exp(*args)
    name = e.func.rstrip("'")
    order = len(e.func) - len(name)
    if not order:
        return sympy.Function(name)(*args)
    x = sympy.Dummy("x")
    return sympy.Derivative(sympy.Function(name)(x), (x, order)).subs(x, args[0])


def same(a, b):
    return sympy.expand(a - b) == 0


NAMES = ("r", "t", "a1", "a2", "phi", "w", "D", "D_r", "Gamma")


def test_normalize_agrees_with_expand():
    table = Model().table
    rng = random.Random(101)
    for _ in range(300):
        e = random_expression(rng, NAMES, depth=3, funcs=("G", "exp"))
        assert same(to_sympy(normalize(e), table), to_sympy(e, table)), e


def test_products_of_shared_sums_agree_with_expand():
    # integer and rational powers of the same sums, some scaled, next to a
    # random factor: the kernel adds the exponents of equal sums, which
    # sympy leaves apart when their contents differ, so the difference is
    # brought over one denominator before it is expanded
    table = Model().table
    rng = random.Random(131)
    a1, a2, r, t, phi, w = (Sym(n) for n in ("a1", "a2", "r", "t", "phi", "w"))
    sums = (a1 + a2 * r, phi + w + 1, r + t)
    exponents = [Rat(Fraction(x)) for x in
                 (1, 2, 3, -1, -2, "1/2", "-1/2", "3/2", "-3/2")]
    for _ in range(150):
        shared = rng.sample(sums, 2)
        factors = []
        for _ in range(rng.randint(2, 4)):
            base, x = rng.choice(shared), rng.choice(exponents)
            if x.value.denominator == 1 and rng.random() < 0.5:
                base = Rat(rng.choice((2, -3, Fraction(1, 2)))) * base
            factors.append(Pow(base, x))
        if rng.random() < 0.5:
            factors.append(random_expression(rng, NAMES[:6], depth=2))
        rng.shuffle(factors)
        e = Mul(tuple(factors))
        diff = to_sympy(normalize(e), table) - to_sympy(e, table)
        assert sympy.expand(sympy.together(diff)) == 0, e
    # factors whose terms hold a power of another factor's sum, such as
    # 1 + (r + t)^(1/2): the sum joins that power inside the product.
    # Where sympy leaves the two forms apart, they must agree in value at
    # random positive points
    names = NAMES[:6]
    for _ in range(80):
        s = rng.choice(sums)
        factors = [Pow(rng.choice((1, 2, Fraction(1, 2))) * s,
                       rng.choice(exponents[:3]))]
        for _ in range(rng.randint(1, 2)):
            inner = Pow(s, rng.choice(exponents[5:]))
            if rng.random() < 0.5:
                inner = Sym(rng.choice(names)) * inner
            factors.append(Pow(rng.randint(1, 2) + inner,
                               rng.choice(exponents[:6])))
        factors.append(random_expression(rng, names, depth=2))
        rng.shuffle(factors)
        e = Mul(tuple(factors))
        ours, theirs = to_sympy(normalize(e), table), to_sympy(e, table)
        if sympy.expand(sympy.together(ours - theirs)) == 0:
            continue
        for _ in range(3):
            point = {sympy.Symbol(n): sympy.Rational(rng.randint(1, 9), 4)
                     for n in names}
            want = complex(theirs.subs(point).evalf(30))
            assert abs(complex(ours.subs(point).evalf(30)) - want) <= (
                1e-12 * max(1.0, abs(want))), (e, point)


def test_linear_combination_agrees_with_expand():
    table = Model().table
    rng = random.Random(113)
    for _ in range(200):
        terms = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  random_expression(rng, NAMES, depth=3, funcs=("G",)))
                 for _ in range(rng.randint(1, 4))]
        theirs = sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                             * to_sympy(e, table) for c, e in terms))
        assert same(to_sympy(linear_combination(terms), table), theirs), terms


def test_differentiate_agrees_with_diff():
    table = Model().table
    rng = random.Random(103)
    for _ in range(200):
        e = random_expression(rng, NAMES, depth=3, funcs=("G", "exp"))
        for var, sym in (("r", R), ("t", T)):
            ours = to_sympy(differentiate(e, var, table), table)
            assert same(ours, sympy.diff(to_sympy(e, table), sym)), (e, var)


def test_substitute_agrees_with_subs():
    table = Model().table
    rng = random.Random(107)
    for _ in range(200):
        e = random_expression(rng, NAMES, depth=3, funcs=("G",))
        bindings = {"a1": random_expression(rng, ("a2", "t", "phi"), depth=2),
                    "a2": random_expression(rng, ("a1", "r"), depth=2)}
        ours = to_sympy(substitute(e, bindings, table), table)
        theirs = to_sympy(e, table).subs(
            {sympy.Symbol(k): to_sympy(v, table) for k, v in bindings.items()},
            simultaneous=True)
        assert same(ours, theirs), (e, bindings)


FAMILY_NAMES = ("r", "t", "a1", "a2", "a3", "a4")


def family_expression(rng, depth=3, funcs=("G", "F")):
    """A random expression in the shapes of the case families: powers of
    a3 + a4*t to a1/a4 or a2/a4, integer powers from -2 to 3, and one of
    `funcs` applied to such arguments."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.25:
            return Rat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if choice < 0.5:
            a3, a4, t = Sym("a3"), Sym("a4"), Sym("t")
            return Pow(a3 + a4 * t,
                       Sym(rng.choice(("a1", "a2"))) / Sym("a4"))
        return Sym(rng.choice(FAMILY_NAMES))
    kind = rng.randint(0, 3)
    if kind == 0:
        return Add(tuple(family_expression(rng, depth - 1, funcs)
                         for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return Mul(tuple(family_expression(rng, depth - 1, funcs)
                         for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return Pow(family_expression(rng, depth - 1, funcs),
                   Rat(rng.randint(-2, 3)))
    return Call(rng.choice(funcs), (family_expression(rng, depth - 1, funcs),))


def test_is_zero_agrees_with_expand_on_family_shapes():
    # e minus sympy's expansion of e, read back through the parser, is a
    # true zero: the zero test may fail to see it (unknown) but never calls
    # it nonzero; plus a nonzero c*r^i*t^j it is never zero
    table = Model().table
    rng = random.Random(127)
    unknown = checked = 0
    while checked < 600:
        e = family_expression(rng)
        expanded = sympy.expand(to_sympy(e, table))
        if expanded.has(sympy.zoo, sympy.nan):
            continue        # a negative power of an identically zero base
        checked += 1
        delta = e - parse(str(expanded).replace("**", "^"), table)
        verdict = is_zero(delta)
        assert verdict != ZeroVerdict.NONZERO, e
        unknown += verdict == ZeroVerdict.UNKNOWN
        term = (Rat(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
                * Sym("r") ** Rat(rng.randint(0, 3))
                * Sym("t") ** Rat(rng.randint(0, 3)))
        assert is_zero(delta + term) != ZeroVerdict.ZERO, (e, term)
    # an unknown verdict is a true zero the normal form does not fold: 9 of
    # these 600 are, each a sum to the power -2 against sympy's expanded
    # square to the power -1, such as (F(a4) + r + a1*a2)^(-2).  They are
    # data for the normal form, not failures; more of them is a regression
    assert unknown <= 9


def test_family_shapes_with_exp_agree_with_sympy_in_value():
    # exp has no exact value, so is_zero answers unknown on a true zero
    # that the normal form does not fold; it must never answer nonzero.
    # normalize(e) and e agree in value at random positive points, with G
    # and F read as cubics
    table = Model().table
    x = sympy.Dummy("x")
    cubics = {sympy.Function("G"): sympy.Lambda(x, x**3 / 5 - x + 2),
              sympy.Function("F"): sympy.Lambda(x, x**2 / 3 + x / 7 - 1)}
    rng = random.Random(151)
    unknown = checked = 0
    while checked < 60:
        e = family_expression(rng, funcs=("G", "F", "exp"))
        if not any(type(n) is Call and n.func == "exp"
                   for n in subexpressions(e)):
            continue
        theirs = to_sympy(e, table)
        expanded = sympy.expand(theirs)
        if expanded.has(sympy.zoo, sympy.nan):
            continue        # a negative power of an identically zero base
        try:
            back = parse(str(expanded).replace("**", "^"), table)
        except KernelError:
            continue        # sympy prints exp(1) as E, which is no symbol
        checked += 1
        verdict = is_zero(e - back)
        assert verdict != ZeroVerdict.NONZERO, e
        unknown += verdict == ZeroVerdict.UNKNOWN
        ours = to_sympy(normalize(e), table).replace(
            lambda f: f.func in cubics, lambda f: cubics[f.func](*f.args))
        theirs = theirs.replace(
            lambda f: f.func in cubics, lambda f: cubics[f.func](*f.args))
        point = {sympy.Symbol(n): sympy.Rational(rng.randint(1, 9), 4)
                 for n in FAMILY_NAMES}
        want, got = (complex(v.subs(point).evalf(30)) for v in (theirs, ours))
        if not (cmath.isfinite(want) and cmath.isfinite(got)):
            continue        # a pole at this point
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (e, point)
    # an unknown verdict is a true zero that the normal form does not fold:
    # 16 of these 60 are.  They are data for the normal form, not failures;
    # more of them is a regression
    assert unknown <= 16


TABLE = Model().table


def family_normal_form(rng):
    """A nonzero normal form in the case-family shapes, with no pole: one
    that the kernel refuses (a zero base to a negative power) or that sympy
    reads as zoo or nan is drawn again."""
    while True:
        try:
            e = normalize(family_expression(rng))
        except KernelError:
            continue
        if e != ZERO and not to_sympy(e, TABLE).has(sympy.zoo, sympy.nan):
            return e


def family_monomial(rng):
    """A rational times one to three powers of a family symbol, of
    a3 + a4*t to a1/a4 or a2/a4, or G or F applied to a family shape."""
    factors = [Rat(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3)))]
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.6:
            factors.append(Pow(Sym(rng.choice(FAMILY_NAMES)),
                               Rat(rng.randint(-2, 3))))
        elif kind < 0.8:
            factors.append(Pow(Sym("a3") + Sym("a4") * Sym("t"),
                               Sym(rng.choice(("a1", "a2"))) / Sym("a4")))
        else:
            factors.append(Call(rng.choice(("G", "F")),
                                (family_expression(rng, 1),)))
    return normalize(Mul(tuple(factors)))


def vanishes(x):
    """x is 0 for sympy, once over one denominator and with the powers of
    one base merged: sympy leaves b^(a1/a4)*b^(a2/a4) apart from
    b^(a1/a4 + a2/a4) when b is a sum."""
    return sympy.powsimp(sympy.expand(sympy.together(x))) == 0


def test_poly_div_exact_agrees_with_expand_on_family_shapes():
    # q*m0 divided by q is m0; and whatever pair is divided, a quotient it
    # returns times the divisor is the dividend
    rng = random.Random(137)
    returned = 0
    for _ in range(150):
        q, m0 = family_normal_form(rng), family_monomial(rng)
        p = normalize(q * m0)
        assert poly_div_exact(p, q) == m0, (q, m0)
        for dividend, divisor in (
                (normalize(p + family_expression(rng)), q),
                (family_normal_form(rng), q), (p, m0), (m0, p)):
            m = poly_div_exact(dividend, divisor)
            if m is not None:
                returned += 1
                assert vanishes(to_sympy(m, TABLE) * to_sympy(divisor, TABLE)
                                - to_sympy(dividend, TABLE)), (dividend, divisor)
    assert returned >= 100


def test_strip_coordinates_divides_by_a_monomial_in_r_and_t():
    # strip_coordinates(e) is e / (c*r^i*t^j) for a nonzero rational c and
    # integers i, j
    r, t = sympy.symbols("r t")
    rng = random.Random(139)
    stripped = 0
    for _ in range(200):
        e = family_normal_form(rng)
        ratio = sympy.cancel(sympy.together(
            to_sympy(e, TABLE) / to_sympy(strip_coordinates(e), TABLE)))
        c, rest = ratio.as_independent(r, t, as_Add=False)
        powers = {} if rest == 1 else rest.as_powers_dict()
        assert c.is_Rational and c != 0, (e, ratio)
        assert set(powers) <= {r, t}, (e, ratio)
        assert all(x.is_Integer for x in powers.values()), (e, ratio)
        stripped += bool(powers)
    assert stripped >= 10


def test_sign_normalize_is_e_or_minus_e():
    rng = random.Random(149)
    flipped = 0
    for _ in range(200):
        e = family_normal_form(rng)
        ours, theirs = to_sympy(sign_normalize(e), TABLE), to_sympy(e, TABLE)
        if not vanishes(ours - theirs):
            assert vanishes(ours + theirs), e
            flipped += 1
    assert flipped >= 10


def case_conditions(model):
    """The distinct conditions of the six cases, each also with a2 = 0,
    with a4 = 0 and with both."""
    distinct = dict.fromkeys(
        pde for constraints in CASE_CONSTRAINTS.values()
        for pde in material_conditions(model, constraints))
    assert len(distinct) == 5
    return [QuasiLinearPDE(pde.func, *(
                substitute(e, dict.fromkeys(zeros, ZERO), model.table)
                for e in pde[1:]))
            for pde in distinct
            for zeros in ((), ("a2",), ("a4",), ("a2", "a4"))]


def test_each_case_family_is_the_general_solution_of_its_condition():
    # apart from back_substitute, sympy checks that each family f solves
    # its condition c_r f_r + c_t f_t = growth*f, and that f is general:
    # a nonzero solution times an arbitrary function H of xi, a
    # non-constant first integral, or times C with no r when c_r = 0
    model = Model()
    conditions = case_conditions(model)
    assert len(conditions) == 20
    branches = set()
    for pde in conditions:
        sol = solve_characteristics(pde, model)
        branches.add(sol.branch)
        c_r, c_t, growth = (to_sympy(e, TABLE) for e in pde[1:])

        def transport(f):
            return c_r * sympy.diff(f, R) + c_t * sympy.diff(f, T)

        def residual(f):
            return transport(f) - growth * f

        f = to_sympy(sol.expression, TABLE)
        if sol.xi is None:
            assert c_r == 0 and R not in f.free_symbols, pde
            arbitrary = sympy.Symbol("C")
        else:
            xi = to_sympy(sol.xi, TABLE)
            assert vanishes(transport(xi)), pde
            assert not vanishes(sympy.diff(xi, R)), pde
            arbitrary = sympy.Function(sol.symbol)(xi)
        prefactor = f.subs(arbitrary, 1)
        assert not prefactor.has(sympy.Symbol("C"),
                                 sympy.Function(sol.symbol)), pde
        assert vanishes(f - prefactor * arbitrary), pde
        assert not vanishes(prefactor), pde
        assert vanishes(residual(prefactor)), pde
        assert vanishes(residual(f)), pde
    assert branches == {"generic", "gradient-free", "extension"}
