"""The kernel against sympy, an independent computer algebra system.

On the conftest random expressions, `normalize` and `linear_combination`
must agree with sympy's `expand`, `differentiate` with `diff` and
`substitute` with `subs`: the difference of the two results, expanded by
sympy, is zero.  Material functions map to sympy functions of (r, t), their
jets to derivatives, and a unary function's derivative symbol G' to the
derivative of G.
"""

import random
from fractions import Fraction

import pytest

from fluxsym.kernel import (
    Add, Call, Mul, Pow, Rat, Sym, ZeroVerdict, differentiate, is_zero,
    linear_combination, normalize, substitute,
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


def family_expression(rng, depth=3):
    """A random expression in the shapes of the case families: powers of
    a3 + a4*t to a1/a4 or a2/a4, integer powers from -2 to 3, and G or F
    applied to such arguments."""
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
        return Add(tuple(family_expression(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return Mul(tuple(family_expression(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return Pow(family_expression(rng, depth - 1), Rat(rng.randint(-2, 3)))
    return Call(rng.choice(("G", "F")), (family_expression(rng, depth - 1),))


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
