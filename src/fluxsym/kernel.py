"""Symbolic expression kernel.

A small, purpose-built expression engine: immutable trees over rational
constants, named symbols, sums, products, powers and function applications,
with exact rational arithmetic, a canonical (idempotent) normal form,
differentiation with jet-symbol bookkeeping, simultaneous substitution,
randomized zero testing in exact arithmetic, and evaluation in exact, float
or array arithmetic.

The normal form is a collected "generalized Laurent polynomial": a sum of
monomials, each a rational coefficient times powers of atomic bases (symbols,
function applications, constants, and sums to a negative or non-integer
power, kept opaque).  Powers with equal bases combine by exponent addition.
Each product decides once which sums to a positive integer power join an
opaque sum of another factor, or of another sum's terms, that equals them or
their power up to a constant; it multiplies out every other.  Non-integer
powers assume positive bases (evaluation raises otherwise).
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple


class KernelError(Exception):
    """Base class for kernel failures."""


class UndeclaredSymbolError(KernelError):
    pass


class ArityError(KernelError):
    pass


class DifferentiationError(KernelError):
    pass


class SubstitutionError(KernelError):
    pass


class EvaluationError(KernelError):
    pass


# --------------------------------------------------------------------------
# Expression nodes
# --------------------------------------------------------------------------

class Expr:
    """Immutable expression tree node. Arithmetic operators build raw
    (unnormalized) trees; call normalize() at API boundaries."""

    # caches, unset until first use: the hash, the sort key (`_key`) and, on
    # a compound normal form, the poly it was built from (`_rebuild`)
    __slots__ = ("_hash", "_key", "_poly")

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Mul((MINUS_ONE, as_expr(other)))))

    def __rsub__(self, other):
        return Add((as_expr(other), Mul((MINUS_ONE, self))))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Mul((self, Pow(as_expr(other), MINUS_ONE)))

    def __rtruediv__(self, other):
        return Mul((as_expr(other), Pow(self, MINUS_ONE)))

    def __pow__(self, other):
        return Pow(self, as_expr(other))

    def __neg__(self):
        return Mul((MINUS_ONE, self))

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"


def _hash_once(node, fields) -> int:
    """The hash of an immutable node, computed on first use and kept on it:
    bases and monomials are dict keys, so a node is hashed many times."""
    h = getattr(node, "_hash", None)
    if h is None:
        h = hash(fields)
        object.__setattr__(node, "_hash", h)
    return h


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        if type(value) is int:
            value = Fraction(value)
        elif not isinstance(value, Fraction):
            raise TypeError(f"cannot interpret {value!r} as an expression")
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        return type(other) is Rat and self.value == other.value

    def __hash__(self):
        return _hash_once(self, self.value)


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        return type(other) is Sym and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        return type(other) is Add and self.terms == other.terms

    def __hash__(self):
        return _hash_once(self, self.terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)

    def __eq__(self, other):
        return type(other) is Mul and self.factors == other.factors

    def __hash__(self):
        return _hash_once(self, self.factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def __eq__(self, other):
        return (type(other) is Pow and self.base == other.base
                and self.exponent == other.exponent)

    def __hash__(self):
        return _hash_once(self, (self.base, self.exponent))


class Call(Expr):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: tuple):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", args)

    def __eq__(self, other):
        return (type(other) is Call and self.func == other.func
                and self.args == other.args)

    def __hash__(self):
        return _hash_once(self, (self.func, self.args))


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))
MINUS_ONE = Rat(Fraction(-1))


def as_expr(x) -> Expr:
    return x if isinstance(x, Expr) else Rat(x)


# --------------------------------------------------------------------------
# Symbol table
# --------------------------------------------------------------------------

KINDS = ("coordinate", "parameter", "jet", "arbitrary-function", "arbitrary-constant")


class SymbolInfo(NamedTuple):
    kind: str
    base: str | None = None          # jet: the differentiated function
    order: tuple | None = None       # jet: (d/dr count, d/dt count)
    arity: int | None = None         # arbitrary-function: argument count,
                                     # 0 for a function of (r, t)


class SymbolTable:
    """Append-only registry of symbol names and their roles.

    Jets are named "<base>_<r...><t...>" (r's before t's), so mixed partials
    canonicalize to a single symbol regardless of differentiation order.
    """

    def __init__(self):
        self._entries: dict[str, SymbolInfo] = {}

    def declare(self, name: str, kind: str, *, base=None, order=None,
                arity=None) -> Sym:
        if kind not in KINDS:
            raise KernelError(f"unknown symbol kind {kind!r}")
        info = SymbolInfo(kind, base, order, arity)
        prior = self._entries.get(name)
        if prior is not None:
            if prior != info:
                raise KernelError(
                    f"symbol {name!r} already declared as {prior.kind}")
            return Sym(name)
        if kind == "jet":
            if base is None or order is None or sum(order) < 1:
                raise KernelError("jet symbols need a base and a nonempty order")
            if base not in self._entries:
                raise KernelError(f"jet base {base!r} is not declared")
        self._entries[name] = info
        return Sym(name)

    def info(self, name: str) -> SymbolInfo:
        try:
            return self._entries[name]
        except KeyError:
            raise UndeclaredSymbolError(f"symbol {name!r} is not declared") from None

    def is_declared(self, name: str) -> bool:
        return name in self._entries

    def names(self):
        return list(self._entries)

    def jet_name(self, base: str, d_r: int, d_t: int) -> str:
        return f"{base}_" + "r" * d_r + "t" * d_t

    def jet(self, base: str, d_r: int, d_t: int) -> Sym:
        """The jet of `base` with the given multi-index, declared on demand."""
        if d_r == d_t == 0:
            return Sym(base)
        name = self.jet_name(base, d_r, d_t)
        if name not in self._entries:
            self.declare(name, "jet", base=base, order=(d_r, d_t))
        return Sym(name)

    def derivative_function(self, func: str) -> str:
        """Name of the derivative symbol of a unary function (G -> G'),
        declared on demand."""
        return self.declare(func + "'", "arbitrary-function", arity=1).name


# --------------------------------------------------------------------------
# Canonical normal form
# --------------------------------------------------------------------------
#
# Internal representation during normalization:
#   poly        : dict  monomial -> coefficient          (sum of monomials)
#   monomial    : tuple of (base, exponent) pairs, sorted by the base's _key
#   coefficient : a nonzero rational, an int when integral, else a Fraction
#   exponent    : an int when integral, a Fraction when rational, else a
#                 normalized non-constant Expr
#
# Bases are normalized atoms (Sym, Call, Rat for irrational constant powers,
# or Add for opaque sum powers).  `_poly_product` alone decides which sums
# are opaque: a sum to a positive integer power k joins an opaque sum of the
# product that equals it, or its k-th power, up to a constant.  It alone
# multiplies out the others, so a product of polys (`_poly_mul`) may hold a
# sum to a positive integer power until `_poly_product` reads it.
#
# A compound normal form keeps the poly it was built from (its `_poly`
# attribute), so normalizing it again returns it unchanged.  The poly lives
# and dies with its node, and no one updates it: `_to_poly` and
# `_poly_int_pow(p, 1)` hand a poly out as it is, not a copy, so what they
# return is read-only, and two nodes may share one poly.  Only the function
# that made a dict (a literal, `_poly_mul`, `_poly_scale`, the accumulators
# of `linear_combination` and `_split`) updates it in place, and only until
# it returns it or gives it to `_rebuild`, which keeps it.

def _num(q):
    """A rational as an int when it is integral, else as a Fraction."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


def _div(a, b):
    """The exact quotient of two rationals."""
    return _num(Fraction(a) / b)


# A constant power c^k takes about |k| times the bit length of c to store:
# past this many bits it is refused before it is formed.  10^1000000 (3.3
# million bits) is below it; 10^(10^7) would take seconds to multiply out.
_MAX_POWER_BITS = 2 ** 22


def _rat_pow(c, k: int):
    """c**k for a nonzero rational c and an integer k, exactly."""
    n, d = (c, 1) if type(c) is int else (c.numerator, c.denominator)
    bits = max(abs(n).bit_length(), d.bit_length())
    if bits > 1 and abs(k) * bits > _MAX_POWER_BITS:
        # str() refuses an int past 4300 digits: a long power is left out
        power = ""
        if max(bits, abs(k).bit_length()) <= 64:
            power = f" {c}^{k}" if type(c) is int and c > 0 else f" ({c})^{k}"
        raise KernelError(
            f"the constant power{power} would take more than 2^22 bits")
    return c ** k if k >= 0 else _num(Fraction(c) ** k)


def _exponent(e: Expr):
    """The exponent form of a normalized expression."""
    return _num(e.value) if type(e) is Rat else e


def _key(e: Expr):
    """Deterministic total order on normalized expressions."""
    t = type(e)
    if t is Rat:
        return (0, e.value)
    if t is Sym:
        return (1, e.name)
    k = getattr(e, "_key", None)
    if k is None:
        if t is Call:
            k = (2, e.func, tuple(_key(a) for a in e.args))
        elif t is Pow:
            k = (3, _key(e.base), _key(e.exponent))
        elif t is Mul:
            k = (4, tuple(_key(f) for f in e.factors))
        elif t is Add:
            k = (5, tuple(_key(f) for f in e.terms))
        else:
            raise TypeError(t)
        object.__setattr__(e, "_key", k)
    return k


def _base_key(pair):
    return _key(pair[0])


def _mono_key(mono):
    """The _key of a monomial's expression (coefficient 1), without
    building it."""
    if not mono:
        return (0, 1)
    keys = [_key(b) if x == 1
            else (3, _key(b), _key(x) if isinstance(x, Expr) else (0, x))
            for b, x in mono]
    return keys[0] if len(keys) == 1 else (4, tuple(keys))


def _poly_add_term(p: dict, mono, c) -> None:
    """p += c*mono in place."""
    old = p.get(mono)
    if old is None:
        p[mono] = c
    else:
        c = _num(old + c)
        if c:
            p[mono] = c
        else:
            del p[mono]


def _poly_iadd(p: dict, q: dict, scale=1) -> dict:
    """p += scale*q in place, for a nonzero rational scale."""
    if scale == 1:
        for mono, c in q.items():
            _poly_add_term(p, mono, c)
    else:
        for mono, c in q.items():
            _poly_add_term(p, mono, _num(c * scale))
    return p


def _poly_scale(p: dict, c) -> dict:
    return {m: _num(v * c) for m, v in p.items()}


def _merge_pairs(pairs):
    """Combine (base, exponent) pairs into a monomial, adding the exponents
    of equal bases.

    Returns (monomial, factor): `factor` is the rational value of the
    integer part of each constant base's exponent (2^(3/2) is 2*2^(1/2)).
    It never multiplies out a sum: _poly_product decides whether a sum
    whose exponents add up to a positive integer joins a base or expands.
    """
    acc = {}
    for base, x in pairs:
        old = acc.get(base)
        acc[base] = x if old is None else _add_exponents(old, x)
    mono = []
    factor = 1
    for base, x in acc.items():
        if type(x) is int:
            if x == 0:
                continue
            if type(base) is Rat and base.value:
                factor = _num(factor * _rat_pow(_num(base.value), x))
                continue
        elif type(base) is Rat and base.value:
            # the integer part of the exponent, or of its constant term,
            # joins the factor: 2^(x-1/2) is 1/2*2^(x+1/2) in any order
            whole = math.floor(x if type(x) is Fraction else
                               x.terms[0].value if type(x) is Add
                               and type(x.terms[0]) is Rat else 0)
            if whole:
                factor = _num(factor * _rat_pow(_num(base.value), whole))
                x = _add_exponents(x, -whole)
        mono.append((base, x))
    if len(mono) > 1:
        mono.sort(key=_base_key)
    return tuple(mono), factor


def _add_exponents(a, b):
    if type(a) is int and type(b) is int:
        return a + b
    if b == 0:
        return a
    if a == 0:
        return b
    if isinstance(a, Expr) or isinstance(b, Expr):
        return _exponent(normalize(Add((as_expr(a), as_expr(b)))))
    return _num(a + b)


def _mul_exponent(a, b):
    if b == 1:
        return a
    if a == 1:
        return b
    if a == 0 or b == 0:
        return 0
    if isinstance(a, Expr) or isinstance(b, Expr):
        return _exponent(normalize(Mul((as_expr(a), as_expr(b)))))
    return _num(a * b)


def _poly_mul(p: dict, q: dict) -> dict:
    """p*q, term by term."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono, factor = _merge_pairs(m1 + m2)
            _poly_add_term(out, mono, _num(c1 * c2 * factor))
    return out


# A sum of m terms to the power k expands to C(k+m-1, m-1) terms: past
# this many it is refused before it is multiplied out, as it is when k times
# the bit length of its coefficients passes _MAX_POWER_BITS.  (1 + r)^399,
# the largest power of a binomial allowed, takes 0.2-0.3 s to expand on a
# shared 2-CPU x86-64 host, where (1 + r)^499 took up to 0.42 s.
_MAX_POWER_TERMS = 400


def _poly_int_pow(p: dict, k: int) -> dict:
    """p**k for k >= 1; `p` itself, read-only, when k is 1.  Rational
    coefficients are multiplied out as integers: (d*p)^k / d^k."""
    if k == 1:
        return p
    m = len(p)
    # the count is above k for m > 1: a large k is refused without it
    if k >= _MAX_POWER_TERMS or math.comb(k + m - 1, m - 1) > _MAX_POWER_TERMS:
        raise KernelError(f"a power of a sum of {m} terms would expand to "
                          f"more than {_MAX_POWER_TERMS} terms")
    d = math.lcm(*(Fraction(c).denominator for c in p.values()))
    if d != 1:
        return _poly_scale(_poly_int_pow(_poly_scale(p, d), k),
                           Fraction(1, d ** k))
    if k * max(abs(c).bit_length() for c in p.values()) > _MAX_POWER_BITS:
        raise KernelError("a power of a sum would take more than 2^22 bits")
    result = None
    while True:
        if k & 1:
            result = p if result is None else _poly_mul(result, p)
        k >>= 1
        if not k:
            return result
        p = _poly_mul(p, p)


def _poly_content(p: dict):
    """Split a multi-term poly into (leading coefficient, primitive poly);
    the primitive poly is `p` itself when the leading coefficient is 1."""
    c = p[max(p, key=_mono_key)]
    if c == 1:
        return 1, p
    return c, _poly_scale(p, _div(1, c))


def _lead_positive(p: dict) -> dict:
    """`p`, negated when its leading coefficient is negative."""
    if p and p[max(p, key=_mono_key)] < 0:
        return _poly_scale(p, -1)
    return p


def _to_poly(e: Expr) -> dict:
    """The poly of `e`, read-only: a normal form's own `_poly`, not a copy."""
    t = type(e)
    if t is Sym:
        return {((e, 1),): 1}
    if t is Rat:
        return {(): _num(e.value)} if e.value else {}
    if t is Add or t is Mul or t is Pow:
        own = getattr(e, "_poly", None)
        if own is not None:
            return own
    if t is Add:
        out: dict = {}
        for term in e.terms:
            _poly_iadd(out, _to_poly(term))
        return out
    if t is Mul:
        return _poly_product(e.factors)
    if t is Pow:
        return _poly_product((e,))
    if t is Call:
        args = tuple(normalize(a) for a in e.args)
        return {((e if args == e.args else Call(e.func, args), 1),): 1}
    raise TypeError(t)


def _poly_product(factors) -> dict:
    """The poly of a product of (possibly powered) factors, non-integer
    exponents distributed over products (positive-base convention).  Its
    base/exponent pairs merge before anything is multiplied out, and it is
    the one place that decides which sums stay opaque bases: a sum to a
    positive integer power k (its exponents over the product added up)
    joins an opaque sum base of another factor, or one in the terms of
    another sum, when its primitive part or that of its k-th power is that
    base.  It multiplies out every other such sum."""
    coef = 1
    pairs: list = []
    sums: list = []     # (poly, k): sums to a positive integer power k
    zero = False

    def absorb(f: Expr, outer):
        nonlocal coef, zero
        t = type(f)
        if t is Mul:
            for g in f.factors:
                absorb(g, outer)
            return
        if t is Pow:
            x = f.exponent
            x = _num(x.value) if type(x) is Rat else _exponent(normalize(x))
            absorb(f.base, _mul_exponent(x, outer))
            return
        if t is Sym:
            pairs.append((f, outer))
            return
        pf = _to_poly(f)
        if not pf:
            # 0^x is 0 for a constant x > 0 and 1 for x = 0; a pole or a
            # symbolic power is refused wherever it sits in the product
            if isinstance(outer, Expr) or outer < 0:
                raise KernelError(
                    f"{to_text(Pow(ZERO, as_expr(outer)))} has a zero base "
                    "and a negative or symbolic exponent")
            zero = zero or outer > 0
            return
        if len(pf) == 1:
            (mono, c), = pf.items()
            if outer == 1:
                pairs.extend(mono)
            else:
                pairs.extend((b, _mul_exponent(x, outer)) for b, x in mono)
        elif type(outer) is int and outer > 0:
            sums.append((pf, outer))
            return
        else:
            c, prim = _poly_content(pf)
            pairs.append((_rebuild(prim), outer))
        if c == 1:
            return
        if type(outer) is int:
            coef *= _rat_pow(c, outer)
            return
        # a constant to a non-integer power, split as the parser reads its
        # printed form: (-3/2)^x is (-1)^x*3^x*2^(-x)
        if c < 0:
            pairs.append((MINUS_ONE, outer))
        if abs(c.numerator) != 1:
            pairs.append((Rat(abs(c.numerator)), outer))
        if c.denominator != 1:
            pairs.append((Rat(c.denominator), _mul_exponent(outer, -1)))

    for f in factors:
        absorb(f, 1)
    if zero:
        return {}
    mono, factor = _merge_pairs(pairs)
    sums += [(_to_poly(b), x) for b, x in mono if _is_sum_power(b, x)]
    if not sums:
        return {mono: _num(coef * factor)}
    pairs = [(b, x) for b, x in mono if not _is_sum_power(b, x)]
    bases = [b for b, _ in pairs if type(b) is Add] + [
        b for s, _ in sums for m in s for b, _ in m if type(b) is Add]
    powers = []
    for s, k in sums:
        joined = bases and _sum_base(s, k, bases)
        if not joined and k > 1 and bases:
            s, k = _poly_int_pow(s, k), 1
            joined = _sum_base(s, k, bases)
        if joined:
            pairs += joined
        else:
            powers.append((s, k))
    # with no opaque sum in sight, nothing joined and no term holds a sum
    mono, more = _merge_pairs(pairs) if bases else (tuple(pairs), 1)
    p = {mono: _num(coef * factor * more)}
    for s, k in powers:
        p = _poly_mul(p, _poly_int_pow(s, k))
    if not bases:
        return p
    out: dict = {}
    for m, c in p.items():
        if any(_is_sum_power(b, x) for b, x in m):
            # a product of its own, so the sum may join a base of the rest
            _poly_iadd(out, _poly_product(
                [Rat(c)] + [Pow(b, as_expr(x)) for b, x in m]))
        else:
            _poly_add_term(out, m, c)
    return out


def _sum_base(p: dict, k: int, bases):
    """The pairs of p^k as (c*base)^k, base one of `bases`, or None."""
    c, prim = _poly_content(p)
    for base in bases:
        if _to_poly(base) == prim:
            return [(base, k), (Rat(c), k)]
    return None


def _is_sum_power(base, x) -> bool:
    return type(base) is Add and type(x) is int and x > 0


def _rebuild(p: dict) -> Expr:
    """The normal form of a poly, which it keeps as its `_poly`."""
    if not p:
        return ZERO
    terms = []
    for mono, coef in p.items():
        factors = [b if x == 1 else Pow(b, as_expr(x)) for b, x in mono]
        if coef != 1 or not mono:
            factors.insert(0, Rat(coef))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    if len(terms) == 1:
        e = terms[0]
        if type(e) is not Mul and type(e) is not Pow:
            return e
    else:
        terms.sort(key=_key)
        e = Add(tuple(terms))
    object.__setattr__(e, "_poly", p)
    return e


def _is_normal(e: Expr) -> bool:
    return type(e) is Sym or type(e) is Rat or getattr(e, "_poly", None) is not None


def normalize(e: Expr) -> Expr:
    """Canonical form: expanded, collected, deterministically ordered.
    Idempotent; structural equality of normal forms is the kernel's equality."""
    e = as_expr(e)
    return e if _is_normal(e) else _rebuild(_to_poly(e))


def linear_combination(terms) -> Expr:
    """Normal form of the sum of c*e over the (c, e) pairs of `terms`, each
    c a rational number (int or Fraction) and e an expression.

    The sum accumulates in one polynomial, so summing k expressions reads
    each once, where normalizing a nested Add of normal forms would not.
    """
    acc: dict = {}
    for c, e in terms:
        c = _num(Fraction(c))
        if c:
            _poly_iadd(acc, _to_poly(as_expr(e)), c)
    return _rebuild(acc)


def sign_normalize(e: Expr) -> Expr:
    """Flip the overall sign so the leading monomial's coefficient is
    positive; a normal form whose leading coefficient is positive comes back
    as itself."""
    e = as_expr(e)
    p = _to_poly(e)
    q = _lead_positive(p)
    return e if q is p and _is_normal(e) else _rebuild(q)


def subexpressions(e: Expr):
    """Every node of the tree `e`, each occurrence once."""
    stack = [as_expr(e)]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, Add):
            stack.extend(cur.terms)
        elif isinstance(cur, Mul):
            stack.extend(cur.factors)
        elif isinstance(cur, Pow):
            stack.extend((cur.base, cur.exponent))
        elif isinstance(cur, Call):
            stack.extend(cur.args)


def free_symbols(e: Expr) -> set:
    """The names of the symbols and functions in `e`."""
    return {node.name if isinstance(node, Sym) else node.func
            for node in subexpressions(e) if isinstance(node, (Sym, Call))}


def _split(e: Expr, split_names: tuple) -> dict:
    """{key monomial in the named symbols: poly of its coefficient}."""
    split = set(split_names)
    groups: dict = {}
    for mono, coef in _to_poly(as_expr(e)).items():
        key_pairs, rest_pairs = [], []
        for base, x in mono:
            if type(base) is Sym and base.name in split:
                if type(x) is not int:
                    raise KernelError(
                        f"non-integer power of split symbol {base.name}")
                key_pairs.append((base, x))
            else:
                rest_pairs.append((base, x))
        _poly_add_term(groups.setdefault(tuple(key_pairs), {}),
                       tuple(rest_pairs), coef)
    return groups


def collect_by(e: Expr, split_names: tuple) -> dict:
    """Group the normal form of `e` by monomials in the named symbols.

    Returns {key monomial Expr (in the split symbols only): coefficient Expr}.
    Split symbols must occur with integer exponents.
    """
    return {_rebuild({k: 1}): _rebuild(v)
            for k, v in _split(e, split_names).items() if v}


def coefficient(e: Expr, name: str) -> Expr:
    """collect_by(e, (name,)).get(Sym(name), ZERO), without rebuilding the
    other groups: the coefficient of `name` to the first power."""
    return _rebuild(_split(e, (name,)).get(((Sym(name), 1),), {}))


def affine_coefficients(e: Expr, name: str):
    """(c0, c1) with e == c0 + c1*name, neither containing `name`; None
    when e is not affine in `name`."""
    groups = collect_by(e, (name,))
    if not set(groups) <= {ONE, Sym(name)}:
        return None
    return groups.get(ONE, ZERO), groups.get(Sym(name), ZERO)


def poly_div_exact(p: Expr, q: Expr):
    """Monomial-quotient division: returns monomial m with p == q*m, else None.

    Exact and deterministic; covers the engine's jet eliminations, whose
    multipliers are always single monomials.
    """
    pp = _to_poly(as_expr(p))
    qq = _to_poly(as_expr(q))
    if not qq:
        return None
    if not pp:
        return ZERO
    lead_p = max(pp, key=_mono_key)
    for mono_q in sorted(qq, key=_mono_key):
        inv = tuple((b, _mul_exponent(x, -1)) for b, x in mono_q)
        mono, factor = _merge_pairs(lead_p + inv)
        if any(_is_sum_power(b, x) for b, x in mono):
            continue
        m = _rebuild({mono: _num(_div(pp[lead_p], qq[mono_q]) * factor)})
        if _poly_product((m, as_expr(q))) == pp:
            return m
    return None


def strip_coordinates(e: Expr) -> Expr:
    """Remove common powers of the base coordinates r, t (an identity in the
    coordinates is unaffected) and integerize, leading coefficient positive:
    divide by r^i t^j, with i and j the least integer powers over all
    monomials (0 where one lacks r or t).  A normal form so reduced already
    comes back as itself."""
    e = as_expr(e)
    p = q = _to_poly(e)
    if not p:
        return ZERO
    powers = [{b.name: x for b, x in mono
               if type(b) is Sym and b.name in ("r", "t") and type(x) is int}
              for mono in p]
    divisor = []        # a monomial: r sorts before t
    for name in ("r", "t"):
        low = min(pw.get(name, 0) for pw in powers)
        if low:
            divisor.append((Sym(name), -low))
    if divisor:
        q = _poly_mul(q, {tuple(divisor): 1})
    num, den = 0, 1     # coprime integer coefficients: scale by den/num
    for c in q.values():
        num = math.gcd(num, abs(c.numerator))
        den = math.lcm(den, c.denominator)
    q = _lead_positive(
        q if num == den == 1 else _poly_scale(q, Fraction(den, num)))
    return e if q is p and _is_normal(e) else _rebuild(q)


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def differentiate(e: Expr, var: str, table: SymbolTable) -> Expr:
    """Partial derivative along the coordinate named `var`, with jet
    bookkeeping.

    Coordinates r, t drive the jets: an arity-0 function symbol F(r,t)
    differentiates to its jet (D -> D_r), a jet to the next jet (D_r -> D_rr),
    and a unary arbitrary function by the chain rule through its derivative
    symbol.  phi and w are independent coordinates at this layer and
    differentiate to 0 under d/dr, d/dt.
    """
    if not table.is_declared(var) or table.info(var).kind != "coordinate":
        raise DifferentiationError(f"{var!r} is not a coordinate")
    return apply_derivation(e, lambda s: _diff_symbol(s, var, table), table)


def apply_derivation(e: Expr, symbol_action, table: SymbolTable) -> Expr:
    """Normalized image of `e` under the derivation whose value on each
    symbol is `symbol_action(Sym)`, extended by the sum, product, power and
    chain rules.  Exponents must be constant under the derivation."""
    return normalize(_diff(as_expr(e), symbol_action, table))


def _diff(e: Expr, action, table: SymbolTable) -> Expr:
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return action(e)
    if isinstance(e, Add):
        return Add(tuple(_diff(t, action, table) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = _diff(f, action, table)
            if df == ZERO:
                continue
            terms.append(Mul(tuple(fs[:i] + (df,) + fs[i + 1:])))
        return Add(tuple(terms)) if terms else ZERO
    if isinstance(e, Pow):
        if normalize(_diff(e.exponent, action, table)) != ZERO:
            raise DifferentiationError(
                f"exponent {to_text(e.exponent)} is not constant")
        db = normalize(_diff(e.base, action, table))
        if db == ZERO:
            return ZERO
        return Mul((e.exponent, Pow(e.base, Add((e.exponent, MINUS_ONE))), db))
    if isinstance(e, Call):
        terms = []
        for i, a in enumerate(e.args):
            da = _diff(a, action, table)
            if da == ZERO:
                continue
            if e.func == "exp":
                dfn = Call("exp", e.args)
            else:
                info = table.info(e.func)
                if info.arity != len(e.args):
                    raise ArityError(
                        f"{e.func} called with {len(e.args)} args, arity {info.arity}")
                if len(e.args) != 1:
                    raise DifferentiationError(
                        f"chain rule implemented for unary functions only: {e.func}")
                dfn = Call(table.derivative_function(e.func), e.args)
            terms.append(Mul((dfn, da)))
        return Add(tuple(terms)) if terms else ZERO
    raise TypeError(type(e))


def _diff_symbol(s: Sym, var: str, table: SymbolTable) -> Expr:
    if s.name == var:
        return ONE
    info = table.info(s.name)
    if var not in ("r", "t"):
        return ZERO
    if info.kind == "jet":
        d_r, d_t = info.order
        return table.jet(info.base, d_r + int(var == "r"), d_t + int(var == "t"))
    if info.arity == 0:
        return table.jet(s.name, int(var == "r"), int(var == "t"))
    return ZERO


# --------------------------------------------------------------------------
# Substitution
# --------------------------------------------------------------------------

def substitute(e: Expr, bindings: dict, table: SymbolTable) -> Expr:
    """Simultaneous substitution; the result is normalized.

    Keys are names of symbols that are not functions: binding a function
    symbol (D, Gamma, G, F) is a SubstitutionError.
    """
    for name in bindings:
        if table.is_declared(name) and table.info(name).kind == "arbitrary-function":
            raise SubstitutionError(f"cannot substitute function symbol {name!r}")
    named = {name: as_expr(v) for name, v in bindings.items()}
    return normalize(_subst(as_expr(e), named))


def _subst(e: Expr, named: dict) -> Expr:
    """`e` with the named symbols replaced; an untouched subtree is shared."""
    t = type(e)
    if t is Rat:
        return e
    if t is Sym:
        return named.get(e.name, e)
    if t is Pow:
        base, x = _subst(e.base, named), _subst(e.exponent, named)
        return e if base is e.base and x is e.exponent else Pow(base, x)
    if t is Call and e.func in named:
        raise SubstitutionError(
            f"cannot substitute applied function symbol {e.func!r}")
    old = e.terms if t is Add else e.factors if t is Mul else e.args
    new = tuple(_subst(a, named) for a in old)
    if all(map(operator.is_, new, old)):
        return e
    if t is Call:
        return Call(e.func, new)
    return t(new)


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------

def _float_power(b, x):
    """b**x in floats; a pole or a complex value is an EvaluationError."""
    if b == 0.0 and x < 0:
        raise EvaluationError("division by zero (negative power of 0)")
    if b < 0.0 and x != round(x):
        raise EvaluationError(
            f"non-integral power of a negative base: ({b})**{x}")
    return b ** x


def evaluate(e: Expr, point: dict, fns: dict | None = None, *,
             value=float, power=_float_power):
    """The value of `e` with all free symbols bound, in floats unless the
    caller supplies another arithmetic.

    `point` maps symbol names to numbers; `fns` maps function
    names to callables, exp defaulting to math.exp.  `value` turns a
    number into a value of the arithmetic (each point value, rational
    constant and function result passes through it) and `power(b, x)`
    takes a power: `numerics.compile_numeric` passes numpy arrays and
    np.power.  An unbound symbol or function is an EvaluationError.
    """
    env = {name: value(v) for name, v in point.items()}
    return _value(as_expr(e), env, {"exp": math.exp, **(fns or {})},
                  value, power)


def _value(e: Expr, env: dict, fns: dict, value, power):
    """The value of `e` in the arithmetic of `value` and `power`: the one
    tree walk that computes a value, whether exact, float or numpy."""
    t = type(e)
    if t is Rat:
        return value(e.value)
    if t is Sym:
        try:
            return env[e.name]
        except KeyError:
            raise EvaluationError(f"unbound symbol {e.name!r}") from None
    if t is Add:
        return sum(_value(a, env, fns, value, power) for a in e.terms)
    if t is Mul:
        return math.prod(_value(f, env, fns, value, power) for f in e.factors)
    if t is Pow:
        return power(_value(e.base, env, fns, value, power),
                     _value(e.exponent, env, fns, value, power))
    if t is Call:
        fn = fns.get(e.func)
        if fn is None:
            raise EvaluationError(f"no callable bound for function {e.func!r}")
        return value(fn(*[_value(a, env, fns, value, power) for a in e.args]))
    raise TypeError(t)


# --------------------------------------------------------------------------
# Zero testing
# --------------------------------------------------------------------------

class ZeroVerdict:
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


def _sample_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-6, 7) if n != 0])
    den = rng.randint(1, 4)
    return Fraction(num, den)


class _Inexact(Exception):
    pass


def _exact_power(b: Fraction, x: Fraction) -> Fraction:
    """b**x for an integer x (a pole raises ZeroDivisionError)."""
    if x.denominator != 1:
        raise _Inexact
    return b ** int(x)


def _sampled_function(coeffs, k: int):
    """The k-th derivative of the cubic with coefficients `coeffs` (constant
    term first) as a unary function of a Fraction, exactly.  Any other arity
    is inexact."""
    def fn(*args):
        if len(args) != 1:
            raise _Inexact
        return sum(c * math.perm(i, k) * args[0] ** (i - k)
                   for i, c in enumerate(coeffs) if i >= k)
    return fn


_ZERO_TEST_TRIALS = 32


def is_zero(e: Expr) -> str:
    """'zero' iff the normal form is 0; otherwise randomized exact evaluation.

    Samples every symbol at a random rational from random.Random(0) (jets
    independently) and every applied function as a random cubic, a primed
    G'' as the matching derivative of G's, and evaluates in exact rational
    arithmetic.  Any nonzero evaluation gives 'nonzero'; all-zero without a
    structural zero is reported 'unknown', never silently treated as zero.
    An expression with exp has no exact value, so it is 'unknown' before
    any sample is drawn.  A sample that cannot be evaluated (a pole, a
    non-integer power, a function of more than one argument) is drawn
    again, and the verdict is 'unknown' after five such failures in a row.
    """
    n = normalize(e)
    if n == ZERO:
        return ZeroVerdict.ZERO
    nodes = list(subexpressions(n))
    funcs = {node.func for node in nodes if type(node) is Call}
    if "exp" in funcs:
        return ZeroVerdict.UNKNOWN
    names = sorted({node.name for node in nodes if type(node) is Sym})
    bases = sorted({f.rstrip("'") for f in funcs})
    rng = random.Random(0)

    for _ in range(_ZERO_TEST_TRIALS):
        for attempt in range(5):
            env = {s: _sample_fraction(rng) for s in names}
            cubics = {b: [_sample_fraction(rng) for _ in range(4)]
                      for b in bases}
            fns = {f: _sampled_function(cubics[f.rstrip("'")], f.count("'"))
                   for f in funcs}
            try:
                if _value(n, env, fns, Fraction, _exact_power) != 0:
                    return ZeroVerdict.NONZERO
                break
            except (ZeroDivisionError, EvaluationError, _Inexact):
                if attempt == 4:
                    return ZeroVerdict.UNKNOWN
                continue
    return ZeroVerdict.UNKNOWN


# --------------------------------------------------------------------------
# Printer (deterministic; output parses back to a structurally equal tree)
# --------------------------------------------------------------------------

def _needs_parens_in_product(e: Expr) -> bool:
    return isinstance(e, Add) or (isinstance(e, Rat) and e.value < 0)


def _pow_base_text(e: Expr) -> str:
    if isinstance(e, (Add, Mul, Pow)) or (
            isinstance(e, Rat) and (e.value < 0 or e.value.denominator != 1)):
        return f"({to_text(e)})"
    return to_text(e)


def _pow_exp_text(e: Expr) -> str:
    if isinstance(e, Rat) and e.value >= 0 and e.value.denominator == 1:
        return to_text(e)
    return f"({to_text(e)})"


def to_text(e: Expr) -> str:
    """Deterministic infix form using the documented grammar."""
    if isinstance(e, Rat):
        v = e.value
        try:
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        except ValueError:      # sys.get_int_max_str_digits(), 4300 by default
            raise KernelError("a constant past the interpreter's limit on "
                              "the digits of an int has no printed form") from None
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_text(a) for a in e.args)})"
    if isinstance(e, Pow):
        return f"{_pow_base_text(e.base)}^{_pow_exp_text(e.exponent)}"
    if isinstance(e, Mul):
        factors = list(e.factors)
        sign = ""
        if factors and isinstance(factors[0], Rat) and factors[0].value < 0:
            if factors[0].value == -1 and len(factors) > 1:
                factors = factors[1:]
            else:
                factors[0] = Rat(-factors[0].value)
            sign = "-"
        parts = [f"({to_text(f)})" if _needs_parens_in_product(f) else to_text(f)
                 for f in factors]
        return sign + "*".join(parts)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            txt = f"({to_text(t)})" if isinstance(t, Add) else to_text(t)
            if i == 0:
                out.append(txt)
            elif txt.startswith("-"):
                out.append(f" - {txt[1:]}")
            else:
                out.append(f" + {txt}")
        return "".join(out)
    raise TypeError(type(e))
