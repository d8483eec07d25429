"""Differential forms over the extended coordinate set.

Wedge slots are ordered t < r < phi < w < D < Gamma.  The last two are the
formal differentials of the material functions: they appear when a form is
written before restricting to the solution manifold (the gradient-closure
2-form needs dD as a basis slot) and are removed by sectioning, which
expands every dependent differential over dr, dt.

Storage is canonical: strictly increasing slot tuples, normalized
coefficients, zero coefficients pruned.  Forms are immutable values.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .kernel import (
    Expr, Mul, Pow, Rat, SymbolTable, ZERO, as_expr, differentiate,
    linear_combination, normalize,
)
from .model import COORDINATES, Model

SLOTS = COORDINATES + ("D", "Gamma")
_SLOT_INDEX = {name: i for i, name in enumerate(SLOTS)}


class FormError(Exception):
    pass


def basis_label(slots) -> str:
    """The label of a basis form, "dt∧dr", from its slot indices or names."""
    return "∧".join(f"d{SLOTS[s] if type(s) is int else s}" for s in slots)


def _sort_with_sign(indices):
    """Insertion sort returning (sorted tuple, permutation sign); None for
    repeated slots."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class DifferentialForm(NamedTuple):
    degree: int
    coefficients: tuple  # ((slot index tuple, Expr), ...) sorted

    @staticmethod
    def build(degree: int, terms) -> "DifferentialForm":
        """terms: iterable of (slot name/index tuple, coefficient)."""
        acc: dict = {}
        for slots, coef in terms:
            idx = tuple(_SLOT_INDEX[s] if isinstance(s, str) else int(s)
                        for s in slots)
            if len(idx) != degree:
                raise FormError(f"term {slots} does not have degree {degree}")
            srt, sign = _sort_with_sign(idx)
            if sign == 0:
                continue
            acc.setdefault(srt, []).append((sign, coef))
        out = []
        for key in sorted(acc):
            c = linear_combination(acc[key])
            if c != ZERO:
                out.append((key, c))
        return DifferentialForm(degree, tuple(out))

    def get(self, *slot_names) -> Expr:
        idx, sign = _sort_with_sign(
            tuple(_SLOT_INDEX[s] for s in slot_names))
        if sign == 0:
            return ZERO
        for key, coef in self.coefficients:
            if key == idx:
                return coef if sign > 0 else linear_combination(((-1, coef),))
        return ZERO


def scalar_form(e) -> DifferentialForm:
    c = normalize(as_expr(e))
    return DifferentialForm(0, ()) if c == ZERO else DifferentialForm(0, (((), c),))


def d_slot(name: str) -> DifferentialForm:
    """The basis 1-form d<name>."""
    return DifferentialForm.build(1, [((name,), Rat(1))])


def wedge(alpha: DifferentialForm, beta: DifferentialForm) -> DifferentialForm:
    """Bilinear graded-anticommutative product.  Past the six slots every
    term repeats a slot, so the product is the zero form."""
    terms = []
    for key_a, coef_a in alpha.coefficients:
        for key_b, coef_b in beta.coefficients:
            terms.append((key_a + key_b, Mul((coef_a, coef_b))))
    return DifferentialForm.build(alpha.degree + beta.degree, terms)


def exterior_d(alpha: DifferentialForm, table: SymbolTable) -> DifferentialForm:
    """Exterior derivative, by Leibniz over the coefficients.

    The four base coordinates are treated as independent and the material
    symbols contribute their jets on dr, dt (via the kernel's
    differentiation).  Nilpotent: d(d(alpha)) = 0.
    """
    terms = []
    for key, coef in alpha.coefficients:
        for name in COORDINATES:
            df = differentiate(coef, name, table)
            if df != ZERO:
                terms.append(((_SLOT_INDEX[name],) + key, df))
    return DifferentialForm.build(alpha.degree + 1, terms)


def section(alpha: DifferentialForm, table: SymbolTable) -> DifferentialForm:
    """Restrict to the solution manifold, where phi, w, D and Gamma depend
    on (r, t): each dependent differential dq becomes q_r dr + q_t dt, so
    the result lives on the dt, dr basis only."""
    if alpha.degree < 1:
        raise FormError("sectioning needs a form of degree >= 1")
    repl = {name: DifferentialForm.build(1, [(("r",), table.jet(name, 1, 0)),
                                             (("t",), table.jet(name, 0, 1))])
            for name in ("phi", "w", "D", "Gamma")}
    terms = []
    for key, coef in alpha.coefficients:
        # the sectioned basis of the slot key, with unit coefficient, so
        # that one wedge multiplies the coefficient in
        basis = functools.reduce(wedge, [
            repl[SLOTS[i]] if SLOTS[i] in repl else d_slot(SLOTS[i])
            for i in key])
        terms.extend(wedge(scalar_form(coef), basis).coefficients)
    return DifferentialForm.build(alpha.degree, terms)


# --------------------------------------------------------------------------
# The model's exterior differential system
# --------------------------------------------------------------------------

def build_mu1(model: Model, geometry: Expr) -> DifferentialForm:
    """Flux-balance 2-form times r (n D in place of n r^-1 D r), which keeps
    the coefficients regular at r = 0: the form `extract_determining`
    reduces.

    geometry: the index expression (model.geometry_index(...)).

    The production term is stored on dr∧dt so that the dt∧dr coefficient
    of the sectioned form, set to zero, is r times the governing equation
    exactly (the published display carries it on dt∧dr, which is
    inconsistent with its own sectioned expansion by exactly this sign).
    """
    m = model
    terms = [
        (("phi", "r"), Mul((m.r, Pow(m.v, Rat(-1))))),
        (("phi", "t"), Mul((geometry, m.D))),
        (("phi", "t"), Mul((m.r, m.table.jet("D", 1, 0)))),
        (("w", "t"), Mul((m.r, m.D))),
        (("r", "t"), Mul((m.r, m.Gamma, m.phi))),
    ]
    return DifferentialForm.build(2, terms)


def build_mu2(model: Model) -> DifferentialForm:
    """Gradient-definition 2-form: w dt∧dr + dphi∧dt."""
    return DifferentialForm.build(2, [
        (("t", "r"), model.w),
        (("phi", "t"), Rat(1)),
    ])


def build_mu3(model: Model) -> DifferentialForm:
    """Gradient-closure 2-form D_r dr∧dt - dD∧dt.

    dD is kept as a formal slot (the two-term display form); sectioning
    cancels the form to zero identically.
    """
    return DifferentialForm.build(2, [
        (("r", "t"), model.table.jet("D", 1, 0)),
        (("D", "t"), Rat(-1)),
    ])
