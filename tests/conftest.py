import random
from fractions import Fraction

import pytest

from fluxsym.forms import DifferentialForm
from fluxsym.kernel import Add, Call, Mul, Pow, Rat, Sym
from fluxsym.model import Model


@pytest.fixture()
def model():
    return Model()


def random_expression(rng: random.Random, symbols, depth=3, funcs=()):
    """Small random expression over the given symbol names."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.35:
            return Rat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return Sym(rng.choice(symbols))
    kind = rng.randint(0, 3 if funcs else 2)
    if kind == 0:
        return Add(tuple(random_expression(rng, symbols, depth - 1, funcs)
                         for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return Mul(tuple(random_expression(rng, symbols, depth - 1, funcs)
                         for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return Pow(random_expression(rng, symbols, depth - 1, funcs),
                   Rat(rng.randint(0, 3)))
    return Call(rng.choice(funcs),
                (random_expression(rng, symbols, depth - 1, funcs),))


def form_sum(*forms):
    """The sum of forms of one degree, each coefficient normalized once."""
    return DifferentialForm.build(
        forms[0].degree, [term for f in forms for term in f.coefficients])


def form_scale(form, factor):
    """`factor` times `form`, each coefficient normalized once."""
    return DifferentialForm.build(
        form.degree, [(key, Mul((factor, c))) for key, c in form.coefficients])
