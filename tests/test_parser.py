import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fluxsym.kernel import (
    Add, ArityError, KernelError, Mul, Pow, Rat, Sym, UndeclaredSymbolError,
    differentiate, normalize, to_text,
)
from fluxsym.model import Model
from fluxsym.parser import ParseError, parse

from conftest import random_expression


def test_parse_sum_of_products(model):
    got = parse("a1 + a2*r", model.table)
    assert got == normalize(Sym("a1") + Sym("a2") * Sym("r"))


def test_parse_undeclared_strict_mode(model):
    with pytest.raises(UndeclaredSymbolError) as err:
        parse("dq", model.table)
    assert "dq" in str(err.value)
    assert "byte 0" in str(err.value)


def test_parse_symbolic_exponent_round_trips(model):
    e = parse("(a3 + a4*t)^(2*a2/a4 - 1)", model.table)
    assert isinstance(e, Pow)
    assert parse(to_text(e), model.table) == e


def test_rational_constant_bases_round_trip(model):
    # a constant to a non-integer power, read as such or as the content of
    # a sum, prints in the form the parser reads it in: (3/2)^(1/2) as
    # 1/2*2^(1/2)*3^(1/2) and (-2)^(1/2) as (-1)^(1/2)*2^(1/2)
    for text in ("(3/2)^(1/2)", "(-2)^(1/2)", "(3*a1/2 + 3*a2/2)^(1/2)",
                 "(-2*a1 - 2*a2)^(1/2)", "(-2*a1/3 + 2*a2/3)^(a2/a4 - 1)"):
        e = parse(text, model.table)
        assert parse(to_text(e), model.table) == e, text


def test_parse_jet_names_resolve(model):
    # the standard table declares every jet the published equations print
    jets = ("D_r", "D_t", "D_rr", "D_rt", "Gamma_r", "Gamma_t")
    e = parse(" + ".join(jets), model.table)
    assert set(e.terms) == {Sym(name) for name in jets}
    # a higher jet is a name like any other: undeclared until
    # differentiation reaches it and declares it
    with pytest.raises(UndeclaredSymbolError, match=r"'D_rrt' \(byte 5\)"):
        parse("a1 + D_rrt", model.table)
    assert differentiate(Sym("D_rt"), "r", model.table) == Sym("D_rrt")
    info = model.table.info("D_rrt")
    assert info.kind == "jet" and info.base == "D" and info.order == (2, 1)
    assert parse("a1 + D_rrt", model.table) == normalize(
        Add((Sym("a1"), Sym("D_rrt"))))


def test_parse_function_application(model):
    e = parse("G(r*(a3 + a4*t)^(-a2/a4))", model.table)
    assert e.func == "G"


def test_parse_arity_mismatch(model):
    with pytest.raises(ArityError):
        parse("G(r, t)", model.table)
    with pytest.raises(ArityError):
        parse("G + 1", model.table)


def test_parse_syntax_error_offset(model):
    with pytest.raises(ParseError) as err:
        parse("a1 + * r", model.table)
    assert err.value.offset == 5


@pytest.mark.parametrize("text, offset", [("²", 0), ("r^²", 2), ("٣", 0),
                                          ("é + 1", 0), ("r²", 1), ("a1é", 2),
                                          ("r +\u00a0@", 5)],
                         ids=["superscript", "superscript-exponent",
                              "arabic-indic", "letter", "superscript-after-name",
                              "letter-in-name", "after-a-no-break-space"])
def test_a_non_ascii_character_is_an_unexpected_character(model, text, offset):
    # the grammar's NUMBER and NAME take ASCII characters only; the offset
    # counts UTF-8 bytes, so a no-break space before the error counts two
    char = text.encode("utf-8")[offset:].decode("utf-8")[0]
    with pytest.raises(ParseError) as err:
        parse(text, model.table)
    assert str(err.value) == f"unexpected character {char!r} (byte {offset})"
    assert err.value.offset == offset


def test_parse_unbalanced_paren(model):
    with pytest.raises(ParseError):
        parse("(a1 + a2", model.table)


def test_parse_precedence(model):
    assert parse("-a2^2", model.table) == normalize(-(Sym("a2") ** 2))
    assert parse("2^-1", model.table) == Rat(Fraction(1, 2))
    assert parse("a1/a2/a3", model.table) == normalize(
        Sym("a1") * Sym("a2") ** Rat(-1) * Sym("a3") ** Rat(-1))


def test_parse_decimal_is_exact(model):
    assert parse("0.5", model.table) == Rat(Fraction(1, 2))
    assert parse("2.25*r", model.table) == normalize(
        Rat(Fraction(9, 4)) * Sym("r"))


def test_round_trip_200_random_expressions(model):
    rng = random.Random(31)
    names = ("r", "t", "a1", "a2", "a3", "a4", "v", "D", "Gamma", "phi", "w")
    for _ in range(200):
        e = normalize(random_expression(rng, names, depth=4, funcs=("G", "F")))
        assert parse(to_text(e), model.table) == e


@st.composite
def rationals(draw):
    return Rat(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))


@st.composite
def expressions(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            rationals(),
            st.sampled_from([Sym(n) for n in ("r", "t", "a1", "a2")])))
    branch = draw(st.integers(0, 3))
    if branch == 0:
        return Add(tuple(draw(st.lists(expressions(depth=depth - 1),
                                       min_size=2, max_size=3))))
    if branch == 1:
        return Mul(tuple(draw(st.lists(expressions(depth=depth - 1),
                                       min_size=2, max_size=3))))
    if branch == 2:
        return Pow(draw(expressions(depth=depth - 1)),
                   Rat(draw(st.integers(0, 3))))
    return draw(expressions(depth=depth - 1))


@given(expressions())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_round_trip_property(e):
    table = Model().table
    n = normalize(e)
    assert parse(to_text(n), table) == n


def test_a_number_past_the_int_digit_limit_is_a_typed_error(model):
    # Python converts at most 4300 digits between int and str by default:
    # past it a literal is a ParseError and a constant has no printed form
    with pytest.raises(ParseError, match="limit on the digits"):
        parse("1" * 5000, model.table)
    with pytest.raises(KernelError, match="has no printed form"):
        to_text(parse("2^18000", model.table))
    assert len(to_text(parse("2^14000", model.table))) == 4215


_ATOMS = ("r", "t", "a1", "a4", "D_r", "Gamma", "q", "0", "1", "2", "1/2",
          "0.5", "(r - r)")
_EXPONENTS = ("0", "2", "3", "-1", "(1/2)", "(-1/2)", "a1", "30", "600",
              "(10^7)")


@st.composite
def texts(draw, depth=3):
    """Text in the grammar with errors mixed in: an undeclared name (q), a
    wrong arity, a zero base (r - r) and powers past the bounds."""
    if depth == 0:
        return draw(st.sampled_from(_ATOMS))
    a = draw(texts(depth=depth - 1))
    kind = draw(st.integers(0, 7))
    if kind <= 2:
        op = draw(st.sampled_from("+-*/"))
        return f"{a} {op} {draw(texts(depth=depth - 1))}"
    if kind <= 4:
        return f"({a})^{draw(st.sampled_from(_EXPONENTS))}"
    if kind == 5:
        return f"{draw(st.sampled_from(('G', 'exp', 'G', 'exp', 'D')))}({a})"
    if kind == 6:
        return f"G({a}, {draw(texts(depth=depth - 1))})"
    return f"-{a}"


@st.composite
def damaged_texts(draw):
    """A text of `texts`, one character of it replaced or dropped half of
    the time."""
    text = draw(texts())
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(("", "(", ")", "^", "*", ",",
                                                "@"))) + text[i + 1:]
    return text


@given(damaged_texts())
@settings(max_examples=400, deadline=2000, derandomize=True)
def test_any_text_round_trips_or_is_a_typed_error(text):
    # within the deadline: the power bounds refuse what would take longer.
    # A constant past the interpreter's limit on the digits of an int, such
    # as (-(2)^30)^600, has no printed form: to_text raises KernelError
    table = Model().table
    try:
        e = parse(text, table)
        printed = to_text(e)
    except (ParseError, UndeclaredSymbolError, ArityError, KernelError):
        return
    assert parse(printed, table) == e
