import pytest

from polarcographs import cotrees, expressions, graphs
from polarcographs.expressions import (
    Atom,
    Complement,
    ExprError,
    Join,
    Repeat,
    Union,
    evaluate,
    parse,
    unparse,
)
from polarcographs.graphs import Graph


def test_atoms():
    assert evaluate(parse("K3")) == Graph.complete(3)
    assert evaluate(parse("P3")) == Graph.path(3)
    assert evaluate(parse("C4")) == Graph.cycle(4)
    assert cotrees.is_isomorphic(evaluate(parse("K{2,3}")), graphs.join(Graph.empty(2), Graph.empty(3)))


def test_atom_restrictions():
    for bad in ("P4", "P9", "C5", "C6", "K0", "P0", "K{0,2}"):
        with pytest.raises(ExprError):
            parse(bad)


def test_error_offsets():
    with pytest.raises(ExprError) as e:
        parse("K2 + P4")
    assert e.value.offset == 5
    with pytest.raises(ExprError) as e:
        parse("K2 + ")
    assert e.value.offset == 5
    with pytest.raises(ExprError) as e:
        parse("K2 K3")
    assert e.value.offset == 3


def test_precedence():
    # '*' binds tighter than '+'; repetition tighter than '*'; '~' tightest
    e = parse("K1 + K2 * K3")
    assert isinstance(e, Union)
    assert isinstance(e.parts[1], Join)
    e = parse("2K2 * K1")
    assert isinstance(e, Join)
    assert isinstance(e.parts[0], Repeat)
    e = parse("~K2 * K1")
    assert isinstance(e, Join)
    assert isinstance(e.parts[0], Complement)


def test_repeat_and_parens():
    assert evaluate(parse("3K2")).n == 6
    assert evaluate(parse("2(K1 + K2)")).n == 6
    assert parse("1K2") == Atom("K", 2)


def test_complement():
    g = evaluate(parse("~(2P3)"))
    assert cotrees.is_isomorphic(g, graphs.complement(evaluate(parse("2P3"))))
    assert evaluate(parse("~~C4")) == evaluate(parse("C4"))


def test_unparse_roundtrip():
    for text in (
        "K1 * C4",
        "2K1 + K2 + ~K2 * (K2 + 2K1)",
        "K1 + K1 * (K1 + ~(K2 + P3))",
        "3(K1 + K2)",
        "K{3,3} + P3",
    ):
        e = parse(text)
        assert parse(unparse(e)) == e


def test_builders_validate():
    with pytest.raises(ValueError):
        expressions.K(0)
    with pytest.raises(ValueError):
        expressions.P(4)
    with pytest.raises(ValueError):
        expressions.repeat(0, expressions.K(1))
    with pytest.raises(ValueError):
        expressions.Kbip(0, 1)
    assert expressions.repeat(1, expressions.K(2)) == Atom("K", 2)
    assert isinstance(expressions.union(expressions.K(1), expressions.union(expressions.K(1), expressions.K(2))), Union)


def test_trailing_input_rejected():
    with pytest.raises(ExprError):
        parse("K2)")


def test_load_expression_lines():
    text = "# header\nK2 + K1  # trailing comment\n\nC4\n"
    exprs = expressions.load_expression_lines(text)
    assert len(exprs) == 2
    assert evaluate(exprs[1]) == Graph.cycle(4)
