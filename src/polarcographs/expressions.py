"""Algebraic cograph expression language.

Grammar (ASCII-safe; '*' is join, '+' is disjoint union, '~' is complement):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := INT factor | prefix
    prefix := '~' prefix | atom | '(' expr ')'
    atom   := 'K' INT | 'P' INT | 'C' INT | 'K' '{' INT ',' INT '}'

Precedence: complement > repetition > join > union.  Atoms are restricted to
cographs, so P_n is only allowed for n <= 3 and C_n for n in {3, 4}.
"""

from __future__ import annotations

from functools import reduce

from . import cotrees, graphs
from .cotrees import JOIN, UNION, compose
from .graphs import Graph
from .values import FrozenValue, set_field


class ExprError(ValueError):
    """Syntax or atom-validity error, carrying the byte offset in the input."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class Atom(FrozenValue):
    __slots__ = ("kind", "n")

    def __init__(self, kind, n):
        set_field(self, "kind", kind)  # 'K', 'P' or 'C'
        set_field(self, "n", n)


class Biclique(FrozenValue):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        set_field(self, "a", a)
        set_field(self, "b", b)


class Union(FrozenValue):
    __slots__ = ("parts",)

    def __init__(self, parts):
        set_field(self, "parts", parts)


class Join(FrozenValue):
    __slots__ = ("parts",)

    def __init__(self, parts):
        set_field(self, "parts", parts)


class Repeat(FrozenValue):
    __slots__ = ("count", "expr")

    def __init__(self, count, expr):
        set_field(self, "count", count)
        set_field(self, "expr", expr)


class Complement(FrozenValue):
    __slots__ = ("expr",)

    def __init__(self, expr):
        set_field(self, "expr", expr)


def _check_atom(kind, n, offset=None):
    def fail(msg):
        if offset is None:
            raise ValueError(msg)
        raise ExprError(msg, offset)

    if n < 1:
        fail(f"{kind}{n} needs a positive order")
    if kind == "P" and n > 3:
        fail(f"P{n} is not a cograph")
    if kind == "C" and n not in (3, 4):
        fail(f"C{n} is not a cograph")


def K(n):
    _check_atom("K", n)
    return Atom("K", n)


def P(n):
    _check_atom("P", n)
    return Atom("P", n)


def Kbip(a, b):
    if a < 1 or b < 1:
        raise ValueError("biclique parts must be positive")
    return Biclique(a, b)


def _flattened(cls, name, parts):
    """cls(parts) with operands of the same class spliced in; one operand is itself."""
    flat = []
    for p in parts:
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    if len(flat) < 2:
        raise ValueError(f"{name} needs at least two operands")
    return cls(tuple(flat))


def union(*parts):
    return _flattened(Union, "union", parts)


def joined(*parts):
    return _flattened(Join, "join", parts)


def repeat(count, expr):
    if count < 1:
        raise ValueError("repeat count must be at least 1")
    if count == 1:
        return expr
    return Repeat(count, expr)


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, offset=None):
        raise ExprError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def chain(self, sep, operand, cls):
        """operand (sep operand)*, as cls of the operands when there are several."""
        parts = [operand()]
        while self.peek() == sep:
            self.pos += 1
            parts.append(operand())
        return parts[0] if len(parts) == 1 else cls(tuple(parts))

    def expr(self):
        return self.chain("+", self.term, Union)

    def term(self):
        return self.chain("*", self.factor, Join)

    def factor(self):
        ch = self.peek()
        if ch.isdigit():
            count_at = self.pos
            count = self.integer()
            if count < 1:
                self.error("repeat count must be at least 1", count_at)
            inner = self.factor()
            return inner if count == 1 else Repeat(count, inner)
        return self.prefix()

    def prefix(self):
        ch = self.peek()
        if ch == "~":
            self.pos += 1
            return Complement(self.prefix())
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.eat(")")
            return inner
        return self.atom()

    def atom(self):
        ch = self.peek()
        at = self.pos
        if ch not in ("K", "P", "C"):
            self.error("expected an atom, '(', '~' or a repeat count")
        self.pos += 1
        if ch == "K" and self.peek() == "{":
            self.pos += 1
            a = self.integer()
            self.eat(",")
            b = self.integer()
            self.eat("}")
            if a < 1 or b < 1:
                self.error("biclique parts must be positive", at)
            return Biclique(a, b)
        n = self.integer()
        _check_atom(ch, n, at)
        return Atom(ch, n)


def parse(text):
    p = _Parser(text)
    out = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("trailing input")
    return out


# -- evaluation ---------------------------------------------------------------


def evaluate(e):
    """Build the graph denoted by an expression AST."""
    if isinstance(e, Atom):
        if e.kind == "K":
            return Graph.complete(e.n)
        if e.kind == "P":
            return Graph.path(e.n)
        return Graph.cycle(e.n)
    if isinstance(e, Biclique):
        return graphs.join(Graph.empty(e.a), Graph.empty(e.b))
    if isinstance(e, (Union, Join)):
        fold = graphs.disjoint_union if isinstance(e, Union) else graphs.join
        return reduce(fold, map(evaluate, e.parts))
    if isinstance(e, Repeat):
        return reduce(graphs.disjoint_union, [evaluate(e.expr)] * e.count)
    if isinstance(e, Complement):
        return graphs.complement(evaluate(e.expr))
    raise TypeError(f"not an expression node: {e!r}")


def _leaves(op, n):
    """K_n under JOIN, n K1 under UNION."""
    return compose(op, [cotrees.leaf() for _ in range(n)])


def to_cotree(e):
    """Normalized cotree of the graph an expression denotes, with no Graph built.

    ``cotrees.cotree_of(evaluate(e))`` gives the same canonical code and order.
    """
    if isinstance(e, Atom):
        if e.kind == "P" and e.n == 3:  # K1 * 2K1
            return compose(JOIN, [cotrees.leaf(), _leaves(UNION, 2)])
        if e.kind == "C" and e.n == 4:  # 2K1 * 2K1
            return compose(JOIN, [_leaves(UNION, 2), _leaves(UNION, 2)])
        return _leaves(JOIN, e.n)  # K_n, P1, P2 and C3
    if isinstance(e, Biclique):
        return compose(JOIN, [_leaves(UNION, e.a), _leaves(UNION, e.b)])
    if isinstance(e, (Union, Join)):
        return compose(UNION if isinstance(e, Union) else JOIN, [to_cotree(p) for p in e.parts])
    if isinstance(e, Repeat):
        return compose(UNION, [to_cotree(e.expr)] * e.count)
    if isinstance(e, Complement):
        return cotrees.flip_labels(to_cotree(e.expr))
    raise TypeError(f"not an expression node: {e!r}")


# -- printing -----------------------------------------------------------------

_LEVEL_UNION = 0
_LEVEL_JOIN = 1
_LEVEL_REPEAT = 2
_LEVEL_PREFIX = 3


def _level(e):
    if isinstance(e, Union):
        return _LEVEL_UNION
    if isinstance(e, Join):
        return _LEVEL_JOIN
    if isinstance(e, Repeat):
        return _LEVEL_REPEAT
    return _LEVEL_PREFIX


def _fmt(e, need):
    if isinstance(e, Atom):
        text = f"{e.kind}{e.n}"
    elif isinstance(e, Biclique):
        text = f"K{{{e.a},{e.b}}}"
    elif isinstance(e, Union):
        text = " + ".join(_fmt(p, _LEVEL_JOIN) for p in e.parts)
    elif isinstance(e, Join):
        text = " * ".join(_fmt(p, _LEVEL_REPEAT) for p in e.parts)
    elif isinstance(e, Repeat):
        if e.count == 1:
            return _fmt(e.expr, need)
        text = f"{e.count}{_fmt(e.expr, _LEVEL_PREFIX)}"
    elif isinstance(e, Complement):
        text = f"~{_fmt(e.expr, _LEVEL_PREFIX)}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _level(e) < need:
        return f"({text})"
    return text


def unparse(e):
    """Canonical text; parsing the text of a parsed AST gives the same AST back."""
    return _fmt(e, _LEVEL_UNION)


# -- catalog file format --------------------------------------------------------


def load_expression_lines(text):
    """Parse the on-disk format: one expression per line, '#' starts a comment."""
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(parse(body))
    return out
