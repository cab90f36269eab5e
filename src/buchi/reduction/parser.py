"""Recursive-descent parser for integer polynomial equation systems.

Grammar (ASCII tokens, equations separated by ';'):

    system   := equation (';' equation)* [';']
    equation := expr '=' expr
    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := ('-' | '+') factor | atom ['^' INT]
    atom     := INT | IDENT | '(' expr ')'

An INT is a run of digits 0-9, and an IDENT starts with a letter A-Z or
a-z and goes on with those letters, digits and '_'; a leading '_' is
refused, because the compiler names its target variables _t<n>, _u<n>
and _w<n>.  A '#' comment runs to the end of its line and may hold any
character; any other character but blanks is refused where it stands.

The syntax tree has five node types: the leaves Num and Var, and
Pow(base, exponent), Sum(terms) and Product(factors).  A Sum holds the
(sign, term) pairs of one expr in source order, each sign +1 or -1 and
the first +1; a parenthesized sum stays one term.  A Product holds the
factors of one term in source order, with those of a nested product
spliced in, parenthesized or not, and a sign as the factor Num(-1).  An
expr of one term is that term, and a term of one factor that factor.

Equations are normalized on parse: lhs = rhs becomes the two-term Sum
lhs - rhs, read as lhs - rhs = 0.  Positions are 1-based (line, column).

_fold is the one walk of the syntax tree: evaluation, the lowering
(lower._Lowerer.lower), the size bound of parse_poly and the expansions
to UPoly and MPoly each pass it their own operators.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import partial, reduce
from itertools import repeat
from operator import add, mul, sub

from .. import Record, guard

MAX_EXPONENT = 4096
# Largest integer, in bits, of a literal or of what folding or evaluation
# builds: the target prints its constants in decimal, and CPython converts
# at most 4300 digits (about 14,284 bits) between int and str by default.
MAX_CONSTANT_BITS = 14_000
# parse_poly expands on integer coefficients, and schoolbook products
# make its cost grow about as degree**2 * bits, with the degree bound and
# the bits of the coefficient-sum bound (2-vCPU VM, CPython 3.11):
# (z+2)**200 takes about 0.01 s, (524287*z+524287)**200 (4000 bits, 1.6
# * 10**8) about 0.3 s, and ((2**62-1)*z+2**62-1)**200 (12,600 bits)
# 2 s.  A polynomial of degree 1 may still take MAX_CONSTANT_BITS bits.
MAX_POLY_DEGREE = 200
MAX_POLY_SIZE = 160_000_000
# Deepest nesting accepted, in parser calls (resource guard): four for
# each '(' and one for each sign, where CPython allows about 1000.  A sum
# or product of any length is one node, and each node is built by a
# deeper parser call than its parent, so folding, evaluation and lowering,
# one call per node level, never nest deeper than the parser did.
MAX_DEPTH = 800
# Most tokens of one source or polynomial, the end of input not counted,
# refused by tokenize as it reaches them, so before any tree is built.
# The slowest admitted shape measured is x = z*z*...*z, two squarings per
# factor (2-vCPU VM, CPython 3.11): at its 4095 factors compile takes
# about 0.4 s (compiler.CHECK_WORK_BUDGET refuses its check), where 10**5
# factors were refused by GADGET_BUDGET only after 2.9 s.  A sum or
# product of 4000 terms after "x = " has 8001 tokens.
MAX_TOKENS = 8192


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "col", col)


_SYMBOLS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET",
            "(": "LPAREN", ")": "RPAREN", "=": "EQUALS", ";": "SEMI"}


# The lexical grammar of the module docstring, one named group per lexeme.
_LEXEME = re.compile(r"(?P<NEWLINE>\n)|(?P<BLANK>[ \t\r]+)|(?P<COMMENT>#[^\n]*)"
                     r"|(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
                     f"|(?P<SYMBOL>[{re.escape(''.join(_SYMBOLS))}])|(?P<OTHER>.)")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, start = 1, 0  # start: the index at which the line begins
    for lexeme in _LEXEME.finditer(text):
        kind, word, col = lexeme.lastgroup, lexeme.group(), lexeme.start() - start + 1
        if kind == "NEWLINE":
            line, start = line + 1, lexeme.end()
            continue
        if kind == "BLANK" or kind == "COMMENT":
            continue
        guard("MAX_TOKENS", len(tokens) + 1, MAX_TOKENS, "tokens", ParseError, line, col)
        if kind == "OTHER":
            raise ParseError(f"unexpected character {word!r}", line, col)
        if kind == "INT":
            word = word.lstrip("0") or "0"
            # its bits: exact up to the 4300 digits int() takes, more beyond
            guard("MAX_CONSTANT_BITS", int(word[:4300]).bit_length(), MAX_CONSTANT_BITS,
                  "bits of an integer literal", ParseError, line, col)
        elif kind == "IDENT" and word[0] == "_":
            raise ParseError(f"identifier {word!r} starts with '_', which is reserved "
                             "for the target variables _t, _u and _w", line, col)
        tokens.append(Token(_SYMBOLS.get(word, kind), word, line, col))
    # EOF stands at the end of the last line, or at its comment if it has one
    tokens.append(Token("EOF", "", line, len(text[start:].partition("#")[0]) + 1))
    return tokens


class Num(Record):
    __slots__ = ("value",)


class Var(Record):
    __slots__ = ("name",)


class Sum(Record):
    __slots__ = ("terms",)  # (sign, term) pairs


class Product(Record):
    __slots__ = ("factors",)


class Pow(Record):
    __slots__ = ("base", "exponent")


class Equation(Record):
    """One source equation, normalized to expr = 0."""

    __slots__ = ("expr",)

    def residual(self, env: dict[str, Sequence[int]], rows: int) -> Sequence[int]:
        """expr at each of env's `rows` rows, as evaluate."""
        return evaluate(self.expr, env, rows)


class SourceSystem(Record):
    # size: the tokens of the source, a bound on the nodes of its trees
    __slots__ = ("equations", "variables", "size")


def _product(factors: list):
    """The Product of factors, with the factors of any nested Product
    spliced in; a single factor is itself."""
    flat = []
    for f in factors:
        flat.extend(f.factors if isinstance(f, Product) else (f,))
    return Product(tuple(flat)) if len(flat) > 1 else flat[0]


class _Parser:
    def __init__(self, text: str, what: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.names: dict[str, Token] = {}  # each name's first token, in source order
        if self.current.kind == "EOF":
            raise ParseError(f"empty {what}", self.current.line, self.current.col)

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def eat(self, kind: str) -> Token:
        tok = self.current
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        self.pos += 1
        return tok

    def parse_system(self) -> SourceSystem:
        equations = [self.parse_equation()]
        while self.current.kind == "SEMI":
            self.eat("SEMI")
            if self.current.kind == "EOF":
                break
            equations.append(self.parse_equation())
        self.eat("EOF")
        return SourceSystem(tuple(equations), tuple(sorted(self.names)), len(self.tokens))

    def parse_equation(self) -> Equation:
        lhs = self.parse_expr()
        self.eat("EQUALS")
        return Equation(Sum(((1, lhs), (-1, self.parse_expr()))))

    def parse_expr(self, nesting: int = 0):
        terms = [(1, self.parse_term(nesting))]
        while self.current.kind in ("PLUS", "MINUS"):
            sign = 1 if self.current.kind == "PLUS" else -1
            self.pos += 1
            terms.append((sign, self.parse_term(nesting)))
        return Sum(tuple(terms)) if len(terms) > 1 else terms[0][1]

    def parse_term(self, nesting: int):
        factors = [self.parse_factor(nesting)]
        while self.current.kind == "STAR":
            self.pos += 1
            factors.append(self.parse_factor(nesting))
        return _product(factors)

    def parse_factor(self, nesting: int):
        """A factor `nesting` parser calls inside open parentheses and
        signs, refused beyond MAX_DEPTH of them."""
        tok = self.current
        guard("MAX_DEPTH", nesting, MAX_DEPTH, "nesting", ParseError, tok.line, tok.col)
        if tok.kind in ("MINUS", "PLUS"):
            self.pos += 1
            node = self.parse_factor(nesting + 1)
            return _product([Num(-1), node]) if tok.kind == "MINUS" else node
        node = self.parse_atom(nesting)
        if self.current.kind == "CARET":
            self.pos += 1
            exp_tok = self.eat("INT")
            exponent = int(exp_tok.text)
            guard("MAX_EXPONENT", exponent, MAX_EXPONENT, "exponent", ParseError,
                  exp_tok.line, exp_tok.col)
            node = Pow(node, exponent)
        return node

    def parse_atom(self, nesting: int):
        tok = self.current
        if tok.kind == "INT":
            self.pos += 1
            return Num(int(tok.text))
        if tok.kind == "IDENT":
            self.pos += 1
            self.names.setdefault(tok.text, tok)
            return Var(tok.text)
        if tok.kind == "LPAREN":
            self.pos += 1
            node = self.parse_expr(nesting + 4)
            self.eat("RPAREN")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


def parse(text: str) -> SourceSystem:
    """Parse a ';'-separated equation system into a SourceSystem."""
    return _Parser(text, "system").parse_system()


def bounded(value: int) -> int:
    """value, refused beyond MAX_CONSTANT_BITS bits."""
    guard("MAX_CONSTANT_BITS", value.bit_length(), MAX_CONSTANT_BITS, "bits of an integer")
    return value


def bounded_pow(base: int, k: int) -> int:
    """bounded(base**k).  Since |base|**k >= 2**((bit_length(base) - 1)*k),
    a power of more than MAX_CONSTANT_BITS bits by that bound is refused
    before it is computed."""
    guard("MAX_CONSTANT_BITS", (base.bit_length() - 1) * k + 1, MAX_CONSTANT_BITS,
          "bits of an integer power, at least")
    return bounded(base ** k)


def _fold(expr, const, var, add=add, sub=sub, product=partial(reduce, mul), power=pow):
    """Fold an AST bottom-up: const(value) and var(name) build the
    leaves, add and sub combine the terms of a sum left to right,
    product(factors) the list of a product's factors, and
    power(base, exponent) a power."""
    def walk(node):
        if isinstance(node, Num):
            return const(node.value)
        if isinstance(node, Var):
            return var(node.name)
        if isinstance(node, Sum):
            acc = walk(node.terms[0][1])  # the first sign is +1
            for sign, term in node.terms[1:]:
                acc = (add if sign > 0 else sub)(acc, walk(term))
            return acc
        if isinstance(node, Product):
            factors = []  # a loop, not a comprehension: one frame per level
            for factor in node.factors:
                factors.append(walk(factor))
            return product(factors)
        if isinstance(node, Pow):
            return power(walk(node.base), node.exponent)
        raise TypeError(f"not an expression node: {node!r}")
    return walk(expr)


def evaluate(expr, env: dict[str, Sequence[int]], rows: int) -> Sequence[int]:
    """Direct AST evaluation over the integers, on columns: env maps each
    variable to its values at `rows` assignments, and the result holds
    expr's value at each.  A power beyond MAX_CONSTANT_BITS bits is
    refused: |b|**k grows with |b|, so checking the largest |base| of a
    column refuses exactly when some row would.  Sums and products grow
    at most linearly with the text, so they are not checked."""
    def power(base, k):
        bounded_pow(max(map(abs, base), default=0), k)
        return tuple(map(pow, base, repeat(k)))

    return _fold(expr, lambda c: (c,) * rows, env.__getitem__,
                 lambda a, b: tuple(map(add, a, b)), lambda a, b: tuple(map(sub, a, b)),
                 partial(reduce, lambda a, b: tuple(map(mul, a, b))), power)


def expand(expr, variables: tuple[str, ...]) -> MPoly:
    """Expand an AST into a sparse polynomial over the given variables."""
    from ..symbolic import MPoly  # here, so that compile and check never load it
    return _fold(expr, lambda c: MPoly.constant(c, variables),
                 lambda name: MPoly.var(name, variables))


def _size_bound(expr) -> tuple[int, int]:
    """Upper bounds on the total degree of expr and on the sum of the
    absolute values of its coefficients, read off the AST; the sum is
    refused beyond MAX_CONSTANT_BITS bits after each term or factor."""
    def plus(a, b):
        return max(a[0], b[0]), bounded(a[1] + b[1])

    return _fold(expr, lambda c: (0, abs(c)), lambda name: (1, 1), plus, plus,
                 partial(reduce, lambda a, b: (a[0] + b[0], bounded(a[1] * b[1]))),
                 lambda a, k: (a[0] * k, bounded_pow(a[1], k)))


def parse_poly(text: str) -> UPoly:
    """Parse a single expression in z as an exact polynomial.

    Shares the system grammar (minus '=' and ';'); the first identifier
    other than z is rejected where it stands, and so is an expression
    whose degree bound exceeds MAX_POLY_DEGREE, whose bound on the sum of
    its coefficients' absolute values exceeds MAX_CONSTANT_BITS bits, or
    for which the degree bound squared times the bits of that sum exceeds
    MAX_POLY_SIZE.
    """
    parser = _Parser(text, "polynomial")
    expr = parser.parse_expr()
    parser.eat("EOF")
    for name, tok in parser.names.items():
        if name != "z":
            raise ParseError(f"unknown variable {name!r} (only 'z' is allowed)",
                             tok.line, tok.col)
    degree, norm = _size_bound(expr)
    guard("MAX_POLY_DEGREE", degree, MAX_POLY_DEGREE, "polynomial degree bound")
    guard("MAX_POLY_SIZE", degree ** 2 * norm.bit_length(), MAX_POLY_SIZE,
          "degree bound**2 * bits of the coefficient-sum bound")
    from ..symbolic import UPoly  # here, so that compile and check never load it
    return _fold(expr, UPoly.constant, lambda name: UPoly.x())
