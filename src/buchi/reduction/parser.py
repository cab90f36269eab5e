"""Recursive-descent parser for integer polynomial equation systems.

Grammar (UTF-8, '#' comments, equations separated by ';'):

    system   := equation (';' equation)* [';']
    equation := expr '=' expr
    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := ('-' | '+') factor | atom ['^' INT]
    atom     := INT | IDENT | '(' expr ')'

An IDENT starts with a letter and goes on with letters, digits and '_';
a leading '_' is refused, because the compiler names its target
variables _t<n>, _u<n> and _w<n>.

Equations are normalized on parse: lhs = rhs becomes (lhs - rhs) = 0.
All positions are 1-based (line, column).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..symbolic import MPoly, UPoly

MAX_EXPONENT = 4096
# Largest integer, in bits, that folding or evaluation builds: the target
# prints its constants in decimal, and CPython prints at most 4300 digits
# (about 14,284 bits) by default.
MAX_CONSTANT_BITS = 14_000
# parse_poly expands on integer coefficients, and schoolbook products
# make its cost grow about as degree**2 * bits, with the degree bound and
# the bits of the coefficient-sum bound (2-vCPU VM, CPython 3.11):
# (z+2)**200 takes about 0.01 s, (524287*z+524287)**200 (4000 bits, 1.6
# * 10**8) about 0.3 s, and ((2**62-1)*z+2**62-1)**200 (12,600 bits)
# 2 s.  A polynomial of degree 1 may still take MAX_CONSTANT_BITS bits.
MAX_POLY_DEGREE = 200
MAX_POLY_SIZE = 160_000_000
# Deepest expression accepted, in nested Python calls (resource guard);
# CPython allows about 1000.  Parsing nests four calls for each '(' and one
# for each sign, and folding, evaluation and lowering one call for each
# operator level of the syntax tree.  A flat sum or product of n terms is
# n - 1 levels deep, so 200 nested parentheses, a dense polynomial of
# degree MAX_POLY_DEGREE and a sum of 800 terms all fit.
MAX_DEPTH = 800


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = {"+": "PLUS", "-": "MINUS", "*": "STAR", "^": "CARET",
            "(": "LPAREN", ")": "RPAREN", "=": "EQUALS", ";": "SEMI"}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            if ch == "_":
                raise ParseError(f"identifier {text[start:i]!r} starts with '_', which "
                                 "is reserved for the target variables _t, _u and _w",
                                 line, col)
            tokens.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


@dataclass(frozen=True)
class Num:
    value: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Add:
    left: object
    right: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Sub:
    left: object
    right: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Mul:
    left: object
    right: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Equation:
    """One source equation, normalized to expr = 0."""

    expr: object


@dataclass(frozen=True)
class SourceSystem:
    equations: tuple[Equation, ...]
    variables: tuple[str, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

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
        names: set[str] = set()
        for eq in equations:
            collect_variables(eq.expr, names)
        return SourceSystem(tuple(equations), tuple(sorted(names)))

    def parse_equation(self) -> Equation:
        lhs = self.parse_shallow()
        tok = self.eat("EQUALS")
        rhs = self.parse_shallow()
        return Equation(Sub(lhs, rhs, (tok.line, tok.col)))

    def parse_shallow(self):
        """parse_expr, refused (resource guard) when the tree it returns
        is more than MAX_DEPTH operator levels deep."""
        tok = self.current
        node = self.parse_expr()
        depth, level = 0, [node]
        while level := [c for n in level for c in _children(n)]:
            depth += 1
        if depth > MAX_DEPTH:
            raise ParseError(f"expression {depth} operator levels deep > {MAX_DEPTH} "
                             "refused (resource guard)", tok.line, tok.col)
        return node

    def parse_expr(self, nesting: int = 0):
        node = self.parse_term(nesting)
        while self.current.kind in ("PLUS", "MINUS"):
            tok = self.current
            self.pos += 1
            rhs = self.parse_term(nesting)
            cls = Add if tok.kind == "PLUS" else Sub
            node = cls(node, rhs, (tok.line, tok.col))
        return node

    def parse_term(self, nesting: int):
        node = self.parse_factor(nesting)
        while self.current.kind == "STAR":
            tok = self.current
            self.pos += 1
            node = Mul(node, self.parse_factor(nesting), (tok.line, tok.col))
        return node

    def parse_factor(self, nesting: int):
        """A factor `nesting` parser calls inside open parentheses and
        signs, refused (resource guard) beyond MAX_DEPTH of them."""
        tok = self.current
        if nesting > MAX_DEPTH:
            raise ParseError(f"parentheses and signs nested more than {MAX_DEPTH} "
                             "parser calls deep (4 for each '(') refused "
                             "(resource guard)", tok.line, tok.col)
        if tok.kind == "MINUS":
            self.pos += 1
            return Neg(self.parse_factor(nesting + 1), (tok.line, tok.col))
        if tok.kind == "PLUS":
            self.pos += 1
            return self.parse_factor(nesting + 1)
        node = self.parse_atom(nesting)
        if self.current.kind == "CARET":
            caret = self.current
            self.pos += 1
            exp_tok = self.eat("INT")
            exponent = int(exp_tok.text)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent overflow (max {MAX_EXPONENT})",
                                 exp_tok.line, exp_tok.col)
            node = Pow(node, exponent, (caret.line, caret.col))
        return node

    def parse_atom(self, nesting: int):
        tok = self.current
        if tok.kind == "INT":
            self.pos += 1
            return Num(int(tok.text), (tok.line, tok.col))
        if tok.kind == "IDENT":
            self.pos += 1
            return Var(tok.text, (tok.line, tok.col))
        if tok.kind == "LPAREN":
            self.pos += 1
            node = self.parse_expr(nesting + 4)
            self.eat("RPAREN")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)


def parse(text: str) -> SourceSystem:
    """Parse a ';'-separated equation system into a SourceSystem."""
    tokens = tokenize(text)
    if tokens[0].kind == "EOF":
        raise ParseError("empty system", tokens[0].line, tokens[0].col)
    return _Parser(tokens).parse_system()


def _children(node) -> tuple:
    if isinstance(node, (Add, Sub, Mul)):
        return node.left, node.right
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def collect_variables(expr, out: set[str]) -> None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        stack.extend(_children(node))


def bounded(value: int) -> int:
    """value, refused (resource guard) beyond MAX_CONSTANT_BITS bits."""
    if value.bit_length() > MAX_CONSTANT_BITS:
        raise ValueError(f"integer of {value.bit_length()} bits > {MAX_CONSTANT_BITS} "
                         "refused (resource guard)")
    return value


def bounded_pow(base: int, k: int) -> int:
    """bounded(base**k).  Since |base|**k >= 2**((bit_length(base) - 1)*k),
    a power that must exceed MAX_CONSTANT_BITS bits is refused before it
    is computed."""
    if (base.bit_length() - 1) * k >= MAX_CONSTANT_BITS:
        raise ValueError(f"integer power of more than {MAX_CONSTANT_BITS} bits "
                         "refused (resource guard)")
    return bounded(base ** k)


def evaluate(expr, env) -> int:
    """Direct AST evaluation over the integers; a power beyond
    MAX_CONSTANT_BITS bits is refused.  Sums and products grow at most
    linearly with the text, so they are not checked."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Add):
        return evaluate(expr.left, env) + evaluate(expr.right, env)
    if isinstance(expr, Sub):
        return evaluate(expr.left, env) - evaluate(expr.right, env)
    if isinstance(expr, Mul):
        return evaluate(expr.left, env) * evaluate(expr.right, env)
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, env)
    if isinstance(expr, Pow):
        return bounded_pow(evaluate(expr.base, env), expr.exponent)
    raise TypeError(f"not an expression node: {expr!r}")


def _fold(expr, const, var):
    """Expand an AST bottom-up: const(value) and var(name) build the
    leaves, and the operators of whatever they return do the rest."""
    if isinstance(expr, Num):
        return const(expr.value)
    if isinstance(expr, Var):
        return var(expr.name)
    if isinstance(expr, Add):
        return _fold(expr.left, const, var) + _fold(expr.right, const, var)
    if isinstance(expr, Sub):
        return _fold(expr.left, const, var) - _fold(expr.right, const, var)
    if isinstance(expr, Mul):
        return _fold(expr.left, const, var) * _fold(expr.right, const, var)
    if isinstance(expr, Neg):
        return -_fold(expr.operand, const, var)
    if isinstance(expr, Pow):
        return _fold(expr.base, const, var) ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


def expand(expr, variables: tuple[str, ...]) -> MPoly:
    """Expand an AST into a sparse polynomial over the given variables."""
    return _fold(expr, lambda c: MPoly.constant(c, variables),
                 lambda name: MPoly.var(name, variables))


def _size_bound(expr) -> tuple[int, int]:
    """Upper bounds on the total degree of expr and on the sum of the
    absolute values of its coefficients, read off the AST; the sum is
    refused beyond MAX_CONSTANT_BITS bits."""
    if isinstance(expr, Num):
        return 0, expr.value
    if isinstance(expr, Var):
        return 1, 1
    if isinstance(expr, (Add, Sub)):
        (d1, n1), (d2, n2) = _size_bound(expr.left), _size_bound(expr.right)
        return max(d1, d2), bounded(n1 + n2)
    if isinstance(expr, Mul):
        (d1, n1), (d2, n2) = _size_bound(expr.left), _size_bound(expr.right)
        return d1 + d2, bounded(n1 * n2)
    if isinstance(expr, Neg):
        return _size_bound(expr.operand)
    if isinstance(expr, Pow):
        degree, norm = _size_bound(expr.base)
        return degree * expr.exponent, bounded_pow(norm, expr.exponent)
    raise TypeError(f"not an expression node: {expr!r}")


def parse_poly(text: str, var: str = "z") -> UPoly:
    """Parse a single expression in one variable as an exact polynomial.

    Shares the system grammar (minus '=' and ';'); any identifier other
    than `var` is rejected, and so is an expression whose degree bound
    exceeds MAX_POLY_DEGREE, whose bound on the sum of its coefficients'
    absolute values exceeds MAX_CONSTANT_BITS bits, or for which the
    degree bound squared times the bits of that sum exceeds MAX_POLY_SIZE.
    """
    tokens = tokenize(text)
    if tokens[0].kind == "EOF":
        raise ParseError("empty polynomial", tokens[0].line, tokens[0].col)
    parser = _Parser(tokens)
    expr = parser.parse_shallow()
    parser.eat("EOF")
    names: set[str] = set()
    collect_variables(expr, names)
    if not names <= {var}:
        bad = sorted(names - {var})[0]
        raise ParseError(f"unknown variable {bad!r} (only {var!r} is allowed)", 1, 1)
    degree, norm = _size_bound(expr)
    if degree > MAX_POLY_DEGREE:
        raise ValueError(f"polynomial degree bound {degree} > {MAX_POLY_DEGREE} "
                         "refused (resource guard)")
    if degree ** 2 * norm.bit_length() > MAX_POLY_SIZE:
        raise ValueError(f"polynomial of degree {degree} with a {norm.bit_length()}-bit "
                         f"coefficient bound: degree**2 * bits > {MAX_POLY_SIZE} "
                         "refused (resource guard)")
    return _fold(expr, UPoly.constant, lambda name: UPoly.x())
