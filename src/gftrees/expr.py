"""Expression language for scalar fields on R^D with exact derivatives.

Grammar (EBNF)::

    expr   := term { ("+" | "-") term }
    term   := unary { ("*" | "/") unary }
    unary  := ("+" | "-") unary | power
    power  := atom [ "^" integer ]
    atom   := NUMBER | "pi" | VARIABLE | FUNCTION "(" expr ")" | "(" expr ")"

    NUMBER   := digits ["." digits] [("e"|"E") ["+"|"-"] digits] | "." digits
    FUNCTION := "sin" | "cos" | "exp" | "bump"

Variables are declared up front (e.g. ``x1..xn, e1..eN``); referencing
anything else is an error.  Exponents must be integer literals — fractional
powers are excluded to avoid branch cuts.  ``bump(t)`` is the fixed smooth
cutoff: identically 1 for |t| <= 1, identically 0 for |t| >= 2, monotone
C^2 in between (a quintic ramp, so its first and second derivatives vanish
at |t| = 1 and |t| = 2).

Expressions are immutable trees whose subtrees may be shared objects;
`fold` and `diff` handle each node object once per call, so a derivative
that reuses its operands costs its DAG, not its tree.  Differentiation is
symbolic; first and second derivatives are exact up to round-off.  A
`Derivatives` derives a node's gradient once, and its Hessian from that
gradient, on first use.  `compile_*` turn expressions into plain Python
(scalar, for one point at a time) or vectorised numpy code (for batches
of points); `ScalarField` compiles each flavour once, and all four
gradient and Hessian compiles of a field read one `Derivatives`.

The vector flavour evaluates the box cutoffs as one block.  A prologue
stacks every variable that reaches `Warp(Var)` or `WarpSlope(Var)` into a
(k, B) array and calls each cutoff helper it needs (`warp`, `warpslope`,
`bump`, `dbump`, `d2bump`) once on that block, with the per-row box
constants as (k, 1) environment arrays; each former helper call becomes a
row read.  The helpers are elementwise IEEE operations, so a row has the
bits of the separate call it replaces.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np


class ParseError(ValueError):
    """Malformed expression text; carries the 0-based offset in `pos`."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class DomainError(ArithmeticError):
    """Evaluation left the expression's domain (division by zero)."""


# ---------------------------------------------------------------------------
# AST nodes

class Expr:
    __slots__ = ("_key",)

    def key(self):
        k = getattr(self, "_key", None)
        if k is None:
            k = self._make_key()
            self._key = k
        return k

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Expr(%s)" % to_str(self)


class Num(Expr):
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = float(v)

    def _make_key(self):
        return ("num", self.v)


class Var(Expr):
    __slots__ = ("i",)

    def __init__(self, i):
        self.i = int(i)

    def _make_key(self):
        return ("var", self.i)


class _Bin(Expr):
    __slots__ = ("a", "b")
    op = "?"

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _make_key(self):
        return (self.op, self.a.key(), self.b.key())


class Add(_Bin):
    op = "+"


class Sub(_Bin):
    op = "-"


class Mul(_Bin):
    op = "*"


class Div(_Bin):
    op = "/"


class Pow(Expr):
    __slots__ = ("a", "k")

    def __init__(self, a, k):
        self.a = a
        self.k = int(k)

    def _make_key(self):
        return ("^", self.a.key(), self.k)


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def _make_key(self):
        return ("neg", self.a.key())


class Call(Expr):
    """Unary function application: sin, cos, exp, bump (+ bump derivatives)."""

    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a

    def _make_key(self):
        return ("call", self.fn, self.a.key())


class Warp(Expr):
    """Piecewise-linear rescaling used to feed box coordinates into bump.

    Maps [il, ih] onto [-1, 1] and [ol, oh] onto [-2, 2] (affinely on each
    of the three segments), so that ``bump(warp(c))`` is 1 on the inner
    interval and 0 outside the outer one.  The slope jumps at il and ih sit
    where bump's derivatives vanish, so composites stay C^2.
    """

    __slots__ = ("a", "il", "ih", "ol", "oh")

    def __init__(self, a, il, ih, ol, oh):
        if not (ol < il < ih < oh):
            raise ValueError("warp needs ol < il < ih < oh, got %r" % ((ol, il, ih, oh),))
        self.a = a
        self.il = float(il)
        self.ih = float(ih)
        self.ol = float(ol)
        self.oh = float(oh)

    def _make_key(self):
        return ("warp", self.a.key(), self.il, self.ih, self.ol, self.oh)


class WarpSlope(Expr):
    """d/dc of Warp: piecewise constant (derivative taken segment-wise)."""

    __slots__ = ("a", "il", "ih", "ol", "oh")

    def __init__(self, a, il, ih, ol, oh):
        self.a = a
        self.il = float(il)
        self.ih = float(ih)
        self.ol = float(ol)
        self.oh = float(oh)

    def _make_key(self):
        return ("warpslope", self.a.key(), self.il, self.ih, self.ol, self.oh)


_FUNCTIONS = ("sin", "cos", "exp", "bump")
# internal-only function tags produced by differentiation
_DERIV_FUNCTIONS = ("dbump", "d2bump")


# ---------------------------------------------------------------------------
# Parsing

class VarLayout:
    """Variable naming for a family domain: x1..xn then e1..eN."""

    def __init__(self, n, N):
        self.n = int(n)
        self.N = int(N)
        self.names = ["x%d" % (i + 1) for i in range(self.n)] + \
                     ["e%d" % (k + 1) for k in range(self.N)]


_TOKEN_RE = re.compile(r"""
    (?P<num>   \d+\.\d*(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)? | \d+(?:[eE][+-]?\d+)? )
  | (?P<name>  [A-Za-z_][A-Za-z0-9_]* )
  | (?P<op>    \^ | [-+*/()] | , )
  | (?P<ws>    \s+ )
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, names):
        self.tokens = tokens
        self.i = 0
        self.index_of = {name: i for i, name in enumerate(names)}

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError("expected %r" % op, pos)
        return self.take()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                rhs = self.parse_term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                rhs = self.parse_unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def parse_unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            node = self.parse_unary()
            return node if text == "+" else Neg(node)
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.take()
            node = Pow(node, self.parse_int_exponent())
        return node

    def parse_int_exponent(self):
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text in "+-":
            self.take()
            if text == "-":
                sign = -1
            kind, text, pos = self.peek()
        if kind != "num":
            raise ParseError("exponent must be an integer literal", pos)
        self.take()
        if not re.fullmatch(r"\d+", text):
            raise ParseError("exponent must be an integer, got %r" % text, pos)
        return sign * int(text)

    def parse_atom(self):
        kind, text, pos = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if text == "pi":
                return Num(math.pi)
            nk, nt, npos = self.peek()
            if nk == "op" and nt == "(":
                if text not in _FUNCTIONS:
                    raise ParseError("unknown function %r" % text, pos)
                self.take()
                arg = self.parse_expr()
                ck, ct, cpos = self.peek()
                if ck == "op" and ct == ",":
                    raise ParseError("%s takes exactly one argument" % text, cpos)
                self.expect_op(")")
                return Call(text, arg)
            if text in self.index_of:
                return Var(self.index_of[text])
            raise ParseError("unknown identifier %r" % text, pos)
        raise ParseError("expected a value", pos)


def parse(text, layout):
    """Parse `text` against a variable layout.

    `layout` is a VarLayout, or any ordered sequence of variable names.
    Returns a folded Expr.
    """
    names = layout.names if isinstance(layout, VarLayout) else list(layout)
    tokens = _tokenize(text)
    parser = _Parser(tokens, names)
    node = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return fold(node)


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2, "^": 3}


def to_str(node):
    return _to_str(node, 0)


def _to_str(node, parent_prec):
    if isinstance(node, Num):
        if node.v == int(node.v) and abs(node.v) < 1e16:
            s = repr(int(node.v))
        else:
            s = repr(node.v)
        return "(%s)" % s if node.v < 0 and parent_prec > 1 else s
    if isinstance(node, Var):
        return "@%d" % node.i  # overridden by callers that know names
    if isinstance(node, Neg):
        inner = _to_str(node.a, _PREC["neg"])
        s = "-%s" % inner
        return "(%s)" % s if parent_prec >= _PREC["neg"] else s
    if isinstance(node, _Bin):
        prec = _PREC[node.op]
        left = _to_str(node.a, prec - 1 if node.op in "+*" else prec - 1)
        # right side binds tighter for - and /
        right = _to_str(node.b, prec if node.op in "-/" else prec - 1)
        s = "%s %s %s" % (left, node.op, right)
        return "(%s)" % s if prec <= parent_prec else s
    if isinstance(node, Pow):
        base = _to_str(node.a, _PREC["^"])
        s = "%s^%d" % (base, node.k)
        return "(%s)" % s if _PREC["^"] <= parent_prec else s
    if isinstance(node, Call):
        return "%s(%s)" % (node.fn, _to_str(node.a, 0))
    if isinstance(node, Warp):
        return "warp(%s; %g,%g,%g,%g)" % (_to_str(node.a, 0), node.il, node.ih, node.ol, node.oh)
    if isinstance(node, WarpSlope):
        return "warpslope(%s; %g,%g,%g,%g)" % (_to_str(node.a, 0), node.il, node.ih, node.ol, node.oh)
    raise TypeError("unknown node %r" % (node,))


def to_named_str(node, names):
    """to_str with variable indices replaced by their names."""
    s = to_str(node)
    # replace in reverse index order so @12 is not clobbered by @1
    for i in sorted({v.i for v in iter_nodes(node) if isinstance(v, Var)}, reverse=True):
        s = s.replace("@%d" % i, names[i])
    return s


def iter_nodes(node):
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for attr in ("a", "b"):
            child = getattr(cur, attr, None)
            if isinstance(child, Expr):
                stack.append(child)


def free_vars(node):
    return {cur.i for cur in iter_nodes(node) if isinstance(cur, Var)}


# ---------------------------------------------------------------------------
# Substitution, folding, differentiation

def subst(node, mapping):
    """Replace Var(i) by mapping[i] (an Expr) where present."""
    if isinstance(node, Var):
        repl = mapping.get(node.i)
        return repl if repl is not None else node
    if isinstance(node, Num):
        return node
    if isinstance(node, Neg):
        return Neg(subst(node.a, mapping))
    if isinstance(node, _Bin):
        return type(node)(subst(node.a, mapping), subst(node.b, mapping))
    if isinstance(node, Pow):
        return Pow(subst(node.a, mapping), node.k)
    if isinstance(node, Call):
        return Call(node.fn, subst(node.a, mapping))
    if isinstance(node, (Warp, WarpSlope)):
        return type(node)(subst(node.a, mapping), node.il, node.ih, node.ol, node.oh)
    raise TypeError("unknown node %r" % (node,))


def shift_vars(node, offset_map):
    """Relabel variable indices: Var(i) -> Var(offset_map[i])."""
    return subst(node, {i: Var(j) for i, j in offset_map.items()})


def _num(node):
    return node.v if isinstance(node, Num) else None


def fold(node):
    """Constant folding plus the cheap identities (x+0, 1*x, x-x, ...).

    Derivatives share subtrees, so one call folds each node object once,
    however many paths reach it.
    """
    memo = {}

    def rec(n):
        if isinstance(n, (Num, Var)):
            return n
        out = memo.get(id(n))
        if out is None:
            out = memo[id(n)] = _fold_node(n, rec)
        return out
    return rec(node)


def _fold_node(node, rec):
    if isinstance(node, Neg):
        a = rec(node.a)
        if isinstance(a, Num):
            return Num(-a.v)
        if isinstance(a, Neg):
            return a.a
        return Neg(a)
    if isinstance(node, _Bin):
        a = rec(node.a)
        b = rec(node.b)
        va, vb = _num(a), _num(b)
        if isinstance(node, Add):
            if va == 0.0:
                return b
            if vb == 0.0:
                return a
            if va is not None and vb is not None:
                return Num(va + vb)
            return Add(a, b)
        if isinstance(node, Sub):
            if vb == 0.0:
                return a
            if va is not None and vb is not None:
                return Num(va - vb)
            if a.key() == b.key():
                return Num(0.0)
            return Sub(a, b)
        if isinstance(node, Mul):
            if va == 0.0 or vb == 0.0:
                return Num(0.0)
            if va == 1.0:
                return b
            if vb == 1.0:
                return a
            if va is not None and vb is not None:
                return Num(va * vb)
            return Mul(a, b)
        if isinstance(node, Div):
            if va == 0.0 and vb not in (0.0, None):
                return Num(0.0)
            if vb == 1.0:
                return a
            if va is not None and vb is not None and vb != 0.0:
                return Num(va / vb)
            return Div(a, b)
    if isinstance(node, Pow):
        a = rec(node.a)
        if node.k == 0:
            return Num(1.0)
        if node.k == 1:
            return a
        va = _num(a)
        if va is not None and (va != 0.0 or node.k > 0):
            return Num(va ** node.k)
        return Pow(a, node.k)
    if isinstance(node, Call):
        a = rec(node.a)
        va = _num(a)
        if va is not None:
            return Num(_SCALAR_ENV[node.fn](va))
        return Call(node.fn, a)
    if isinstance(node, (Warp, WarpSlope)):
        a = rec(node.a)
        return type(node)(a, node.il, node.ih, node.ol, node.oh)
    raise TypeError("unknown node %r" % (node,))


def diff(node, i):
    """Exact partial derivative d(node)/d(Var i), not folded.  One call
    differentiates each node object once, however many paths reach it."""
    memo = {}

    def rec(n):
        out = memo.get(id(n))
        if out is None:
            out = memo[id(n)] = _diff_node(n, i, rec)
        return out
    return rec(node)


def _diff_node(node, i, rec):
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0 if node.i == i else 0.0)
    if isinstance(node, Neg):
        return Neg(rec(node.a))
    if isinstance(node, Add):
        return Add(rec(node.a), rec(node.b))
    if isinstance(node, Sub):
        return Sub(rec(node.a), rec(node.b))
    if isinstance(node, Mul):
        return Add(Mul(rec(node.a), node.b), Mul(node.a, rec(node.b)))
    if isinstance(node, Div):
        num = Sub(Mul(rec(node.a), node.b), Mul(node.a, rec(node.b)))
        return Div(num, Mul(node.b, node.b))
    if isinstance(node, Pow):
        return Mul(Mul(Num(node.k), Pow(node.a, node.k - 1)), rec(node.a))
    if isinstance(node, Call):
        da = rec(node.a)
        if node.fn == "sin":
            return Mul(Call("cos", node.a), da)
        if node.fn == "cos":
            return Neg(Mul(Call("sin", node.a), da))
        if node.fn == "exp":
            return Mul(Call("exp", node.a), da)
        if node.fn == "bump":
            return Mul(Call("dbump", node.a), da)
        if node.fn == "dbump":
            return Mul(Call("d2bump", node.a), da)
        if node.fn == "d2bump":
            raise NotImplementedError("third derivatives of bump are not provided")
        raise TypeError("unknown function %r" % node.fn)
    if isinstance(node, Warp):
        return Mul(WarpSlope(node.a, node.il, node.ih, node.ol, node.oh), rec(node.a))
    if isinstance(node, WarpSlope):
        return Num(0.0)  # piecewise constant
    raise TypeError("unknown node %r" % (node,))


def grad_exprs(node, wrt):
    return [fold(diff(node, i)) for i in wrt]


def hess_exprs(grads):
    """Upper triangle (i <= j) of second partials as {(i,j): Expr}, from
    the first partials `grads` = grad_exprs(node, range(dim))."""
    dim = len(grads)
    return {(i, j): fold(diff(grads[i], j))
            for i in range(dim) for j in range(i, dim)}


class Derivatives:
    """The first and second partials of one folded node on R^dim, each
    derived on first use and then shared by every compile that reads it:
    both flavours of the gradient and of the Hessian, which is derived
    from the gradient's partials."""

    def __init__(self, node, dim):
        self.node = node
        self.dim = int(dim)

    @functools.cached_property
    def grad(self):
        return grad_exprs(self.node, range(self.dim))

    @functools.cached_property
    def hess(self):
        return hess_exprs(self.grad)


# ---------------------------------------------------------------------------
# Runtime helpers for generated code

def _bump(t):
    a = t if t >= 0.0 else -t
    if a <= 1.0:
        return 1.0
    if a >= 2.0:
        return 0.0
    u = a - 1.0
    return 1.0 + u * u * u * (-10.0 + u * (15.0 - 6.0 * u))


def _dbump(t):
    a = t if t >= 0.0 else -t
    if a <= 1.0 or a >= 2.0:
        return 0.0
    u = a - 1.0
    s = 30.0 * u * u * (u - 1.0) * (u - 1.0)
    return -s if t > 0.0 else s


def _d2bump(t):
    a = t if t >= 0.0 else -t
    if a <= 1.0 or a >= 2.0:
        return 0.0
    u = a - 1.0
    return -60.0 * u * (2.0 * u - 1.0) * (u - 1.0)


def _warp(c, il, ih, ol, oh):
    if c > ih:
        return 1.0 + (c - ih) / (oh - ih)
    if c < il:
        return -1.0 - (il - c) / (il - ol)
    return -1.0 + 2.0 * (c - il) / (ih - il)


def _warpslope(c, il, ih, ol, oh):
    if c > ih:
        return 1.0 / (oh - ih)
    if c < il:
        return 1.0 / (il - ol)
    return 2.0 / (ih - il)


# The numpy twins return the scalar helpers' bits, signed zeros included:
# where the scalar code returns a literal 0.0, `0.0 - s` is +0.0 and `-s`
# would be -0.0.  np.minimum(np.maximum(...)) clips as np.clip does, cheaper.

def _bump_np(t):
    a = np.abs(t)
    u = np.minimum(np.maximum(a - 1.0, 0.0), 1.0)
    return 1.0 + u * u * u * (-10.0 + u * (15.0 - 6.0 * u))


def _dbump_np(t):
    a = np.abs(t)
    u = np.minimum(np.maximum(a - 1.0, 0.0), 1.0)
    s = 30.0 * u * u * (u - 1.0) * (u - 1.0)
    return np.where(t > 0.0, 0.0 - s, s)


def _d2bump_np(t):
    a = np.abs(t)
    inside = (a > 1.0) & (a < 2.0)
    u = np.where(inside, a - 1.0, 0.0)
    return 0.0 - 60.0 * u * (2.0 * u - 1.0) * (u - 1.0)


def _warp_np(c, il, ih, ol, oh):
    return np.where(c > ih, 1.0 + (c - ih) / (oh - ih),
                    np.where(c < il, -1.0 - (il - c) / (il - ol),
                             -1.0 + 2.0 * (c - il) / (ih - il)))


def _warpslope_np(c, il, ih, ol, oh):
    return np.where(c > ih, 1.0 / (oh - ih),
                    np.where(c < il, 1.0 / (il - ol), 2.0 / (ih - il)))


_SCALAR_ENV = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "bump": _bump, "dbump": _dbump, "d2bump": _d2bump,
    "warp": _warp, "warpslope": _warpslope,
    "DomainError": DomainError,
}

_VECTOR_ENV = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "bump": _bump_np, "dbump": _dbump_np, "d2bump": _d2bump_np,
    "warp": _warp_np, "warpslope": _warpslope_np,
    "np": np, "DomainError": DomainError,
}


# ---------------------------------------------------------------------------
# Code generation (common-subexpression form, scalar and numpy flavours)

_BUMPS = ("bump", "dbump", "d2bump")


class _Emitter:
    def __init__(self, vector):
        self.vector = vector
        self.lines = []
        self.memo = {}
        self.count = 0
        self.strings = {}  # DomainError messages
        self.used = set()  # variable indices the lines read
        # vector flavour: (var, il, ih, ol, oh) -> row of the cutoff block,
        # and the helpers the block prologue evaluates
        self.rows = {}
        self.helpers = set()

    def fresh(self):
        name = "t%d" % self.count
        self.count += 1
        return name

    def string_const(self, text):
        name = "_s%d" % len(self.strings)
        self.strings[name] = text
        return name

    def block_row(self, fn, warp):
        """`fn` of the warped coordinate `warp` (a Warp or WarpSlope of a
        Var), read as one row of the prologue's block result."""
        key = (warp.a.i, warp.il, warp.ih, warp.ol, warp.oh)
        row = self.rows.setdefault(key, len(self.rows))
        self.used.add(warp.a.i)
        self.helpers.add(fn)
        return "_%s[%d]" % (fn, row)

    def emit(self, node):
        if isinstance(node, Num):
            return repr(node.v)
        if isinstance(node, Var):
            self.used.add(node.i)
            return "z%d" % node.i
        key = node.key()
        got = self.memo.get(key)
        if got is not None:
            return got
        name = self.fresh()
        if isinstance(node, Neg):
            rhs = "-%s" % self.emit(node.a)
        elif isinstance(node, (Add, Sub, Mul)):
            rhs = "%s %s %s" % (self.emit(node.a), node.op, self.emit(node.b))
        elif isinstance(node, Div):
            den = self.emit(node.b)
            if not isinstance(node.b, Num):
                msg = self.string_const("division by zero in: " + to_str(node))
                if self.vector:
                    self.lines.append("if np.any(%s == 0.0): raise DomainError(%s)" % (den, msg))
                else:
                    self.lines.append("if %s == 0.0: raise DomainError(%s)" % (den, msg))
            elif node.b.v == 0.0:
                msg = self.string_const("division by zero in: " + to_str(node))
                self.lines.append("raise DomainError(%s)" % msg)
            rhs = "%s / %s" % (self.emit(node.a), den)
        elif isinstance(node, Pow):
            base = self.emit(node.a)
            k = node.k
            if k < 0 and not isinstance(node.a, Num):
                msg = self.string_const("zero base with negative exponent in: " + to_str(node))
                if self.vector:
                    self.lines.append("if np.any(%s == 0.0): raise DomainError(%s)" % (base, msg))
                else:
                    self.lines.append("if %s == 0.0: raise DomainError(%s)" % (base, msg))
            elif k < 0 and node.a.v == 0.0:
                msg = self.string_const("zero base with negative exponent in: " + to_str(node))
                self.lines.append("raise DomainError(%s)" % msg)
            if 2 <= k <= 4:
                rhs = " * ".join([base] * k)
            else:
                rhs = "%s ** %d" % (base, k)
        elif isinstance(node, Call):
            arg = self.emit(node.a)
            if self.vector and node.fn in _BUMPS and isinstance(node.a, Warp) \
                    and isinstance(node.a.a, Var):
                rhs = self.block_row(node.fn, node.a)
            else:
                rhs = "%s(%s)" % (node.fn, arg)
        elif isinstance(node, (Warp, WarpSlope)):
            fn = "warp" if isinstance(node, Warp) else "warpslope"
            if self.vector and isinstance(node.a, Var):
                rhs = self.block_row(fn, node)
            else:
                rhs = "%s(%s, %r, %r, %r, %r)" % (fn, self.emit(node.a), node.il, node.ih, node.ol, node.oh)
        else:
            raise TypeError("unknown node %r" % (node,))
        self.lines.append("%s = %s" % (name, rhs))
        self.memo[key] = name
        return name

    def block_prologue(self):
        """Vector flavour: the lines that stack every warped variable into
        a (k, B) block and call each needed helper once on it, and the
        per-row constants as (k, 1) environment arrays."""
        if not self.rows:
            return [], {}
        keys = list(self.rows)
        env = {"_" + c: np.array([[k[m]] for k in keys])
               for m, c in enumerate(("il", "ih", "ol", "oh"), 1)}
        lines = ["_x = np.stack([%s])" % ", ".join("z%d" % k[0] for k in keys)]
        # a bump row's argument is a warp row, emitted first
        if "warp" in self.helpers:
            lines.append("_warp = warp(_x, _il, _ih, _ol, _oh)")
        if "warpslope" in self.helpers:
            lines.append("_warpslope = warpslope(_x, _il, _ih, _ol, _oh)")
        lines += ["_%s = %s(_warp)" % (fn, fn) for fn in _BUMPS if fn in self.helpers]
        return lines, env


def _build(fname, em, tail):
    """Compile `def fname(z or Z)`: unpack the variables the emitted lines
    read, run the block prologue, the lines, then `tail`."""
    prologue, env = em.block_prologue()
    if em.vector:
        unpack = ["z%d = Z[:, %d]" % (i, i) for i in sorted(em.used)]
    else:
        unpack = ["z%d = z[%d]" % (i, i) for i in sorted(em.used)]
    body = unpack + prologue + em.lines + tail
    src = "def %s(%s):\n" % (fname, "Z" if em.vector else "z") + \
        "".join("    %s\n" % ln for ln in body)
    return _compile(src, fname, em.vector, {**em.strings, **env})


def _compile(src, fname, vector, extra_env):
    env = dict(_VECTOR_ENV if vector else _SCALAR_ENV)
    env.update(extra_env)
    code = compile(src, "<gftrees:%s>" % fname, "exec")
    exec(code, env)
    return env[fname]


def compile_value(node, dim, vector=False):
    """Compile to `f(z) -> float` (scalar) or `f(Z: (B,dim)) -> (B,)`."""
    em = _Emitter(vector)
    result = em.emit(fold(node))
    if vector:
        return _build("_value", em, ["return np.zeros(Z.shape[0]) + (%s)" % result])
    return _build("_value", em, ["return %s" % result])


def _grad_columns(dim, results):
    """Vector flavour: the lines that write the emitted partials `results`
    as the columns of G, (B, dim)."""
    return (["G = np.zeros((Z.shape[0], %d))" % dim]
            + ["G[:, %d] = %s" % (col, r) for col, r in enumerate(results)])


def compile_grad(derivs, vector=False):
    """Compile the gradient over all dim coordinates from `derivs`, a
    Derivatives.

    Scalar flavour returns a list of dim floats; vector flavour an array
    of shape (B, dim).
    """
    em = _Emitter(vector)
    results = [em.emit(p) for p in derivs.grad]
    if vector:
        return _build("_grad", em, _grad_columns(derivs.dim, results) + ["return G"])
    return _build("_grad", em, ["return [%s]" % ", ".join(results)])


def compile_hess(derivs, vector=False):
    """Compile the symmetric Hessian over all dim coordinates from
    `derivs`, a Derivatives.

    Scalar flavour returns a (dim, dim) nested list.  Vector flavour
    returns (G, H): the gradient, (B, dim), and the Hessian, (B, dim,
    dim), written by one emitter, so the second partials reuse the
    subexpressions of the first.  Every line computes what it computes in
    `compile_grad` and alone, so both arrays keep the bits of the
    separate kernels.
    """
    dim = derivs.dim
    em = _Emitter(vector)
    grads = [em.emit(p) for p in derivs.grad] if vector else None
    emitted = {ij: em.emit(e) for ij, e in derivs.hess.items()
               if not (isinstance(e, Num) and e.v == 0.0)}
    if vector:
        tail = _grad_columns(dim, grads)
        tail.append("H = np.zeros((Z.shape[0], %d, %d))" % (dim, dim))
        for (a, b), r in emitted.items():
            tail.append("H[:, %d, %d] = %s" % (a, b, r))
            if a != b:
                tail.append("H[:, %d, %d] = H[:, %d, %d]" % (b, a, a, b))
        return _build("_hess", em, tail + ["return G, H"])
    tail = ["H = [[0.0] * %d for _ in range(%d)]" % (dim, dim)]
    for (a, b), r in emitted.items():
        tail.append("H[%d][%d] = %s" % (a, b, r))
        if a != b:
            tail.append("H[%d][%d] = H[%d][%d]" % (b, a, a, b))
    return _build("_hess", em, tail + ["return H"])
