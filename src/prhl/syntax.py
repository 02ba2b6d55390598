"""Abstract syntax, parsing and printing for the object language.

The language is a small imperative core over natural-number stores:

    E ::= x | n | E + E | E - E | E * E | E / E | E % E
    B ::= E = E | E <= E | !B | B && B | B || B
    C ::= skip | x := E | C ; C | while B do { C } | C + C
    P ::= B | !P | P && P | P || P | P -> P | exists x. P | forall x. P

``C + C`` is nondeterministic choice.  A guard ``B`` is read with the
assertion grammar and packed by ``canon``; one that keeps a quantifier
or an implication is a parse error.  Subtraction is truncating and
division/modulo are totalised in the semantics module; the syntax layer
treats all five operators alike.  Comparison sugar (``!=``, ``<``, ``>``,
``>=``) and the constants ``true``/``false`` desugar at parse time and are
re-sugared by the printer, so parse/print round-trips are stable on ASTs
even when they rewrite the concrete text.

``if B then C1 else C2`` is accepted as sugar, which the parser compiles
on the spot with a flag variable::

    t := 0;
    while B && t = 0 do { C1; t := 1 };
    while !B && t = 0 do { C2; t := 1 }

The flag is ``fresh_var`` of ``t`` against every identifier in the text,
every flag drawn before it (inner conditionals first, then left to
right) and any names the caller passes, such as a triple's pre and post.
Fresh variables are spelled ``x_p1``, ``x_p2``, ... in ASCII.

Programs are kept in one normal form: sequencing nested to the right,
no ``skip`` unit, loop bodies and choice arms normal.  A program's right
spine is its block of units; ``units`` walks it without recursion and
``seq_of`` builds normal form from any parts, so program length costs no
stack depth.

Nodes are interned (hash-consed): building a node equal to a live one
returns that one, so equal terms are the same object and ``==`` and
hashing are identity.  A loop's ``invariant`` annotation is part of its
node; ``erase_invariants`` gives the bare program for comparisons that
must ignore it.  Substitution, ``canon`` and the printers memoize on the
node within one call, so a subterm shared many times over, as in an
unrolled loop's formula, is handled once.
"""

from __future__ import annotations

import functools
import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


# --- abstract syntax ---------------------------------------------------

# every live node, keyed on its class and fields (a constant's with the
# type of its value, so that Const(1) and Const(True) stay apart); weak,
# so a term nothing else holds is freed
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """Base of the nodes: building a node equal to a live one returns that
    one (hash-consing; Filliâtre & Conchon, 2006)."""

    __slots__ = ("__weakref__",)  # for the weak table

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            # let the dataclass bind keywords and defaults
            node = object.__new__(cls)
            cls._fill(node, *args, **kwargs)
            args = tuple(getattr(node, f) for f in cls.__match_args__)
        key = (cls, *args) if cls is not Const else (cls, *args, type(args[0]))
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            cls._fill(node, *args)
        return node


def _node(cls):
    """A frozen dataclass compared and hashed by identity.  Its generated
    ``__init__`` becomes ``_fill``, which ``_Node.__new__`` calls on new
    nodes only (a metaclass would slow down every ``isinstance``)."""
    cls = dataclass(frozen=True, eq=False, slots=True)(cls)
    cls._fill = cls.__init__
    del cls.__init__
    return cls


class Expr(_Node):
    __slots__ = ()


@_node
class Var(Expr):
    name: str


@_node
class Const(Expr):
    value: int


@_node
class BinOp(Expr):
    op: str  # one of + - * / %
    left: Expr
    right: Expr


class BoolExpr(_Node):
    __slots__ = ()


@_node
class Eq(BoolExpr):
    left: Expr
    right: Expr


@_node
class Le(BoolExpr):
    left: Expr
    right: Expr


@_node
class BNot(BoolExpr):
    arg: BoolExpr


@_node
class BAnd(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@_node
class BOr(BoolExpr):
    left: BoolExpr
    right: BoolExpr


class Prog(_Node):
    __slots__ = ()


@_node
class Empty(Prog):
    pass


@_node
class Assign(Prog):
    name: str
    expr: Expr


@_node
class Seq(Prog):
    first: Prog
    second: Prog


@_node
class While(Prog):
    guard: BoolExpr
    body: Prog
    # Optional proof annotation.  It is part of the node, so an annotated
    # loop and its bare form are different objects; compare programs
    # through ``erase_invariants`` where annotations must not count.
    invariant: "Assertion | None" = None


@_node
class Choice(Prog):
    left: Prog
    right: Prog


class Assertion(_Node):
    __slots__ = ()


@_node
class Bool(Assertion):
    expr: BoolExpr


@_node
class Not(Assertion):
    arg: Assertion


@_node
class And(Assertion):
    left: Assertion
    right: Assertion


@_node
class Or(Assertion):
    left: Assertion
    right: Assertion


@_node
class Implies(Assertion):
    left: Assertion
    right: Assertion


@_node
class Exists(Assertion):
    var: str
    body: Assertion


@_node
class Forall(Assertion):
    var: str
    body: Assertion


TRUE_BOOL = Eq(Const(0), Const(0))
FALSE_BOOL = BNot(TRUE_BOOL)
TRUE = Bool(TRUE_BOOL)
FALSE = Bool(FALSE_BOOL)


def conj(parts: Sequence[Assertion]) -> Assertion:
    """The conjunction of ``parts``, nested to the left; ``true`` if none."""
    return functools.reduce(And, parts) if parts else TRUE


# --- variable sets ------------------------------------------------------


def expr_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, BinOp):
        return expr_vars(e.left) | expr_vars(e.right)
    raise TypeError(f"not an expression: {e!r}")


def bool_vars(b: BoolExpr) -> frozenset[str]:
    if isinstance(b, (Eq, Le)):
        return expr_vars(b.left) | expr_vars(b.right)
    if isinstance(b, BNot):
        return bool_vars(b.arg)
    if isinstance(b, (BAnd, BOr)):
        return bool_vars(b.left) | bool_vars(b.right)
    raise TypeError(f"not a boolean expression: {b!r}")


def prog_vars(p: Prog) -> frozenset[str]:
    """Variables occurring in program text (invariant annotations excluded)."""
    out: set[str] = set()
    for u in units(p):
        if isinstance(u, Assign):
            out |= {u.name} | expr_vars(u.expr)
        elif isinstance(u, While):
            out |= bool_vars(u.guard) | prog_vars(u.body)
        elif isinstance(u, Choice):
            out |= prog_vars(u.left) | prog_vars(u.right)
        else:
            raise TypeError(f"not a program: {u!r}")
    return frozenset(out)


def free_vars(a: Assertion) -> frozenset[str]:
    if isinstance(a, Bool):
        return bool_vars(a.expr)
    if isinstance(a, Not):
        return free_vars(a.arg)
    if isinstance(a, (And, Or, Implies)):
        return free_vars(a.left) | free_vars(a.right)
    if isinstance(a, (Exists, Forall)):
        return free_vars(a.body) - {a.var}
    raise TypeError(f"not an assertion: {a!r}")


def assertion_vars(a: Assertion) -> frozenset[str]:
    """Free and bound variables together."""
    if isinstance(a, Bool):
        return bool_vars(a.expr)
    if isinstance(a, Not):
        return assertion_vars(a.arg)
    if isinstance(a, (And, Or, Implies)):
        return assertion_vars(a.left) | assertion_vars(a.right)
    if isinstance(a, (Exists, Forall)):
        return assertion_vars(a.body) | {a.var}
    raise TypeError(f"not an assertion: {a!r}")


# --- fresh names and substitution ---------------------------------------

_FRESH_RE = re.compile(r"^(.*?)_p(\d+)$")


def fresh_var(avoid: Iterable[str], hint: str) -> str:
    """Pick ``hint`` itself if unused, else ``hint`` with the smallest
    ``_p<k>`` suffix not in ``avoid``.  ``fresh_var({'x','x_p1'},'x')``
    is ``x_p2``."""
    taken = set(avoid)
    if hint not in taken:
        return hint
    m = _FRESH_RE.match(hint)
    base = m.group(1) if m else hint
    k = 1
    while f"{base}_p{k}" in taken:
        k += 1
    return f"{base}_p{k}"


def _substitution(mapping: dict[str, Expr]):
    """Simultaneous capture-avoiding substitution of ``mapping`` over
    expressions, guards and assertions, memoized on the node."""
    memo: dict = {}

    def go(t):
        out = memo.get(t)
        if out is not None:
            return out
        if isinstance(t, Var):
            out = mapping.get(t.name, t)
        elif isinstance(t, Const):
            out = t
        elif isinstance(t, BinOp):
            out = BinOp(t.op, go(t.left), go(t.right))
        elif isinstance(t, (Eq, Le, BAnd, BOr, And, Or, Implies)):
            out = type(t)(go(t.left), go(t.right))
        elif isinstance(t, (BNot, Not)):
            out = type(t)(go(t.arg))
        elif isinstance(t, Bool):
            out = Bool(go(t.expr))
        elif isinstance(t, (Exists, Forall)):
            body_free = free_vars(t.body)
            inner = {k: v for k, v in mapping.items() if k != t.var and k in body_free}
            out = t
            if inner:
                var, body = t.var, t.body
                cap = frozenset().union(*(expr_vars(v) for v in inner.values()))
                if var in cap:
                    var = fresh_var(cap | body_free | set(inner), var)
                    body = _substitution({t.var: Var(var)})(body)
                out = type(t)(var, _substitution(inner)(body))
        else:
            raise TypeError(f"not a term: {t!r}")
        memo[t] = out
        return out

    return go


def subst_expr(e: Expr, mapping: dict[str, Expr]) -> Expr:
    return _substitution(mapping)(e)


def subst_bool(b: BoolExpr, pairs: Sequence[tuple[str, Expr]]) -> BoolExpr:
    return _substitution(dict(pairs))(b)


def subst(a: Assertion, pairs: Sequence[tuple[str, Expr]]) -> Assertion:
    """Simultaneous capture-avoiding substitution.

    All pairs apply at once, so ``subst(x <= y, [(x,y),(y,x)])`` swaps the
    two variables.  A binder whose name would capture a substituted
    expression is renamed with ``fresh_var`` first, e.g.
    ``subst(exists x. x = y, [(y, x)])`` yields ``exists x_p1. x_p1 = x``.
    """
    mapping = dict(pairs)
    return _substitution(mapping)(a) if mapping else a


def alpha_rename(a: Assertion) -> Assertion:
    """Rename binders apart from free variables and from each other,
    left to right, keeping names that do not clash.  Idempotent; applied
    by the assertion parser so structurally equal texts parse equal."""
    avoid = set(free_vars(a))

    def go(a: Assertion) -> Assertion:
        if isinstance(a, Bool):
            return a
        if isinstance(a, Not):
            return Not(go(a.arg))
        if isinstance(a, And):
            return And(go(a.left), go(a.right))
        if isinstance(a, Or):
            return Or(go(a.left), go(a.right))
        if isinstance(a, Implies):
            return Implies(go(a.left), go(a.right))
        if isinstance(a, (Exists, Forall)):
            cls = type(a)
            var, body = a.var, a.body
            if var in avoid:
                new = fresh_var(avoid | assertion_vars(body), var)
                body = subst(body, [(var, Var(new))])
                var = new
            avoid.add(var)
            return cls(var, go(body))
        raise TypeError(f"not an assertion: {a!r}")

    return go(a)


def canon(a: Assertion) -> Assertion:
    """Pack purely boolean connectives down into ``BoolExpr`` form, so a
    quantifier-free assertion has exactly one shape.  ``Not(Bool(b))``
    becomes ``Bool(BNot(b))`` and likewise for and/or; implication has no
    boolean counterpart and stays at the assertion level."""
    memo: dict[Assertion, Assertion] = {}

    def go(a: Assertion) -> Assertion:
        if isinstance(a, Bool):
            return a
        out = memo.get(a)
        if out is not None:
            return out
        if isinstance(a, Not):
            arg = go(a.arg)
            out = Bool(BNot(arg.expr)) if isinstance(arg, Bool) else Not(arg)
        elif isinstance(a, (And, Or)):
            l, r = go(a.left), go(a.right)
            packed = BAnd if isinstance(a, And) else BOr
            out = Bool(packed(l.expr, r.expr)) if isinstance(l, Bool) and isinstance(r, Bool) else type(a)(l, r)
        elif isinstance(a, Implies):
            out = Implies(go(a.left), go(a.right))
        elif isinstance(a, (Exists, Forall)):
            out = type(a)(a.var, go(a.body))
        else:
            raise TypeError(f"not an assertion: {a!r}")
        memo[a] = out
        return out

    return go(a)


# --- program normal form ------------------------------------------------


def units(p: Prog) -> Iterator[Prog]:
    """The sequencing units of ``p`` left to right, ``skip`` left out: the
    nodes other than ``Seq`` and ``Empty`` that its ``;`` joins, found with
    an explicit stack, so any length or grouping of ``;`` is fine."""
    stack = [p]
    while stack:
        p = stack.pop()
        while isinstance(p, Seq):
            stack.append(p.second)
            p = p.first
        if not isinstance(p, Empty):
            yield p


def seq_of(*parts: Prog) -> Prog:
    """The parts in sequence, in normal form: their units nested to the
    right, with loop bodies and choice arms normal.  Idempotent; the
    structural equality of proof checking compares programs in this form.
    Walks the units right to left, so each is joined as it is found."""
    out, stack = None, list(parts)
    while stack:
        p = stack.pop()
        while isinstance(p, Seq):
            stack.append(p.first)
            p = p.second
        if isinstance(p, While):
            p = While(p.guard, seq_of(p.body), p.invariant)
        elif isinstance(p, Choice):
            p = Choice(seq_of(p.left), seq_of(p.right))
        elif isinstance(p, Empty):
            continue
        elif not isinstance(p, Assign):
            raise TypeError(f"not a sequencing unit: {p!r}")
        out = p if out is None else Seq(p, out)
    return Empty() if out is None else out


# the one-part reading under its older name, which perfbench/tracing.py traces
normalize_program = seq_of


def erase_invariants(p: Prog) -> Prog:
    """The program with every loop annotation dropped: the form in which
    to compare programs when annotations must not count.  The shape of
    sequencing is kept as given."""
    spine = []
    while isinstance(p, Seq):
        spine.append(erase_invariants(p.first))
        p = p.second
    if isinstance(p, Choice):
        p = Choice(erase_invariants(p.left), erase_invariants(p.right))
    elif isinstance(p, While):
        p = While(p.guard, erase_invariants(p.body))
    for u in reversed(spine):
        p = Seq(u, p)
    return p


# --- lexer ---------------------------------------------------------------


class ParseError(Exception):
    def __init__(self, message: str, pos: int, text: str = ""):
        line = text.count("\n", 0, pos) + 1 if text else 0
        col = pos - text.rfind("\n", 0, pos) if text else 0
        self.pos = pos
        super().__init__(f"{message} (line {line}, column {col})" if text else message)


_KEYWORDS = {
    "skip", "while", "do", "if", "then", "else", "invariant",
    "exists", "forall", "true", "false",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|\#[^\n]*)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|<=|>=|!=|&&|\|\||->|[()+\-*/%={};!<>.])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        value = m.group()
        kind = m.lastgroup
        if kind == "ident" and value in _KEYWORDS:
            kind = "kw"
        tokens.append((kind, value, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


# --- parser --------------------------------------------------------------


class _Parser:
    """Recursive descent with explicit position save/restore.

    Two places need one speculative parse: ``( ... )`` may enclose either
    an arithmetic or a boolean/assertion phrase, and inside an assignment's
    right-hand side a ``+`` may instead begin a nondeterministic choice
    (``x := 1 + y := 2`` is a choice between two assignments).
    """

    def __init__(self, text: str, avoid: Iterable[str] = ()):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # names an ``if`` flag must not take: every identifier in the
        # text, the caller's, and the flags drawn so far
        self.taken = {v for kind, v, _ in self.tokens if kind == "ident"} | set(avoid)

    # -- token plumbing --

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *values: str) -> bool:
        kind, value, _ = self.peek()
        return value in values and kind in ("op", "kw")

    def expect(self, value: str) -> None:
        kind, got, pos = self.peek()
        if got != value or kind not in ("op", "kw"):
            raise ParseError(f"expected {value!r}, found {got or 'end of input'!r}", pos, self.text)
        self.pos += 1

    def fail(self, message: str) -> ParseError:
        _, got, pos = self.peek()
        return ParseError(f"{message}, found {got or 'end of input'!r}", pos, self.text)

    # -- arithmetic expressions --

    def expr(self, assign_rhs: bool = False) -> Expr:
        e = self.term()
        while self.at("+", "-"):
            save = self.pos
            _, op, _ = self.next()
            if op == "+" and assign_rhs:
                # Speculate: if the continuation reads as the start of a new
                # assignment, this + is a program choice, not addition.
                try:
                    rhs = self.term()
                except ParseError:
                    self.pos = save
                    break
                if self.at(":="):
                    self.pos = save
                    break
                e = BinOp(op, e, rhs)
                continue
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.at("*", "/", "%"):
            _, op, _ = self.next()
            e = BinOp(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "num":
            self.next()
            return Const(int(value))
        if kind == "ident":
            self.next()
            return Var(value)
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        raise self.fail("expected expression")

    # -- comparisons --

    def comparison(self) -> BoolExpr:
        left = self.expr()
        if self.at("="):
            self.next()
            return Eq(left, self.expr())
        if self.at("<="):
            self.next()
            return Le(left, self.expr())
        if self.at("!="):
            self.next()
            return BNot(Eq(left, self.expr()))
        if self.at("<"):
            self.next()
            return BNot(Le(self.expr(), left))
        if self.at(">"):
            self.next()
            return BNot(Le(left, self.expr()))
        if self.at(">="):
            self.next()
            return Le(self.expr(), left)
        raise self.fail("expected comparison operator")

    # -- assertions --

    def assertion(self) -> Assertion:
        a = self.assert_or()
        if self.at("->"):
            self.next()
            return Implies(a, self.assertion())
        return a

    def assert_or(self) -> Assertion:
        a = self.assert_and()
        while self.at("||"):
            self.next()
            a = Or(a, self.assert_and())
        return a

    def assert_and(self) -> Assertion:
        a = self.assert_unary()
        while self.at("&&"):
            self.next()
            a = And(a, self.assert_unary())
        return a

    def assert_unary(self) -> Assertion:
        if self.at("!"):
            self.next()
            return Not(self.assert_unary())
        if self.at("exists", "forall"):
            _, kw, _ = self.next()
            kind, name, pos = self.next()
            if kind != "ident":
                raise ParseError(f"expected variable after {kw!r}", pos, self.text)
            self.expect(".")
            body = self.assertion()
            return Exists(name, body) if kw == "exists" else Forall(name, body)
        if self.at("true"):
            self.next()
            return TRUE
        if self.at("false"):
            self.next()
            return FALSE
        save = self.pos
        try:
            return Bool(self.comparison())
        except ParseError:
            self.pos = save
        self.expect("(")
        a = self.assertion()
        self.expect(")")
        return a

    def guard(self) -> BoolExpr:
        """A loop or conditional guard: an assertion that ``canon`` packs
        into one ``BoolExpr``, i.e. one without quantifiers or ``->``."""
        pos = self.peek()[2]
        a = canon(self.assert_or())
        if not isinstance(a, Bool):
            raise ParseError("a guard takes no quantifier or implication", pos, self.text)
        return a.expr

    # -- programs --

    def program(self) -> Prog:
        stmts = [self.choice()]
        while self.at(";"):
            self.next()
            stmts.append(self.choice())
        return seq_of(*stmts)

    def choice(self) -> Prog:
        p = self.statement()
        while self.at("+"):
            self.next()
            p = Choice(p, self.statement())
        return p

    def statement(self) -> Prog:
        kind, value, pos = self.peek()
        if self.at("skip"):
            self.next()
            return Empty()
        if self.at("while"):
            self.next()
            guard = self.guard()
            inv = None
            if self.at("invariant"):
                self.next()
                inv = canon(self.assertion())
            self.expect("do")
            body = self.statement()
            return While(guard, body, inv)
        if self.at("if"):
            self.next()
            cond = self.guard()
            self.expect("then")
            then = self.statement()
            self.expect("else")
            orelse = self.statement()
            t = fresh_var(self.taken, "t")
            self.taken.add(t)
            unset, done = Eq(Var(t), Const(0)), Assign(t, Const(1))
            return seq_of(
                Assign(t, Const(0)),
                While(BAnd(cond, unset), Seq(then, done)),
                While(BAnd(BNot(cond), unset), Seq(orelse, done)),
            )
        if self.at("{"):
            self.next()
            p = self.program()
            self.expect("}")
            return p
        if self.at("("):
            self.next()
            p = self.program()
            self.expect(")")
            return p
        if kind == "ident":
            self.next()
            self.expect(":=")
            return Assign(value, self.expr(assign_rhs=True))
        raise self.fail("expected statement")

    def done(self) -> None:
        kind, got, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {got!r}", pos, self.text)


def parse_program(text: str, avoid: Iterable[str] = ()) -> Prog:
    """Parse program text to normal form, compiling each conditional with
    a flag that is none of ``avoid`` and no identifier of the text."""
    parser = _Parser(text, avoid)
    p = parser.program()
    parser.done()
    return p


def parse_assertion(text: str) -> Assertion:
    parser = _Parser(text)
    a = parser.assertion()
    parser.done()
    return canon(alpha_rename(a))


# --- printing ------------------------------------------------------------

_EXPR_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}

_IMP, _OR, _AND = 1, 2, 3

# the longest text a term prints to: an unrolled loop's formula shares its
# subterms, but its text doubles with every level (4.2 MB at depth 14)
PRINT_CAP = 1 << 24


class PrintCapExceeded(Exception):
    """A term's text would pass ``PRINT_CAP`` bytes."""


def _show(t, parent: int, memo: dict) -> str:
    """Text of an expression, guard or assertion inside an operator of
    precedence ``parent``, memoized on (node, parent)."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    key = (t, parent)
    s = memo.get(key)
    if s is not None:
        return s
    if isinstance(t, BinOp):
        prec = _EXPR_PREC[t.op]
        s = f"{_show(t.left, prec, memo)} {t.op} {_show(t.right, prec + 1, memo)}"
        s = f"({s})" if prec < parent else s
    elif t is TRUE_BOOL or t is FALSE_BOOL:
        s = "true" if t is TRUE_BOOL else "false"
    elif isinstance(t, (Eq, Le)):
        s = f"{_show(t.left, 0, memo)} {'=' if isinstance(t, Eq) else '<='} {_show(t.right, 0, memo)}"
    elif isinstance(t, BNot) and isinstance(t.arg, Eq):
        s = f"{_show(t.arg.left, 0, memo)} != {_show(t.arg.right, 0, memo)}"
    elif isinstance(t, BNot) and isinstance(t.arg, Le):
        # !(a <= b) is b < a; < is the more common guard, keep it stable
        s = f"{_show(t.arg.right, 0, memo)} < {_show(t.arg.left, 0, memo)}"
    elif isinstance(t, (BNot, Not)):
        s = f"!({_show(t.arg, 0, memo)})"
    elif isinstance(t, Bool):
        s = _show(t.expr, parent, memo)
    elif isinstance(t, (BAnd, And, BOr, Or)):
        prec, op = (_AND, "&&") if isinstance(t, (BAnd, And)) else (_OR, "||")
        s = f"{_show(t.left, prec, memo)} {op} {_show(t.right, prec + 1, memo)}"
        s = f"({s})" if prec < parent else s
    elif isinstance(t, Implies):
        s = f"{_show(t.left, _IMP + 1, memo)} -> {_show(t.right, _IMP, memo)}"
        s = f"({s})" if _IMP < parent else s
    elif isinstance(t, (Exists, Forall)):
        s = f"{'exists' if isinstance(t, Exists) else 'forall'} {t.var}. {_show(t.body, 0, memo)}"
        s = f"({s})" if parent > 0 else s
    else:
        raise TypeError(f"not a printable term: {t!r}")
    if len(s) > PRINT_CAP:  # names and numerals are ASCII: a character is a byte
        raise PrintCapExceeded(f"print-size-cap: the text of a term passes {PRINT_CAP} bytes")
    memo[key] = s
    return s


def print_expr(e: Expr, parent: int = 0) -> str:
    return _show(e, parent, {})


def print_bool(b: BoolExpr, parent: int = 0) -> str:
    return _show(b, parent, {})


def print_assertion(a: Assertion, parent: int = 0) -> str:
    return _show(a, parent, {})


def print_program(p: Prog) -> str:
    return "; ".join(_print_unit(u) for u in units(p)) or "skip"


def _print_unit(u: Prog) -> str:
    if isinstance(u, Assign):
        return f"{u.name} := {print_expr(u.expr)}"
    if isinstance(u, While):
        inv = f" invariant {print_assertion(u.invariant)}" if u.invariant is not None else ""
        return f"while {print_bool(u.guard)}{inv} do {{ {print_program(u.body)} }}"
    if isinstance(u, Choice):
        # ';' binds looser than '+', so sequence arms need their own parens
        arms = [f"({print_program(a)})" if isinstance(a, Seq) else print_program(a) for a in (u.left, u.right)]
        return f"({arms[0]} + {arms[1]})"
    raise TypeError(f"not a printable program: {u!r}")
