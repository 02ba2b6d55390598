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
even when they rewrite the concrete text.  Terms are read by precedence
climbing over one operator table, which the printer reads too; the one
speculative parse left is whether a ``+`` in an assignment's right-hand
side adds or starts a choice.

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

Each expression, guard and assertion node carries ``fv``, its free
variables, computed once when the node is built (a program node has
none).  An assertion node rewritten whole by ``semantics.exact_ranges``
keeps its ``canon``'d range-exact form in ``ranged``, None where that is
the node itself, so that no node refers to itself.  The rewriting walkers handle only variables, binders and the
connectives ``canon`` packs, and pass every other node to ``rebuild``.
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

    __slots__ = ("__weakref__", "fv", "ranged")  # for the weak table, and two that are not dataclass fields

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
            if issubclass(cls, Prog):  # whose free variables would be quadratic in its length
                object.__setattr__(node, "normal", _normal(cls, args))
            else:
                object.__setattr__(node, "fv", _free(cls, args))
        return node

    def kids(self) -> tuple:
        """The fields that are nodes, in order."""
        return tuple(v for n in self.__match_args__ if isinstance(v := getattr(self, n), _Node))

    def rebuild(self, f) -> "_Node":
        """The node of this class with ``f`` applied to each field that is
        a node, in order; the others are kept."""
        fields = []  # a loop: a comprehension would add a frame to the walkers' inner step
        for n in self.__match_args__:
            v = getattr(self, n)
            fields.append(f(v) if isinstance(v, _Node) else v)
        return type(self)(*fields)


def _free(cls, args: tuple) -> frozenset[str]:
    """A new node's free variables: a variable's name, a binder's body's
    less its variable, else the union of its children's (a child's own set if equal)."""
    if cls is Var:
        return frozenset(args)
    if cls is Exists or cls is Forall:
        var, body = args
        return body.fv - {var} if var in body.fv else body.fv
    out: frozenset[str] = frozenset()
    for v in args:
        if isinstance(v, _Node):
            out = v.fv if out <= v.fv else out if v.fv <= out else out | v.fv
    return out


def _normal(cls, args: tuple) -> bool:
    """Whether a new program node is in normal form, from its children's bits."""
    if cls is Seq:
        first, second = args
        return not isinstance(first, (Seq, Empty)) and not isinstance(second, Empty) and first.normal and second.normal
    return all(v.normal for v in args if isinstance(v, Prog))


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
    __slots__ = ("normal",)  # whether it is in normal form, set when it is built


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


# what each field of each node class holds, for readers that build nodes
# field by field: a node of the given class (``While``'s invariant may be
# None), "name" (an identifier that is no keyword), "op" (an operator of
# ``BinOp``) or "nat" (a natural number)
_E, _B, _P, _A = Expr, BoolExpr, Prog, Assertion
SORTS: dict = {
    Var: ("name",), Const: ("nat",), BinOp: ("op", _E, _E), Eq: (_E, _E), Le: (_E, _E),
    BNot: (_B,), BAnd: (_B, _B), BOr: (_B, _B),
    Empty: (), Assign: ("name", _E), Seq: (_P, _P), While: (_B, _P, (_A, type(None))), Choice: (_P, _P),
    Bool: (_B,), Not: (_A,), And: (_A, _A), Or: (_A, _A), Implies: (_A, _A), Exists: ("name", _A), Forall: ("name", _A),
}

TRUE_BOOL = Eq(Const(0), Const(0))
FALSE_BOOL = BNot(TRUE_BOOL)
TRUE = Bool(TRUE_BOOL)
FALSE = Bool(FALSE_BOOL)


def conj(parts: Sequence[Assertion]) -> Assertion:
    """The conjunction of ``parts``, nested to the left; ``true`` if none."""
    return functools.reduce(And, parts) if parts else TRUE


# --- variable sets ------------------------------------------------------


def free_vars(t: Expr | BoolExpr | Assertion) -> frozenset[str]:
    """The free variables of an expression, guard or assertion."""
    return t.fv


expr_vars = bool_vars = free_vars


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


def live_vars(p: Prog, out: Iterable[str]) -> frozenset[str]:
    """The variables live on entry to ``p`` when ``out`` are live after it
    (backward live-variable analysis): those that some run may read, in a
    guard or an assigned expression, or leave for ``out`` before writing
    them.  A loop is live in the least fixpoint of its guard, what is live
    after it and what its body needs to come round again."""
    live = frozenset(out)
    for u in reversed(list(units(p))):
        if isinstance(u, Assign):
            live = live - {u.name} | expr_vars(u.expr)
        elif isinstance(u, Choice):
            live = live_vars(u.left, live) | live_vars(u.right, live)
        elif isinstance(u, While):
            head = bool_vars(u.guard) | live
            while (grown := head | live_vars(u.body, head)) != head:
                head = grown
            live = head
        else:
            raise TypeError(f"not a program: {u!r}")
    return live


def assertion_vars(a: Assertion) -> frozenset[str]:
    """Free and bound variables together."""
    if isinstance(a, (Exists, Forall)):
        return assertion_vars(a.body) | {a.var}
    return a.fv if isinstance(a, Bool) else frozenset().union(*map(assertion_vars, a.kids()))


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


def _substitution(mapping: dict[str, Expr], term):
    """``term`` under the simultaneous capture-avoiding substitution
    ``mapping``, which any expression, guard or assertion takes, memoized
    on the node."""
    memo: dict = {}

    def go(t):
        if t.fv.isdisjoint(mapping):
            return t
        out = memo.get(t)
        if out is not None:
            return out
        if isinstance(t, Var):
            out = mapping[t.name]
        elif isinstance(t, (Exists, Forall)):
            inner = {k: v for k, v in mapping.items() if k in t.fv}  # not empty, as t.fv meets mapping
            var, body = t.var, t.body
            cap = frozenset().union(*(v.fv for v in inner.values()))
            if var in cap:
                var = fresh_var(cap | body.fv | set(inner), var)
                body = _substitution({t.var: Var(var)}, body)
            out = type(t)(var, _substitution(inner, body))
        else:
            out = t.rebuild(go)
        memo[t] = out
        return out

    out = go(term)
    memo.clear()  # go and its memo form a cycle: free the nodes it holds now
    return out


def subst_expr(e: Expr, mapping: dict[str, Expr]) -> Expr:
    return _substitution(mapping, e)


def subst(a: Expr | BoolExpr | Assertion, pairs: Sequence[tuple[str, Expr]]) -> Expr | BoolExpr | Assertion:
    """Simultaneous capture-avoiding substitution into any term.

    All pairs apply at once, so ``subst(x <= y, [(x,y),(y,x)])`` swaps the
    two variables.  A binder whose name would capture a substituted
    expression is renamed with ``fresh_var`` first, e.g.
    ``subst(exists x. x = y, [(y, x)])`` yields ``exists x_p1. x_p1 = x``.
    """
    mapping = dict(pairs)
    return _substitution(mapping, a) if mapping else a


def alpha_rename(a: Assertion) -> Assertion:
    """Rename binders apart from free variables and from each other,
    left to right, keeping names that do not clash.  Idempotent; applied
    by the assertion parser so structurally equal texts parse equal."""
    avoid = set(free_vars(a))
    plain: set[Assertion] = set()  # subterms seen to bind nothing, so that a shared one is walked once

    def go(a: Assertion) -> Assertion:
        if isinstance(a, Bool) or a in plain:
            return a
        if isinstance(a, (Exists, Forall)):
            var, body = a.var, a.body
            if var in avoid:
                new = fresh_var(avoid | assertion_vars(body), var)
                body = subst(body, [(var, Var(new))])
                var = new
            avoid.add(var)
            return type(a)(var, go(body))
        seen, out = len(avoid), a.rebuild(go)
        if out is a and len(avoid) == seen:
            plain.add(a)
        return out

    out = go(a)
    plain.clear()  # go and its memo form a cycle: free the nodes it holds now
    return out


def normal_assertion(a: Assertion) -> Assertion:
    """``a`` as the assertion parser reads its text: binders renamed
    apart, then boolean connectives packed."""
    return canon(alpha_rename(a))


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
        else:
            out = a.rebuild(go)
        memo[a] = out
        return out

    out = go(a)
    memo.clear()  # go and its memo form a cycle: free the nodes it holds now
    return out


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
    Walks the units right to left, so each is joined as it is found, and
    keeps the last part whole if it is normal already (``skip`` aside), so
    only the parts before it are walked."""
    out, stack = None, list(parts)
    while stack:
        p = stack.pop()
        if isinstance(p, Empty):
            continue
        if out is None and getattr(p, "normal", False):
            out = p
            continue
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


def erase_invariants(p: Prog, bare: dict | None = None) -> Prog:
    """The program with every loop annotation dropped, to compare programs
    where annotations must not count.  The shape of sequencing is kept;
    an explicit stack walks it, so any length or grouping of ``;`` is fine.
    ``bare`` memoizes the bare forms across calls that share it."""
    bare = {} if bare is None else bare
    stack = [p]
    while stack:
        q = stack.pop()
        if q in bare:
            continue
        if isinstance(q, Seq):
            first, second = bare.get(q.first), bare.get(q.second)
            if first is None or second is None:
                stack += (q, q.first, q.second)
            else:  # an unchanged program is its own bare form
                bare[q] = q if first is q.first and second is q.second else Seq(first, second)
        elif isinstance(q, While):
            bare[q] = While(q.guard, erase_invariants(q.body, bare))
        else:
            bare[q] = Choice(erase_invariants(q.left, bare), erase_invariants(q.right, bare)) if isinstance(q, Choice) else q
    return bare[p]


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


def is_name(s: str) -> bool:
    """Whether ``s`` reads as one identifier, a name that is no keyword."""
    m = _TOKEN_RE.fullmatch(s)
    return m is not None and m.lastgroup == "ident" and s not in _KEYWORDS


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

# the infix operators and how tightly each binds, read by the parser and
# the printer: ``->`` groups to the right, the others to the left, and a
# comparison's operands are expressions, so comparisons do not chain
_PREC = {
    "->": 1, "||": 2, "&&": 3,
    "=": 4, "<=": 4, "!=": 4, "<": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}

# the node each infix operator builds; the comparison sugar desugars here
_JOIN = {
    "->": Implies, "||": Or, "&&": And,
    "=": lambda l, r: Bool(Eq(l, r)),
    "<=": lambda l, r: Bool(Le(l, r)),
    "!=": lambda l, r: Bool(BNot(Eq(l, r))),
    "<": lambda l, r: Bool(BNot(Le(r, l))),
    ">": lambda l, r: Bool(BNot(Le(l, r))),
    ">=": lambda l, r: Bool(Le(r, l)),
    **{op: functools.partial(BinOp, op) for op in "+-*/%"},
}


class _Parser:
    """Recursive descent for programs; precedence climbing (Pratt, 1973)
    over ``_PREC`` for expressions and assertions, so a parenthesis is read
    once.  One speculative parse is left: inside an assignment's right-hand
    side a ``+`` may instead begin a nondeterministic choice (``x := 1 +
    y := 2`` is a choice between two assignments).
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

    # -- expressions and assertions --

    def of(self, kind: type, floor: int = 1, rhs: bool = False) -> Expr | Assertion:
        """A ``term`` that must be of ``kind``, ``Expr`` or ``Assertion``."""
        pos = self.peek()[2]
        return self.check(self.term(floor, rhs), kind, pos)

    def check(self, t: Expr | Assertion, kind: type, pos: int) -> Expr | Assertion:
        if not isinstance(t, kind):
            raise ParseError(f"expected {'an expression' if kind is Expr else 'an assertion'}", pos, self.text)
        return t

    def term(self, floor: int = 1, rhs: bool = False) -> Expr | Assertion:
        """The longest term here whose infix operators bind at least as
        tightly as ``floor``.  With ``rhs`` (an assignment's right-hand
        side) a ``+`` that a new assignment follows ends it: it starts a
        choice."""
        start = self.peek()[2]
        left = self.prefix()
        while (prec := _PREC.get(self.peek()[1], 0)) >= floor:
            save = self.pos
            op = self.next()[1]
            kind = Expr if prec > _PREC["&&"] else Assertion
            self.check(left, kind, start)
            if op == "+" and rhs:
                try:
                    right = self.term(prec + 1)
                except ParseError:
                    right = None
                if not isinstance(right, Expr) or self.at(":="):
                    self.pos = save
                    break
            else:  # -> groups to the right, the others to the left
                right = self.of(kind, prec if op == "->" else prec + 1)
            left = _JOIN[op](left, right)
        return left

    def prefix(self) -> Expr | Assertion:
        """A numeral, a name, ``true``/``false``, ``!`` and what binds
        tighter than ``&&``, a quantifier and its body, or ``( term )``."""
        kind, value, pos = self.next()
        if kind == "num":
            try:
                return Const(int(value))
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError(f"numeral of {len(value)} digits is too long", pos, self.text) from None
        if kind == "ident":
            return Var(value)
        if value == "!":
            return Not(self.of(Assertion, _PREC["&&"] + 1))
        if value in ("exists", "forall"):
            kind, name, at = self.next()
            if kind != "ident":
                raise ParseError(f"expected variable after {value!r}", at, self.text)
            self.expect(".")
            return (Exists if value == "exists" else Forall)(name, self.of(Assertion))
        if value in ("true", "false"):
            return TRUE if value == "true" else FALSE
        if value == "(":
            t = self.term()
            self.expect(")")
            return t
        raise ParseError(f"expected expression, found {value or 'end of input'!r}", pos, self.text)

    def guard(self) -> BoolExpr:
        """A loop or conditional guard: an assertion that ``canon`` packs
        into one ``BoolExpr``, i.e. one without quantifiers or ``->``."""
        pos = self.peek()[2]
        a = canon(self.of(Assertion, _PREC["||"]))
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
                inv = canon(self.of(Assertion))
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
        if self.at("{", "("):
            close = "}" if self.next()[1] == "{" else ")"
            p = self.program()
            self.expect(close)
            return p
        if kind == "ident":
            self.next()
            self.expect(":=")
            return Assign(value, self.of(Expr, _PREC["+"], rhs=True))
        raise ParseError(f"expected statement, found {value or 'end of input'!r}", pos, self.text)


def _parse(text: str, avoid: Iterable[str], read):
    """``read`` of a parser over ``text``, which must take all of it; too
    deep a nesting is a parse error at the token reached."""
    parser = _Parser(text, avoid)
    try:
        t = read(parser)
    except RecursionError:
        at = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise ParseError("nesting too deep", at, text) from None
    kind, got, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input starting at {got!r}", pos, text)
    return t


def parse_program(text: str, avoid: Iterable[str] = ()) -> Prog:
    """Parse program text to normal form, compiling each conditional with
    a flag that is none of ``avoid`` and no identifier of the text."""
    return _parse(text, avoid, _Parser.program)


def parse_assertion(text: str) -> Assertion:
    return _parse(text, (), lambda parser: normal_assertion(parser.of(Assertion)))


# --- printing ------------------------------------------------------------

# the longest text a term prints to: an unrolled loop's formula shares its
# subterms, but its text doubles with every level (4.2 MB at depth 14)
PRINT_CAP = 1 << 24


class PrintCapExceeded(Exception):
    """A term's text would pass ``PRINT_CAP`` bytes."""


# the operator a binary node other than ``BinOp`` prints with
_SYMBOL = {Eq: "=", Le: "<=", BAnd: "&&", And: "&&", BOr: "||", Or: "||", Implies: "->"}


def _infix(t) -> tuple | None:
    """The operator and operands ``t`` prints with, if it prints infix:
    ``!(a = b)`` prints as ``a != b`` and ``!(a <= b)`` as ``b < a``."""
    if isinstance(t, BNot) and isinstance(t.arg, (Eq, Le)):
        return ("!=", t.arg.left, t.arg.right) if isinstance(t.arg, Eq) else ("<", t.arg.right, t.arg.left)
    op = t.op if isinstance(t, BinOp) else _SYMBOL.get(type(t))
    return op and (op, t.left, t.right)


def _show(t, parent: int, memo: dict) -> str:
    """Text of an expression, guard or assertion as the operand of an
    operator of precedence ``parent`` (0 for none), memoized on (node, parent)."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    key = (t, parent)
    s = memo.get(key)
    if s is not None:
        return s
    if t is TRUE_BOOL or t is FALSE_BOOL:
        s = "true" if t is TRUE_BOOL else "false"
    elif (infix := _infix(t)) is not None:
        op, left, right = infix
        prec = _PREC[op]
        s = f"{_show(left, prec + (op == '->'), memo)} {op} {_show(right, prec + (op != '->'), memo)}"
        s = f"({s})" if prec < parent else s
    elif isinstance(t, (BNot, Not)):
        s = f"!({_show(t.arg, 0, memo)})"
    elif isinstance(t, Bool):
        s = _show(t.expr, parent, memo)
    elif isinstance(t, (Exists, Forall)):
        s = f"{'exists' if isinstance(t, Exists) else 'forall'} {t.var}. {_show(t.body, 0, memo)}"
        s = f"({s})" if parent > 0 else s
    else:
        raise TypeError(f"not a printable term: {t!r}")
    if len(s) > PRINT_CAP:  # names and numerals are ASCII: a character is a byte
        raise PrintCapExceeded(f"print-size-cap: the text of a term passes {PRINT_CAP} bytes")
    memo[key] = s
    return s


def print_assertion(a: Expr | BoolExpr | Assertion) -> str:
    """The text of an expression, guard or assertion."""
    return _show(a, 0, {})


print_expr = print_bool = print_assertion


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
