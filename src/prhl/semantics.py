"""Small-step operational semantics over natural-number stores, bounded
exhaustive run exploration, and semantic triple checking.

Stores are total maps from variable names to naturals, represented
extensionally: a variable absent from the store is zero, so two stores
that agree on all variables are equal objects.  Arithmetic is totalised:
subtraction truncates at zero, division by zero yields zero, and modulo
by zero returns the dividend.

Inside the engine a store is a tuple of values in name order; ``State``
is the store at the boundary: ``run_all``'s finals and verdict witnesses.
A run starts by compiling the program into a table of labelled
transitions, one label per continuation reachable from it (label 0 is the
terminated program); expressions, guards and assertions compile into
closures over store tuples.  An assertion compiles in its
``exact_ranges`` form: a quantifier pinned by ``x = e`` or ``x + t = e``
is substituted away, one guarded by ``x < e`` or ``x <= e`` ranges up to
its guard, exactly while that is within quant_bound, and every other one
over 0..quant_bound.  A configuration is a (label, store tuple) pair;
its successors come in a fixed order (the left branch of a choice
first) and are those of the small-step relation.  All exploration is one
breadth-first pass with dedup (``explore_starts``) from one start store
or many, so a final store's distance is the minimal run length reaching it.
Validity questions are decided by enumerating initial stores over the
variables that occur in the triple, each component in 0..domain_max
where it is live (``syntax.live_vars``: the pre reads it, or a run may
read it or leave it for the post before writing it) and 0 elsewhere;
intermediate values may grow past domain_max.  The pre over that box,
and the post over the whole box, are read from truth tables
(``assertions._Tables``); only finals run a compiled closure.  A name
that is not live never steers a run nor reaches the pre or the post, so
the stores left out answer as their twin at 0, which comes first in box
order (save where a cap cuts the two apart; see ``check_triple``).
Verdicts are therefore relative to the bounds, and degrade to Unknown,
naming the cap, whenever a cut by the step bound, the work cap or the
value width, or a quantifier bound, could hide or fake a counterexample.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .syntax import (
    And,
    Assertion,
    Assign,
    BAnd,
    BinOp,
    BNot,
    Bool,
    BoolExpr,
    BOr,
    Choice,
    Const,
    Empty,
    Eq,
    Exists,
    Expr,
    Forall,
    Implies,
    Le,
    Not,
    Or,
    Prog,
    Seq,
    Var,
    While,
    assertion_vars,
    canon,
    conj,
    erase_invariants,
    expr_vars,
    free_vars,
    live_vars,
    prog_vars,
    seq_of,
    subst,
)


# --- stores ---------------------------------------------------------------


class State:
    """Immutable total store; only nonzero entries are kept, so equality
    and hashing are extensional."""

    __slots__ = ("_items",)

    def __init__(self, mapping: Mapping[str, int] | Iterable[tuple[str, int]] | None = None, **vals: int):
        items = dict(mapping) if mapping else {}
        items.update(vals)
        for k, v in items.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"store values are naturals, got {k}={v!r}")
        self._items = tuple(sorted((k, v) for k, v in items.items() if v != 0))

    def get(self, name: str) -> int:
        for k, v in self._items:
            if k == name:
                return v
        return 0

    def set(self, name: str, value: int) -> "State":
        items = dict(self._items)
        items[name] = value
        return State(items)

    def as_dict(self) -> dict[str, int]:
        return dict(self._items)

    def sort_key(self) -> tuple:
        return self._items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self._items)
        return "{" + inner + "}"


def format_state(s: State, names: Iterable[str]) -> str:
    """Render a store over the given variables (zeros included)."""
    shown = sorted(set(names) | set(s.as_dict()))
    return "{" + ", ".join(f"{k}: {s.get(k)}" for k in shown) + "}"


# --- expressions ------------------------------------------------------------

_OPS = {
    "+": operator.add,
    "-": lambda l, r: l - r if l >= r else 0,
    "*": operator.mul,
    "/": lambda l, r: l // r if r != 0 else 0,
    "%": lambda l, r: l % r if r != 0 else l,
}


def _compile_expr(e, slot: Mapping[str, int]) -> Callable[[tuple], int]:
    """An expression as a closure over a store tuple indexed by ``slot``."""
    if isinstance(e, Var):
        i = slot[e.name]
        return lambda st: st[i]
    if isinstance(e, Const):
        return lambda st, c=e.value: c
    if isinstance(e, BinOp):
        # the left spine in a loop: a chain of two or more links folds in
        # one closure, each link with its own operator, so a chain
        # thousands of terms long nests no deeper than a short one; a
        # single link keeps the binary closure, which the loop slows
        links = []
        while isinstance(e, BinOp):
            links.append((_OPS[e.op], _compile_expr(e.right, slot)))
            e = e.left
        f = _compile_expr(e, slot)
        if len(links) == 1:
            ((op, g),) = links
            return lambda st: op(f(st), g(st))
        links.reverse()

        def fold(st):
            v = f(st)
            for op, g in links:
                v = op(v, g(st))
            return v

        return fold
    raise TypeError(f"not an expression: {e!r}")


def _compile_bool(b: BoolExpr, slot: Mapping[str, int]) -> Callable[[tuple], bool]:
    if isinstance(b, (Eq, Le)):
        cmp = operator.eq if isinstance(b, Eq) else operator.le
        f, g = _compile_expr(b.left, slot), _compile_expr(b.right, slot)
        return lambda st: cmp(f(st), g(st))
    if isinstance(b, BNot):
        f = _compile_bool(b.arg, slot)
        return lambda st: not f(st)
    if isinstance(b, (BAnd, BOr)):
        f, g = _compile_bool(b.left, slot), _compile_bool(b.right, slot)
        if isinstance(b, BAnd):
            return lambda st: f(st) and g(st)
        return lambda st: f(st) or g(st)
    raise TypeError(f"not a boolean expression: {b!r}")


# --- assertions ------------------------------------------------------------------

Evaluator = Callable[[tuple], tuple[bool, bool]]


def compile_assertions(box: Sequence[str], quant_bound: int, *assertions: Assertion) -> list[Evaluator]:
    """Closures from a store tuple indexed like ``box`` to the (value,
    bounded) pair of ``assertions.eval_assertion``, one per assertion.
    Each assertion is compiled in its ``exact_ranges`` form.  The slots
    are the box names, then the names only a quantifier binds, which are
    zero until bound; a quantifier sets the slot of its name."""
    assertions = tuple(map(exact_ranges(), assertions))
    only_bound = sorted(set().union(*map(assertion_vars, assertions)) - set(box))
    slot = {n: i for i, n in enumerate([*box, *only_bound])}
    pad = (0,) * len(only_bound)
    out = []
    for a in assertions:
        f = _compile_assertion(a, slot, quant_bound, False)
        out.append((lambda st, f=f: f(st + pad)) if pad else f)
    return out


def _conjuncts(a: Assertion) -> list[Assertion]:
    """The conjuncts of ``a``, through ``And`` and packed ``BAnd``."""
    if isinstance(a, And):
        return _conjuncts(a.left) + _conjuncts(a.right)
    if isinstance(a, Bool) and isinstance(a.expr, BAnd):
        return _conjuncts(Bool(a.expr.left)) + _conjuncts(Bool(a.expr.right))
    return [a]


def _needs(body: Assertion, univ: bool) -> list[Assertion]:
    """The conjuncts without which a quantifier's ``body`` is vacuous: an
    implication's antecedent under ``forall``, the body under ``exists``."""
    if univ != isinstance(body, Implies):
        return []
    return _conjuncts(body.left if univ else body)


def _pin(x: str, c: Assertion) -> tuple[Expr, Expr | None] | None:
    """``(e, t)`` when the conjunct ``c`` reads ``x = e`` (``t`` None) or
    ``x + t = e``, in either order, with ``x`` in neither ``e`` nor ``t``."""
    if not (isinstance(c, Bool) and isinstance(c.expr, Eq)):
        return None
    var = Var(x)
    for lhs, e in ((c.expr.left, c.expr.right), (c.expr.right, c.expr.left)):
        if x in expr_vars(e):
            continue
        if lhs is var:
            return e, None
        if isinstance(lhs, BinOp) and lhs.op == "+":
            for v, t in ((lhs.left, lhs.right), (lhs.right, lhs.left)):
                if v is var and x not in expr_vars(t):
                    return e, t
    return None


def _range_tops(x: str, body: Assertion, univ: bool) -> list[Expr]:
    """``e`` (or ``e - 1``) for every guard ``x <= e`` (or ``x < e``) that
    ``body`` needs: past the least of them, ``x`` makes the body vacuous."""
    var, tops = Var(x), []
    for c in _needs(body, univ):
        b = c.expr if isinstance(c, Bool) else None
        if isinstance(b, Le) and b.left is var and x not in expr_vars(b.right):
            tops.append(b.right)
        if isinstance(b, BNot) and isinstance(b.arg, Le) and b.arg.right is var and x not in expr_vars(b.arg.left):
            tops.append(BinOp("-", b.arg.left, Const(1)))  # truncated: e = 0 tries 0 only, vacuously
    return tops


def exact_ranges() -> Callable[[Assertion], Assertion]:
    """A rewrite into an equivalent assertion over the naturals whose
    quantifiers range over fewer values (Harrison, *Handbook of Practical
    Logic and Automated Reasoning*, 2009), memoized for its lifetime:

    * miniscoping: ``forall`` goes into both sides of ``&&``, ``exists``
      of ``||``; either goes into the one side of the other connective, or
      the consequent of ``->``, that holds its variable, through ``!`` as
      its dual and below a quantifier of its kind; it goes away where its
      variable does not occur;
    * one point: ``forall x. (x = e && G) -> A`` is ``(G -> A)[x:=e]`` and
      ``exists x. x = e && A`` is ``A[x:=e]``; ``x + t = e`` is read as
      ``t <= e && x = e - t``.

    Guards are left for ``_range_tops``; ``canon`` packs what changed.
    A whole assertion is rewritten once: its form is kept on the node
    (``ranged``), so a later call returns it without a walk."""
    # go is passed the memo, not closed over it: a walker that calls
    # itself makes a cycle, which would keep the memo's nodes alive
    memo: dict = {}

    def go(a, memo):
        out = memo.get(a)
        if out is None:
            if isinstance(a, Bool):
                out = a
            elif isinstance(a, (Exists, Forall)):
                out = quant(type(a), a.var, go(a.body, memo))
            else:
                out = a.rebuild(functools.partial(go, memo=memo))
            memo[a] = out
        return out

    def quant(q, x, b):
        """``q x. b`` for a ``b`` already rewritten."""
        if x not in b.fv:
            return b
        univ = q is Forall
        if isinstance(b, Not):
            return Not(quant(Exists if univ else Forall, x, b.arg))
        if isinstance(b, q):
            inner = quant(q, x, b.body)
            if inner is q(x, b.body):
                return q(x, b)
            return q(b.var, inner) if b.var in inner.fv else inner
        cs = _needs(b, univ)
        for j, pin in enumerate(_pin(x, c) for c in cs):
            if pin:
                (e, t), rest = pin, cs[:j] + cs[j + 1 :]
                if t is not None:
                    rest, e = [Bool(Le(t, e)), *rest], BinOp("-", e, t)
                b = (Implies(conj(rest), b.right) if rest else b.right) if univ else conj(rest)
                return subst(b, [(x, e)])
        junction, packed = (And, BAnd) if univ else (Or, BOr)
        if isinstance(b, Bool) and isinstance(b.expr, packed):
            b = junction(Bool(b.expr.left), Bool(b.expr.right))
        if isinstance(b, junction):
            return junction(quant(q, x, b.left), quant(q, x, b.right))
        if isinstance(b, (And, Or, Implies)):
            if x not in b.left.fv:
                return type(b)(b.left, quant(q, x, b.right))
            if x not in b.right.fv and not isinstance(b, Implies):
                return type(b)(quant(q, x, b.left), b.right)
        return q(x, b)

    def top(a):
        if not hasattr(a, "ranged"):
            out = a if (out := go(a, memo)) is a else canon(out)
            object.__setattr__(a, "ranged", None if out is a else out)
        return a.ranged or a

    return top


def _compile_assertion(a: Assertion, slot: Mapping[str, int], qb: int, neg: bool) -> Evaluator:
    """``a`` (negated if ``neg``) by the dualities And = ¬(¬l ∨ ¬r),
    Implies = ¬l ∨ r and Forall = ¬∃¬; negation keeps the flag.  A
    quantifier ranges over ``0..min(top, qb)``, where ``top`` is the least
    of its range guards' bounds or, unguarded, ``qb + 1``; the value is flagged
    when some value in range gave a flagged body, or ``top > qb`` and
    no certain witness came up."""
    if isinstance(a, Bool):
        g = _compile_bool(a.expr, slot)
        return (lambda st: (not g(st), False)) if neg else (lambda st: (g(st), False))
    if isinstance(a, Not):
        return _compile_assertion(a.arg, slot, qb, not neg)
    if isinstance(a, (And, Or, Implies)):
        conj = isinstance(a, And)
        f = _compile_assertion(a.left, slot, qb, conj or isinstance(a, Implies))
        g = _compile_assertion(a.right, slot, qb, conj)
        neg = neg != conj
        yes, no = not neg, neg

        def either(st):
            lv, lf = f(st)
            if lv and not lf:
                return yes, False  # certain by the left alone
            rv, rf = g(st)
            if not lv and not rv:
                return no, lf or rf
            return yes, not (rv and not rf)

        return either
    if isinstance(a, (Exists, Forall)):
        univ = isinstance(a, Forall)
        i, f = slot[a.var], _compile_assertion(a.body, slot, qb, univ)
        tops = [_compile_expr(e, slot) for e in _range_tops(a.var, a.body, univ)]
        if len(tops) > 1:
            hi = lambda st: min(t(st) for t in tops)
        else:
            hi = tops[0] if tops else (lambda st: qb + 1)
        neg = neg != univ

        def some(st):
            bounded = flagged = False  # a bound-relative witness; any flagged body
            head, tail, last = st[:i], st[i + 1 :], hi(st)
            for v in range(min(last, qb) + 1):
                bv, bf = f(head + (v,) + tail)
                if bf:
                    flagged = True
                    bounded = bounded or bv
                elif bv:
                    return not neg, False
            return bounded != neg, flagged or last > qb  # or the range ran out

        return some
    raise TypeError(f"not an assertion: {a!r}")


# --- programs as label tables -------------------------------------------------

# a store value wider than this is cut off rather than carried further;
# repeated multiplication otherwise grows values doubly exponentially and a
# single arbitrary-precision product can dwarf the whole step budget
VALUE_BIT_CAP = 512


class Compiled(NamedTuple):
    """A program as transitions over store tuples indexed like ``names``:
    ``steps[label](store)`` lists the successor configurations of a
    continuation in small-step order, to the labels ``succs[label]``;
    label 0 is the terminated program."""

    names: tuple[str, ...]
    start: int
    steps: list
    succs: list
    cyclic: bool


def _transition(redex: Prog, nexts: list[int], slot: Mapping[str, int]):
    if isinstance(redex, Assign):
        i, fn, (nxt,) = slot[redex.name], _compile_expr(redex.expr, slot), nexts

        def assign(st):
            v = fn(st)
            if v.bit_length() > VALUE_BIT_CAP:
                return ((None, st),)  # leads nowhere: run_all cuts it
            return ((nxt, st[:i] + (v,) + st[i + 1 :]),)

        return assign
    if isinstance(redex, While):
        guard, (then, orelse) = _compile_bool(redex.guard, slot), nexts
        return lambda st: ((then, st),) if guard(st) else ((orelse, st),)
    if isinstance(redex, Choice):
        left, right = nexts
        return lambda st: ((left, st), (right, st))
    (nxt,) = nexts
    return lambda st: ((nxt, st),)


def compile_program(prog: Prog, names: Iterable[str]) -> Compiled:
    """Label every continuation reachable from ``prog`` and give each the
    transition of its symbolic small step.  The redex is found under the
    left spine of sequencing (a raw ``ε;C`` is one), and each program it
    steps to is sequenced in normal form onto the tails around it.
    Labels are keyed on programs as given, so a non-normal input keeps
    its run lengths."""
    names = tuple(names)
    slot = {n: i for i, n in enumerate(names)}
    # a worklist in this one frame; labels compare programs by identity,
    # and a loop's annotation does not change its runs
    prog = erase_invariants(prog)
    labels: dict[Prog, int] = {Empty(): 0}
    start = labels.setdefault(prog, 1)
    progs = list(labels)  # the program of each label
    steps: list = [None]
    succs: list = [()]  # the successor labels of each label
    cyclic = False
    while len(steps) < len(progs):
        p, tails = progs[len(steps)], []
        while isinstance(p, Seq) and not isinstance(p.first, Empty):
            tails.append(p.second)
            p = p.first
        if isinstance(p, Assign):
            nexts = [Empty()]
        elif isinstance(p, While):
            nexts = [seq_of(p.body, p), Empty()]
            # the body can always run to its end in the label graph, and
            # then the normalized loop comes round to itself
            cyclic = True
        elif isinstance(p, Choice):
            nexts = [p.left, p.right]
        elif isinstance(p, Seq):  # a raw ε;C
            nexts = [p.second]
        else:
            raise TypeError(f"not a program: {p!r}")
        if tails:
            nexts = [seq_of(q, *reversed(tails)) for q in nexts]
        out = []
        for q in nexts:
            out.append(labels.setdefault(q, len(progs)))
            if out[-1] == len(progs):
                progs.append(q)
        steps.append(_transition(p, out, slot))
        succs.append(out)
    return Compiled(names, start, steps, succs, cyclic)


def label_paths(c: Compiled) -> int:
    """The number of label paths from the start of an acyclic ``c``, the
    empty one included: a run visits at most one configuration per path,
    as the label path fixes the store."""
    paths = [1] * len(c.succs)
    for lab in graphlib.TopologicalSorter(dict(enumerate(c.succs))).static_order():
        paths[lab] += sum(paths[q] for q in c.succs[lab])
    return paths[c.start]


# --- bounded run exploration ----------------------------------------------------


# what cut a run, as the reason of the Unknown verdict it leads to: the
# step bound, the work cap on explored configurations, or VALUE_BIT_CAP
STEP_DEPTH = "step-budget-exhausted"
WORK_CAP = "work-cap-exhausted"
VALUE_WIDTH = "value-width-exhausted"


@dataclass(frozen=True)
class RunResult:
    """Final stores with their minimal run lengths, in the order they
    were reached.  ``cause``: the cap that cut some run (``STEP_DEPTH``
    before ``VALUE_WIDTH`` when both did), after which ``finals`` may be
    incomplete, or None.  ``truncated``: exhausted, or some configuration
    reaches itself (an infinite run exists; runs merging into one
    configuration are not).
    """

    finals: dict
    truncated: bool
    cause: str | None

    @property
    def exhausted(self) -> bool:
        return self.cause is not None


def run_all(p: Prog | Compiled, s: State, step_bound: int) -> RunResult:
    """Breadth-first exploration of the runs of ``p`` from ``s``, at most
    ``step_bound`` steps deep, with dedup on configurations.  A compiled
    ``p`` must have a slot for every variable of ``s``."""
    given = s.as_dict()
    c = p if isinstance(p, Compiled) else compile_program(p, sorted(prog_vars(p) | given.keys()))
    if not given.keys() <= set(c.names):
        raise ValueError(f"run_all: store variables {sorted(given.keys() - set(c.names))} not compiled")
    finals, cuts, back = explore_starts(c, [tuple(given.get(n, 0) for n in c.names)], step_bound)
    cause = next((k for k, m in cuts.items() if m), None)
    cycle = cause is None and back is not None and c.cyclic and _reaches_itself(c.steps, back)
    finals = {State(zip(c.names, f)): pairs[0][0] for f, pairs in finals.items()}
    return RunResult(finals, cause is not None or cycle, cause)


def work_cap(step_bound: int) -> int:
    """The most configurations one run visits.  Depth alone cannot bound
    work: a value-diverging choice under a live guard doubles the frontier
    every level, so total visited configurations are capped as well."""
    return 8 * step_bound + 16384


# the most start stores ``explore_starts`` takes in one pass, and the most
# stores one entailment truth table holds (``assertions.entails``)
CHUNK = 1 << 12


def explore_starts(c: Compiled, starts: Sequence[tuple], step_bound: int) -> tuple[dict, dict, list | None]:
    """The runs of ``c`` from each of ``starts`` (distinct store tuples) in
    one level-synchronous pass: each configuration carries the mask of the
    starts that first reach it at its level, bit ``j`` for ``starts[j]``,
    and is stepped once for all of them.  Returns ``(finals, cuts, back)``:
    each final store, in the order first reached, maps to ``(depth,
    mask)`` pairs; each cause maps to the mask of the starts whose run it
    cut (``STEP_DEPTH`` before ``VALUE_WIDTH``); ``back``, for one start,
    is the configurations visited when a repeat went back to a non-final
    one of an earlier level (as every cycle does), else None.  Starts that
    together reach the work cap are explored again in halves, so the cap
    cuts a start, with the finals found so far, exactly when its own run
    reaches it.  A start value past ``VALUE_BIT_CAP`` cuts every first
    step that keeps it; later, assignments check the values they store."""
    if out := _pass(c, starts, step_bound):
        return out
    half = len(starts) // 2
    finals, cuts = explore_starts(c, starts[:half], step_bound)[:2]
    more, rest = explore_starts(c, starts[half:], step_bound)[:2]
    for f, pairs in more.items():
        finals.setdefault(f, []).extend((depth, m << half) for depth, m in pairs)
    return finals, {k: m | rest[k] << half for k, m in cuts.items()}, None


def _pass(c: Compiled, starts: Sequence[tuple], step_bound: int) -> tuple[dict, dict, list | None] | None:
    """``explore_starts`` in one pass; None when several starts reach the cap."""
    ids = {(c.start, s0): j for j, s0 in enumerate(starts)}  # each configuration's number, given at first sight
    if not c.start:
        return {s0: [(0, 1 << j)] for (_, s0), j in ids.items()}, {STEP_DEPTH: 0, WORK_CAP: 0, VALUE_WIDTH: 0}, None
    cap, steps, configs = work_cap(step_bound), c.steps, list(ids)
    # a value past VALUE_BIT_CAP can come only from a start: assignments check what they store
    wide = max(itertools.chain.from_iterable(starts), default=0).bit_length() > VALUE_BIT_CAP
    seen = [1 << j for j in range(len(starts))]  # by number: the mask of the starts that reached it
    frontier, n = dict(enumerate(seen)), len(seen)
    finals: dict[tuple, list] = {}
    overflow = depth = 0
    back = False  # a repeat reached a non-final configuration of an earlier level
    ends: dict[int, int] = {}  # the final configurations of this level, with their masks
    while frontier and depth < step_bound:
        depth += 1
        nxt = {}
        for i, m in frontier.items():
            lab, st = configs[i]
            for succ in steps[lab](st):
                k = ids.setdefault(succ, n)
                if k == n:  # new: its mask is m as it stands
                    if succ[0] is None or wide and max(succ[1]).bit_length() > VALUE_BIT_CAP:
                        del ids[succ]
                        overflow |= m
                        continue
                    if k >= cap:
                        if len(starts) > 1:
                            return None
                        finals.update((configs[e][1], [(depth, 1)]) for e in ends)
                        return finals, {STEP_DEPTH: 0, WORK_CAP: 1, VALUE_WIDTH: 0}, None
                    seen.append(m)
                    configs.append(succ)
                    n += 1
                    if succ[0]:
                        nxt[k] = m
                    else:
                        ends[k] = m
                elif new := m & ~seen[k]:
                    seen[k] |= m
                    if succ[0]:
                        nxt[k] = nxt.get(k, 0) | new
                    else:
                        ends[k] = ends.get(k, 0) | new
                elif not back and succ[0] and k not in nxt:
                    back = True
        if ends:  # most levels of a long run end none
            for k, m in ends.items():
                finals.setdefault(configs[k][1], []).append((depth, m))
            ends = {}
        frontier, wide = nxt, False
    cut = functools.reduce(operator.or_, frontier.values(), 0)
    return finals, {STEP_DEPTH: cut, WORK_CAP: 0, VALUE_WIDTH: overflow & ~cut}, configs if back else None


def _lowest(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _reaches_itself(steps: list, configs: Iterable[tuple]) -> bool:
    """Whether the successor graph on these configurations has a cycle."""
    graph = {cfg: steps[cfg[0]](cfg[1]) if cfg[0] else () for cfg in configs}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return True
    return False


# --- bounds, verdicts, enumeration ------------------------------------------


@dataclass(frozen=True)
class Bounds:
    domain_max: int = 8
    step_bound: int = 10000
    quant_bound: int = 16


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded semantic question.

    kind is one of valid / invalid / unknown.  Invalid carries a witness:
    a single store or an (initial, final) pair depending on the question.
    Unknown carries a reason: the cap that cut a run where a
    counterexample could hide (step-budget-exhausted, work-cap-exhausted or
    value-width-exhausted), or quantifier-bounded.
    flags records quantifier bounds that were hit on the way to a valid
    answer (the answer is then bound-relative).
    """

    kind: str
    witness: object = None
    reason: str | None = None
    flags: tuple[str, ...] = ()

    @property
    def is_valid(self) -> bool:
        return self.kind == "valid"

    @property
    def is_invalid(self) -> bool:
        return self.kind == "invalid"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


def store_tuples(names: Sequence[str], domain_max: int) -> Iterator[tuple]:
    """All stores over ``names`` with values 0..domain_max, as value
    tuples in lexicographic order."""
    return itertools.product(range(domain_max + 1), repeat=len(names))


def relevant_vars(pre: Assertion, prog: Prog, post: Assertion) -> list[str]:
    return sorted(free_vars(pre) | free_vars(post) | prog_vars(prog))


# --- triple checking ----------------------------------------------------------

LOGICS = ("partial-reverse", "total-hoare", "partial-hoare", "incorrectness")


def check_triple(
    logic: str, pre: Assertion, prog: Prog, post: Assertion, bounds: Bounds
) -> Verdict:
    """Decide a triple semantically, up to the bounds.

    partial-reverse : every store with a terminating run into the post
                      satisfies the pre (counterexample: a run pair)
    total-hoare     : every pre store has some terminating run into the post
    partial-hoare   : every terminating run from a pre store lands in the post
    incorrectness   : every post store is reachable from some pre store

    A counterexample is reported at minimal run length, ties broken by
    initial then final store order.  Witnesses whose assertion evaluation
    hit a quantifier bound are never reported as Invalid; they degrade the
    verdict to Unknown instead.
    """
    if logic not in LOGICS:
        raise ValueError(f"unknown logic {logic!r}")
    from .assertions import _select, _Tables  # which imports this module

    names = relevant_vars(pre, prog, post)
    compiled = compile_program(prog, names)
    (eval_post,) = compile_assertions(names, bounds.quant_bound, post)  # finals can lie outside the box
    rewrite, box = exact_ranges(), _Tables(bounds.quant_bound)

    # s0 ranges over the box whose names outside the live set are 0.  A
    # name is live when the pre reads it or some run may read it (in a
    # guard or an assigned value) or leave it for the post before writing
    # it; incorrectness compares whole finals, so there every name is left
    # for the post.  The others never steer a run nor reach the pre or the
    # post, so each store of the full box has the same label paths, the
    # same finals on the live-out names at the same least depths as its
    # twin with them at 0, which comes first in box order: the same verdict
    # and witness.  Only a cap can tell the two apart, as their
    # configurations that differ in a dead name merge on one side and not
    # on the other: the work cap, or the step bound at the very depth where
    # one run comes back to a configuration it has visited.  Then one of
    # the two answers is Unknown for that cap; neither is unsound.
    out = names if logic == "incorrectness" else free_vars(post)
    live = free_vars(pre) | live_vars(prog, out)
    axes = [range(bounds.domain_max + 1) if n in live else (0,) for n in names]
    side = logic != "partial-reverse"  # the pre value of a store that can witness
    size = CHUNK if compiled.cyclic else max(1, min(CHUNK, work_cap(bounds.step_bound) // label_paths(compiled)))

    # starts: the stores that can witness, in box order: outside the pre
    # under partial-reverse, inside it under the other logics, flagged
    # under any; no other store is explored, so a query's cost follows the
    # share of the box on the witness side of its pre.  They come from the
    # pre's tables, slab by slab, and are explored together, chunk by chunk
    # (``explore_starts``).  Verdicts are read off the masks of a chunk's
    # starts: bit j of ``flagged`` is set when the j-th's pre value is
    # bound-relative, a mask's lowest bit is its first start in box order,
    # and each start gets the finals and the cut of its own run.  A chunk's
    # configurations are held at once: at most the work cap of them, as on
    # an acyclic label graph a chunk holds so few starts that their runs,
    # at most ``label_paths`` configurations each, stay below it, and
    # elsewhere a chunk that reaches it is explored again in halves.
    def chunks() -> Iterator[tuple[int, list, int]]:
        """Each chunk: the index of its first start, its starts, ``flagged``."""
        chunk, flagged, base = [], 0, 0
        for full, slab in box.slabs(names, axes):
            pv, pf = box.table(rewrite(pre), full)
            can = (pv if side else full & ~pv) | pf
            if pf:  # the flags of the slab's starts, from the lowest bit
                flagged |= int("".join(_select(bin(pf)[:1:-1].ljust(full.bit_length(), "0"), can))[::-1], 2) << len(chunk)
            chunk += _select(itertools.product(*slab), can)
            whole = len(chunk) - len(chunk) % size
            for j in range(0, whole, size):
                yield base + j, chunk[j : j + size], flagged >> j
            base, chunk, flagged = base + whole, chunk[whole:], flagged >> whole
        if chunk:
            yield base, chunk, flagged

    # the least counterexample so far: (depth or start, start, the final's
    # nonzero entries by name as State.sort_key breaks ties, stores of the witness)
    best: tuple = (float("inf"),)
    budget_risk = None  # the cap that cut the first run where a counterexample could hide
    quant_risk = False  # quantifier bound touched a potential counterexample
    hoare = logic == "partial-hoare"
    reach_cert: set[tuple] = set()  # finals of starts with a certain pre
    reach_poss: set[tuple] = set()
    for base, chunk, flagged in chunks():
        finals, cuts = explore_starts(compiled, chunk, bounds.step_bound)[:2]  # not a pass's configurations
        sure = ~flagged  # the starts of the chunk whose pre value is certain
        cut = cuts[STEP_DEPTH] | cuts[WORK_CAP] | cuts[VALUE_WIDTH]
        if logic in ("partial-reverse", "partial-hoare"):
            # counterexample: a run s0 ->* f with s0 outside the pre and f
            # in the post (partial-reverse), or the other way round
            # (partial-hoare)
            for f, pairs in finals.items():
                fv, ffl = eval_post(f)
                if fv == hoare and not ffl:
                    continue
                for depth, m in pairs:
                    m_clean = 0 if ffl else m & sure
                    quant_risk = quant_risk or m_clean != m
                    if m_clean:
                        j = _lowest(m_clean)
                        best = min(best, (depth, base + j, [(n, v) for n, v in zip(names, f) if v], (chunk[j], f)))
        elif logic == "total-hoare":
            # counterexample: s0 in pre with no terminating run into post
            into = near = 0  # starts with a run certainly (possibly) into the post
            for f, pairs in finals.items():
                fv, ffl = eval_post(f)
                if fv or ffl:
                    for _, m in pairs:
                        near |= m
                        if not ffl:
                            into |= m
            rest = (1 << len(chunk)) - 1 & ~into
            cut &= rest
            lone = rest & ~cut & sure & ~near
            if lone:
                j = _lowest(lone)
                best = min(best, (base + j, 0, [], (chunk[j],)))
            quant_risk = quant_risk or rest & ~cut & ~lone != 0
        else:
            # counterexample: a post store (in the box) no pre store reaches
            for f, pairs in finals.items():
                reach_poss.add(f)
                if any(m & sure for _, m in pairs):
                    reach_cert.add(f)
        if cut and budget_risk is None:
            budget_risk = next(cause for cause, m in cuts.items() if m >> _lowest(cut) & 1)

    if logic == "incorrectness":
        # a post store of the whole box that no start reaches, from the
        # post's tables: only its true or flagged stores are visited
        poss_cut, unmet = budget_risk, False
        for full, slab in box.slabs(names, [range(bounds.domain_max + 1)] * len(names)):
            pv, pf = box.table(rewrite(post), full)
            unmet = unmet or any(f not in reach_cert for f in _select(itertools.product(*slab), pv | pf))
            if not poss_cut and (miss := [f for f in _select(itertools.product(*slab), pv & ~pf) if f not in reach_poss]):
                best = (0, 0, [], miss[:1])
                break
        budget_risk, quant_risk = poss_cut if unmet else None, unmet

    if len(best) > 1:
        witness = tuple(State(zip(names, st)) for st in best[-1])
        return Verdict("invalid", witness=witness if len(witness) == 2 else witness[0])
    if budget_risk:
        return Verdict("unknown", reason=budget_risk)
    if quant_risk:
        return Verdict("unknown", reason="quantifier-bounded")
    return Verdict("valid")
