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
first) and are those of the small-step relation.  All exploration is
breadth-first over configurations with dedup, so the reported distance
of a final store is the minimal run length reaching it.
Validity questions are decided by enumerating initial stores over the
variables that occur in the triple, each component in 0..domain_max;
intermediate values may grow past domain_max.  Verdicts are therefore
relative to the bounds, and a verdict degrades to Unknown whenever the
step budget cut exploration or a quantifier bound could hide or fake a
counterexample.
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
    prog_vars,
    seq_of,
    subst,
    units,
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
        op, f, g = _OPS[e.op], _compile_expr(e.left, slot), _compile_expr(e.right, slot)
        return lambda st: op(f(st), g(st))
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


def _range_top(x: str, body: Assertion, univ: bool) -> Expr | None:
    """``e`` (or ``e - 1``) for the first guard ``x <= e`` (or ``x < e``)
    that ``body`` needs: past it, ``x`` makes the body vacuous."""
    var = Var(x)
    for c in _needs(body, univ):
        b = c.expr if isinstance(c, Bool) else None
        if isinstance(b, Le) and b.left is var and x not in expr_vars(b.right):
            return b.right
        if isinstance(b, BNot) and isinstance(b.arg, Le) and b.arg.right is var and x not in expr_vars(b.arg.left):
            return BinOp("-", b.arg.left, Const(1))  # truncated: e = 0 tries 0 only, vacuously
    return None


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

    Guards are left for ``_range_top``; ``canon`` packs what changed."""
    memo: dict = {}
    fvs: dict = {}

    def fv(a):
        return fvs[a] if a in fvs else fvs.setdefault(a, free_vars(a))

    def go(a):
        out = memo.get(a)
        if out is None:
            if isinstance(a, Bool):
                out = a
            elif isinstance(a, Not):
                out = Not(go(a.arg))
            elif isinstance(a, (Exists, Forall)):
                out = quant(type(a), a.var, go(a.body))
            else:
                out = type(a)(go(a.left), go(a.right))
            memo[a] = out
        return out

    def quant(q, x, b):
        """``q x. b`` for a ``b`` already rewritten."""
        if x not in fv(b):
            return b
        univ = q is Forall
        if isinstance(b, Not):
            return Not(quant(Exists if univ else Forall, x, b.arg))
        if isinstance(b, q):
            inner = quant(q, x, b.body)
            if inner is q(x, b.body):
                return q(x, b)
            return q(b.var, inner) if b.var in fv(inner) else inner
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
            if x not in fv(b.left):
                return type(b)(b.left, quant(q, x, b.right))
            if x not in fv(b.right) and not isinstance(b, Implies):
                return type(b)(quant(q, x, b.left), b.right)
        return q(x, b)

    return lambda a: a if (out := go(a)) is a else canon(out)


def _compile_assertion(a: Assertion, slot: Mapping[str, int], qb: int, neg: bool) -> Evaluator:
    """``a`` (negated if ``neg``) by the dualities And = ¬(¬l ∨ ¬r),
    Implies = ¬l ∨ r and Forall = ¬∃¬; negation keeps the flag.  A
    quantifier ranges over ``0..min(top, qb)``, where ``top`` is its
    range guard's bound or, unguarded, ``qb + 1``; the value is flagged
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
        top = _range_top(a.var, a.body, univ)
        hi = (lambda st: qb + 1) if top is None else _compile_expr(top, slot)
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
    continuation in small-step order; label 0 is the terminated program."""

    names: tuple[str, ...]
    start: int
    steps: list
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
    # labels known to be in normal form: what seq_of built, and every
    # continuation of one; _onto sequences those onto their tails without
    # walking the tails again, seq_of the rest (the input may be raw)
    normal = {Empty()}
    steps: list = [None]
    cyclic = False
    while len(steps) < len(progs):
        p, tails = progs[len(steps)], []
        join = _onto if p in normal else seq_of
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
        for t in reversed(tails):
            nexts = [join(q, t) for q in nexts]
        out = []
        for q in nexts:
            out.append(labels.setdefault(q, len(progs)))
            if out[-1] == len(progs):
                progs.append(q)
                if join is _onto or tails:
                    normal.add(q)
        steps.append(_transition(p, out, slot))
    return Compiled(names, start, steps, cyclic)


def _onto(q: Prog, t: Prog) -> Prog:
    """``seq_of(q, t)`` for programs in normal form, walking ``q`` only."""
    for u in reversed(list(units(q))):
        t = u if isinstance(t, Empty) else Seq(u, t)
    return t


# --- bounded run exploration ----------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """Final stores with their minimal run lengths, in the order they
    were reached: ``State``s from ``run_all``, store tuples from
    ``explore``.  ``exhausted``: the step budget, the work cap or
    ``VALUE_BIT_CAP`` cut some run, and ``finals`` may be incomplete.
    ``truncated``: exhausted, or some configuration reaches itself (an
    infinite run exists; runs merging into one configuration are not).
    """

    finals: dict
    truncated: bool
    exhausted: bool


def run_all(p: Prog | Compiled, s: State, step_bound: int) -> RunResult:
    """Breadth-first exploration of the runs of ``p`` from ``s``, at most
    ``step_bound`` steps deep, with dedup on configurations.  A compiled
    ``p`` must have a slot for every variable of ``s``."""
    given = s.as_dict()
    c = p if isinstance(p, Compiled) else compile_program(p, sorted(prog_vars(p) | given.keys()))
    if not given.keys() <= set(c.names):
        raise ValueError(f"run_all: store variables {sorted(given.keys() - set(c.names))} not compiled")
    r = explore(c, tuple(given.get(n, 0) for n in c.names), step_bound)
    return RunResult({State(zip(c.names, f)): n for f, n in r.finals.items()}, r.truncated, r.exhausted)


def explore(c: Compiled, store: tuple, step_bound: int) -> RunResult:
    """``run_all`` on a store tuple indexed like ``c.names``; the finals
    are store tuples."""
    if c.start == 0:
        return RunResult({store: 0}, False, False)
    steps = c.steps
    cfg0 = (c.start, store)
    # assignments check the value they store; only the initial store can
    # carry a value past the cap into another step
    dirty = _over_cap(store)
    visited = {cfg0: 0}  # configuration -> depth
    frontier = [cfg0]
    finals: dict[tuple, int] = {}
    back = False  # a repeat reached a configuration no deeper than its source
    overflow = False
    depth = 0
    # depth alone cannot bound work: a value-diverging choice under a live
    # guard doubles the frontier every level, so total visited configurations
    # are capped as well; tripping either cap reports exhausted, like depth
    work_cap = 8 * step_bound + 16384

    while frontier and depth < step_bound:
        depth += 1
        nxt = []
        for lab, st in frontier:
            for succ in steps[lab](st):
                seen = visited.get(succ)
                if seen is not None:
                    back = back or seen < depth
                    continue
                if succ[0] is None or dirty and _over_cap(succ[1]):
                    overflow = True
                    continue
                if len(visited) >= work_cap:
                    return RunResult(finals, True, True)
                visited[succ] = depth
                if succ[0]:
                    nxt.append(succ)
                else:
                    finals[succ[1]] = depth
        frontier = nxt
        dirty = False
    exhausted = bool(frontier) or overflow
    # every cycle has an edge that does not lead one level deeper
    cycle = not exhausted and back and c.cyclic and _reaches_itself(steps, visited)
    return RunResult(finals, exhausted or cycle, exhausted)


def _over_cap(values: Iterable[int]) -> bool:
    return any(v.bit_length() > VALUE_BIT_CAP for v in values)


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
    Unknown carries a reason, step-budget-exhausted or quantifier-bounded.
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
    names = relevant_vars(pre, prog, post)
    compiled = compile_program(prog, names)
    pre_of, post_of = compile_assertions(names, bounds.quant_bound, pre, post)
    eval_post = functools.cache(post_of)

    # rows: (s0, s0 in the pre, that bound-relative, the runs from s0) for
    # every s0 in the box, so a query costs the same whatever share of the
    # box its pre holds on
    rows = []
    for s0 in store_tuples(names, bounds.domain_max):
        pv, pfl = pre_of(s0)
        rows.append((s0, pv, pfl, explore(compiled, s0, bounds.step_bound)))

    clean: list[tuple] = []  # (depth/index, index, final, stores of the witness)
    budget_risk = False  # exploration cut where a counterexample could hide
    quant_risk = False  # quantifier bound touched a potential counterexample

    if logic in ("partial-reverse", "partial-hoare"):
        # counterexample: a run s0 ->* f with s0 outside the pre and f in
        # the post (partial-reverse), or the other way round (partial-hoare)
        hoare = logic == "partial-hoare"
        for idx, (s0, pre_true, pre_flags, r) in enumerate(rows):
            if pre_true != hoare and not pre_flags:
                continue  # s0 certainly cannot witness
            if r.exhausted:
                budget_risk = True
            for f, depth in r.finals.items():
                fv, ffl = eval_post(f)
                if fv == hoare and not ffl:
                    continue
                if pre_true == hoare and not pre_flags and not ffl:
                    clean.append((depth, idx, f, (s0, f)))
                else:
                    quant_risk = True
    elif logic == "total-hoare":
        # counterexample: s0 in pre with no terminating run into post
        for idx, (s0, pre_true, pre_flags, r) in enumerate(rows):
            if not pre_true and not pre_flags:
                continue
            finals = [eval_post(f) for f in r.finals]
            if any(v and not fl for v, fl in finals):
                continue  # certainly has a run into the post
            if r.exhausted:
                budget_risk = True
            elif pre_true and not pre_flags and not any(v or fl for v, fl in finals):
                clean.append((idx, 0, (), (s0,)))
            else:
                quant_risk = True
    elif logic == "incorrectness":
        # counterexample: a post store (in the box) no pre store reaches
        reach_cert: set[tuple] = set()
        reach_poss: set[tuple] = set()
        poss_exhausted = False
        for _, pre_true, pre_flags, r in rows:
            if pre_true and not pre_flags:
                reach_cert.update(r.finals)
            if pre_true or pre_flags:
                reach_poss.update(r.finals)
                poss_exhausted = poss_exhausted or r.exhausted
        for idx, f in enumerate(store_tuples(names, bounds.domain_max)):
            fv, ffl = eval_post(f)
            if not fv and not ffl or f in reach_cert:
                continue
            if poss_exhausted:
                budget_risk = True
            elif fv and not ffl and f not in reach_poss:
                clean.append((idx, 0, (), (f,)))
            else:
                quant_risk = True

    if clean:
        # ties between finals go by State.sort_key: nonzero entries by name
        *_, stores = min(clean, key=lambda t: (t[0], t[1], [(n, v) for n, v in zip(names, t[2]) if v]))
        witness = tuple(State(zip(names, st)) for st in stores)
        return Verdict("invalid", witness=witness if len(witness) == 2 else witness[0])
    if budget_risk:
        return Verdict("unknown", reason="step-budget-exhausted")
    if quant_risk:
        return Verdict("unknown", reason="quantifier-bounded")
    return Verdict("valid")
