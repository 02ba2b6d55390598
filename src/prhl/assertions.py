"""Bounded evaluation of first-order assertions and entailment checking.

Quantifiers range over all naturals in the logic.  Before evaluation,
``semantics.exact_ranges`` rewrites an assertion so that a quantifier
pinned by ``x = e`` or ``x + t = e`` is gone and one guarded by ``x < e``
or ``x <= e`` ranges up to its guard, exactly while that is within
quant_bound; every other quantifier is evaluated over 0..quant_bound.
Evaluation therefore returns a pair (value, bounded): ``bounded`` is set
when the value is bound-relative, i.e. a quantifier ran out of
candidates (unguarded, or guarded past quant_bound) without a certain
witness, or a body value in its range was itself bound-relative,
anywhere in the deciding part of the formula.  ``eval_assertion``, the
one-store entry taking a ``State``, compiles its assertion by
``semantics.compile_assertions`` and runs it on a value tuple.

Entailment is decided, and ``semantics.check_triple`` reads its pre and
its incorrectness post, on truth tables over a box of stores
(``_Tables``): an atom runs once per assignment of its own free
variables, a quantifier is folded from its body over the box extended by
its variable, the connectives are bitwise, and a shared node is computed
once.  The hypothesis is computed only where the conclusion is not
certainly true.  The answer is:

* Invalid with the first (store-order) counterexample whose evaluation is
  bound-independent;
* Unknown(quantifier-bounded) when the only counterexamples are
  bound-relative;
* Valid otherwise, flagged as quantifier-bounded when some store's
  no-counterexample answer was itself bound-relative.

The proof checker and the prover ask their side conditions through a
``BoundedOracle``, which holds the bounds.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .semantics import CHUNK, Bounds, State, Verdict, _compile_assertion, _range_tops, compile_assertions, exact_ranges
from .syntax import And, Assertion, BAnd, BNot, Bool, BOr, Const, Exists, Forall, Implies, Le, Not, Or, Var, free_vars


def eval_assertion(a: Assertion, s: State, quant_bound: int) -> tuple[bool, bool]:
    """Evaluate under the store; quantifiers not pinned or guarded range
    over 0..quant_bound.

    Returns (value, bounded).  A conjunction/disjunction is certain as
    soon as one side decides it with certainty, so e.g. ``false && P`` is
    never bounded whatever P does.
    """
    given = s.as_dict()
    names = sorted(free_vars(a) | given.keys())
    (f,) = compile_assertions(names, quant_bound, a)
    return f(tuple(given.get(n, 0) for n in names))


def entails(
    hyp: Assertion, concl: Assertion, bounds: Bounds, extra_vars: Iterable[str] = (), rewrite=None
) -> Verdict:
    """Does every store satisfying ``hyp`` satisfy ``concl``?  Decided on
    truth tables over the box of the union of free variables, 0..domain_max
    each, slab by slab: the conclusion's first, the hypothesis's only where
    that is not certain.  ``rewrite`` is the ``exact_ranges()`` rewriter to
    use; calls that share one rewrite a subterm they share once."""
    names = sorted(free_vars(hyp) | free_vars(concl) | set(extra_vars))
    rewrite = exact_ranges() if rewrite is None else rewrite
    hyp, concl = rewrite(hyp), rewrite(concl)
    box, flagged_cex, valid_flags = _Tables(bounds.quant_bound), False, False
    for full, slab in box.slabs(names, [range(bounds.domain_max + 1)] * len(names)):
        cv, cf = box.table(concl, full)
        care = full & ~(cv & ~cf)  # not certainly inside the conclusion
        hv, hf = box.table(hyp, care)
        live = care & (hv | hf)  # not certainly outside the hypothesis
        cex = live & hv & ~cv
        clean = cex & ~hf & ~cf
        if clean:  # the first in store order
            return Verdict("invalid", witness=State(zip(names, next(_select(itertools.product(*slab), clean & -clean)))))
        flagged_cex = flagged_cex or cex != 0
        # no counterexample at face value, but bounds decided it
        valid_flags = valid_flags or live & ~cex != 0
    if flagged_cex:
        return Verdict("unknown", reason="quantifier-bounded")
    if valid_flags:
        return Verdict("valid", flags=("quantifier-bounded",))
    return Verdict("valid")


def _select(items: Iterable, mask: int) -> Iterator:
    """The items at the set bits of ``mask``, from the lowest."""
    return itertools.compress(items, bin(mask)[:1:-1].replace("0", "\0").encode())


class _Tables:
    """Truth tables over a box of ``full.bit_length()`` stores, bit ``i``
    the ``i``-th.  ``cyl`` maps each name to its cylinders, (value, mask of
    the stores with that value) pairs; a name fixed for the box has one.
    Masks are exact on a care mask and a node is computed once per box: an
    atom runs once per cell (assignment of its own free names) that meets
    its care, and a quantifier is folded from its body (``quant``)."""

    def __init__(self, qb: int):
        self.qb, self.leaves = qb, {}

    def start(self, cyl: dict, full: int) -> None:
        self.cyl, self.full, self.memo = cyl, full, {}

    def slabs(self, names: Sequence[str], axes: Sequence[Sequence[int]]) -> Iterator[tuple[int, list]]:
        """The box over ``names``, the ``j``-th ranging over ``axes[j]``, in
        slabs of at most ``CHUNK`` stores, one per assignment of its leading
        names: each is started in turn, and its full mask and its axes,
        whose product lists its stores in bit order, are yielded."""
        k, size = len(axes), 1
        while k and size * len(axes[k - 1]) <= CHUNK:
            k -= 1
            size *= len(axes[k])
        full, w, cyl = (1 << size) - 1, size, {}
        for n, ax in zip(names[k:], axes[k:]):
            # the stores whose value of n is its i-th: a run of w ones every w * len(ax) bits
            w //= len(ax)
            cyl[n] = [(v, ((1 << w) - 1 << i * w) * (full // ((1 << w * len(ax)) - 1))) for i, v in enumerate(ax)]
        for fixed in itertools.product(*axes[:k]):
            self.start({**cyl, **{n: [(v, full)] for n, v in zip(names, fixed)}}, full)
            yield full, [(v,) for v in fixed] + list(axes[k:])

    def cells(self, node, care: int) -> tuple:
        """An atom's closure, compiled at first use, and its cells that meet
        ``care``: an assignment of its own names and the mask of its stores each."""
        got = self.leaves.get(node)
        if got is None:
            own = sorted(node.fv)
            got = self.leaves[node] = _compile_assertion(Bool(node), {n: i for i, n in enumerate(own)}, self.qb, False), own
        f, own = got
        cells = [((), care)]
        for n in own:
            cells = [(t + (v,), m & c) for t, m in cells for v, c in self.cyl[n] if m & c]
        return f, cells

    def quant(self, a, need: int) -> tuple[int, int]:
        """``exists`` (``forall`` is not exists not) by ``either``'s rules, from
        the body over the box extended by a leading axis for the variable
        (existential abstraction; Bryant, 1986), in slabs of ``CHUNK // stores``
        values (one at least), value ``v0 + j`` at bit ``j * stores``.  A range
        guard masks a slab by ``x <= top``, and all guards past qb, or none, cut
        the range; a slab is asked where the range goes on and no witness is certain."""
        x, univ, qb = a.var, isinstance(a, Forall), self.qb
        tops = _range_tops(x, a.body, univ)
        cut = need
        for top in tops:
            cut &= self.table(Le(Const(qb + 1), top), cut)[0]
        outer = cyl, full, _ = self.cyl, self.full, self.memo
        n, v0, live = full.bit_length(), 0, need
        v = certain = flagged = 0  # some true body; a certain witness; a flagged body
        while live and v0 <= qb:
            k = min(max(1, CHUNK // n), qb + 1 - v0)
            rep = ((1 << k * n) - 1) // full  # one 1 at bit j*n for each j < k
            self.start({**{m: [(u, c * rep) for u, c in cs] for m, cs in cyl.items()},
                        x: [(v0 + j, full << j * n) for j in range(k)]}, full * rep)
            care = live * rep
            for top in tops:
                care &= self.table(Le(Var(x), top), care)[0]
            bv, bf = self.table(a.body, care)
            bv, bf = (~bv if univ else bv) & care, bf & care
            yes = bv & ~bf
            for j in range(k):
                v |= bv >> j * n & full
                certain |= yes >> j * n & full
                flagged |= bf >> j * n & full
            live = care >> (k - 1) * n & ~certain  # in range at the slab's last value
            v0 += k
        self.cyl, self.full, self.memo = outer
        return (~v if univ else v) & need, ~certain & (flagged | cut) & need

    def table(self, a, care: int) -> tuple[int, int]:
        """The value and flag masks of an assertion or a boolean expression,
        exact on the stores of ``care``: what an earlier call left out of
        its care is computed now."""
        if not care:
            return 0, 0
        if isinstance(a, Bool):
            return self.table(a.expr, care)
        done, val, flag = self.memo.get(a, (0, 0, 0))
        need = care & ~done
        if not need:
            return val, flag
        if isinstance(a, (Not, BNot)):
            v, f = self.table(a.arg, need)
            v ^= self.full
        elif isinstance(a, (And, Or, Implies, BAnd, BOr)):
            # either's rules: And is not(not l or not r), Implies not l or r;
            # the right side is asked only where the left is not certain
            conj = isinstance(a, (And, BAnd))
            lv, lf = self.table(a.left, need)
            if conj or isinstance(a, Implies):
                lv ^= self.full
            rest = need & ~(lv & ~lf)
            rv, rf = self.table(a.right, rest)
            if conj:
                rv ^= self.full
            v = lv | rv
            f = rest & (v & ~(rv & ~rf) | ~v & (lf | rf))
            if conj:
                v ^= self.full
        elif isinstance(a, (Exists, Forall)):
            v, f = self.quant(a, need)
        else:
            q, cells = self.cells(a, need)
            v = f = 0
            for t, m in cells:
                qv, qf = q(t)
                if qv:
                    v |= m
                if qf:
                    f |= m
        val, flag = val & done | v & need, flag & done | f & need
        self.memo[a] = done | need, val, flag
        return val, flag


class BoundedOracle:
    """Side-condition oracle of the checker and the prover: decides
    hyp |= concl on the truth tables of the bounded box."""

    def __init__(self, bounds: Bounds | None = None):
        self.bounds = bounds if bounds is not None else Bounds()
        self.rewrite = exact_ranges()  # one memo for every question, which share subterms

    def entails(self, hyp: Assertion, concl: Assertion) -> Verdict:
        return entails(hyp, concl, self.bounds, rewrite=self.rewrite)
