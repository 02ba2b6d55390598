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

Entailment is decided on truth tables over the box of stores (see
``_Tables``): each atom and quantifier runs once per assignment of its own
free variables, the connectives are bitwise, and a shared node is
computed once.  The hypothesis is computed only where the conclusion is
not certainly true.  The answer is:

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
from typing import Iterable

from .semantics import CHUNK, Bounds, State, Verdict, _compile_assertion, compile_assertions, exact_ranges
from .syntax import And, Assertion, BAnd, BNot, Bool, BOr, Exists, Forall, Implies, Not, Or, assertion_vars, free_vars


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
    hyp: Assertion, concl: Assertion, bounds: Bounds, extra_vars: Iterable[str] = ()
) -> Verdict:
    """Does every store satisfying ``hyp`` satisfy ``concl``?  Decided on
    truth tables over the box of the union of free variables, 0..domain_max
    each: the conclusion's first, the hypothesis's only where that is not
    certain.  A box of more than ``CHUNK`` stores is taken in chunks, one
    per assignment of its leading names."""
    names = sorted(free_vars(hyp) | free_vars(concl) | set(extra_vars))
    rewrite = exact_ranges()
    hyp, concl = rewrite(hyp), rewrite(concl)
    r, tail = bounds.domain_max + 1, len(names)
    while tail and r**tail > CHUNK:
        tail -= 1
    box = _Tables(names, r, tail, bounds.quant_bound)
    flagged_cex = valid_flags = False
    for lead in itertools.product(range(r), repeat=len(names) - tail):
        box.start(lead)
        cv, cf = box.table(concl, box.full)
        care = box.full & ~(cv & ~cf)  # not certainly inside the conclusion
        hv, hf = box.table(hyp, care)
        live = care & (hv | hf)  # not certainly outside the hypothesis
        cex = live & hv & ~cv
        clean = cex & ~hf & ~cf
        if clean:
            low = (clean & -clean).bit_length() - 1  # the first in store order
            return Verdict("invalid", witness=State(zip(names, lead + tuple(low // w % r for w in box.weights))))
        flagged_cex = flagged_cex or cex != 0
        # no counterexample at face value, but bounds decided it
        valid_flags = valid_flags or live & ~cex != 0
    if flagged_cex:
        return Verdict("unknown", reason="quantifier-bounded")
    if valid_flags:
        return Verdict("valid", flags=("quantifier-bounded",))
    return Verdict("valid")


class _Tables:
    """Truth tables over one chunk of a store box, bit ``i`` the ``i``-th
    store in ``store_tuples`` order: ``start`` fixes the leading names and
    the last ``tail`` range.  A node's value and flag masks are exact on a
    care mask; an atom or a quantifier runs once per cell (assignment of its
    own free names) that meets its care, spread over the cell's stores
    through the cylinder masks ``cyl``, and a node is computed once per chunk."""

    def __init__(self, names: list[str], r: int, tail: int, qb: int):
        self.at, self.lead_n, self.qb = {n: i for i, n in enumerate(names)}, len(names) - tail, qb
        self.weights = [r ** (tail - 1 - j) for j in range(tail)]
        self.full = (1 << r**tail) - 1
        # the stores whose j-th ranging name is v: a run of w ones every w * r bits
        self.cyl = [[((1 << w) - 1 << v * w) * (self.full // ((1 << w * r) - 1)) for v in range(r)]
                    for w in self.weights]
        self.leaves: dict = {}

    def start(self, lead: tuple) -> None:
        self.lead, self.memo = lead, {}

    def cells(self, node, care: int) -> tuple:
        """An atom's or a quantifier's closure, compiled at first use, and
        its cells that meet ``care``: each an assignment of its own names
        (a quantifier's bound-only names padded) and the mask of its stores."""
        got = self.leaves.get(node)
        if got is None:
            own = sorted(node.fv, key=self.at.get)
            leaf = node if isinstance(node, (Exists, Forall)) else Bool(node)
            pad = sorted(assertion_vars(leaf) - node.fv)
            f = _compile_assertion(leaf, {n: i for i, n in enumerate([*pad, *own])}, self.qb, False)
            fixed = [self.at[n] for n in own if self.at[n] < self.lead_n]
            got = self.leaves[node] = f, (0,) * len(pad), fixed, [self.at[n] - self.lead_n for n in own[len(fixed) :]]
        f, pad, fixed, ranging = got
        cells = [(pad + tuple(self.lead[i] for i in fixed), care)]
        for j in ranging:
            cells = [(t + (v,), m & c) for t, m in cells for v, c in enumerate(self.cyl[j]) if m & c]
        return f, cells

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

    def entails(self, hyp: Assertion, concl: Assertion) -> Verdict:
        return entails(hyp, concl, self.bounds)
