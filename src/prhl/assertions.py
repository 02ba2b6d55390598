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
anywhere in the deciding part of the formula.  Both sides are compiled
once per question by ``semantics.compile_assertions`` and run on value
tuples; ``eval_assertion`` is the one-store entry taking a ``State``.
Entailment checks enumerate stores over the free variables, evaluating the
hypothesis only where the conclusion is not certainly true, and report:

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

from typing import Iterable

from .semantics import Bounds, State, Verdict, compile_assertions, store_tuples
from .syntax import Assertion, free_vars


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
    """Does every store satisfying ``hyp`` satisfy ``concl``?  Enumerates
    stores over the union of free variables, 0..domain_max each; at each,
    the conclusion first and the hypothesis only where that is not certain."""
    names = sorted(free_vars(hyp) | free_vars(concl) | set(extra_vars))
    h, c = compile_assertions(names, bounds.quant_bound, hyp, concl)
    flagged_cex = False
    valid_flags = False
    for st in store_tuples(names, bounds.domain_max):
        cv, cf = c(st)
        if cv and not cf:
            continue  # certainly inside the conclusion: no branch below fires
        hv, hf = h(st)
        if not hv and not hf:
            continue  # certainly outside the hypothesis
        if hv and not cv:
            if not hf and not cf:
                return Verdict("invalid", witness=State(zip(names, st)))
            flagged_cex = True
        elif not cv or cf:
            # no counterexample at face value, but bounds decided it
            valid_flags = True
    if flagged_cex:
        return Verdict("unknown", reason="quantifier-bounded")
    if valid_flags:
        return Verdict("valid", flags=("quantifier-bounded",))
    return Verdict("valid")


class BoundedOracle:
    """Side-condition oracle of the checker and the prover: decides
    hyp |= concl by exhaustive bounded enumeration."""

    def __init__(self, bounds: Bounds | None = None):
        self.bounds = bounds if bounds is not None else Bounds()

    def entails(self, hyp: Assertion, concl: Assertion) -> Verdict:
        return entails(hyp, concl, self.bounds)
