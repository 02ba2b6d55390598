"""Bounded evaluation of first-order assertions and entailment checking.

Quantifiers range over all naturals in the logic but are evaluated here
over 0..quant_bound.  Evaluation therefore returns a pair (value, bounded):
``bounded`` is set when the value is bound-relative, i.e. a universal ran
out of candidates while still true, or an existential ran out while still
false, anywhere in the deciding part of the formula.  Entailment checks
enumerate stores over the free variables and report:

* Invalid with the first (store-order) counterexample whose evaluation is
  bound-independent;
* Unknown(quantifier-bounded) when the only counterexamples are
  bound-relative;
* Valid otherwise, flagged as quantifier-bounded when some store's
  no-counterexample answer was itself bound-relative.

The ``EntailmentOracle`` base class is the seam for swapping in a real
decision procedure; everything downstream (proof checking, proving) takes
an oracle rather than calling the bounded routines directly.
"""

from __future__ import annotations

from typing import Iterable

from .semantics import Bounds, State, Verdict, enumerate_states, eval_bool
from .syntax import (
    And,
    Assertion,
    Bool,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    free_vars,
    quantifier_count,
)


def eval_assertion(a: Assertion, s: State, quant_bound: int) -> tuple[bool, bool]:
    """Evaluate under the store; quantifiers range over 0..quant_bound.

    Returns (value, bounded).  A conjunction/disjunction is certain as
    soon as one side decides it with certainty, so e.g. ``false && P`` is
    never bounded whatever P does.
    """
    if isinstance(a, Bool):
        return eval_bool(a.expr, s), False
    if isinstance(a, Not):
        v, fl = eval_assertion(a.arg, s, quant_bound)
        return (not v), fl
    if isinstance(a, (And, Or, Implies)):
        lv, lf = eval_assertion(a.left, s, quant_bound)
        if isinstance(a, Implies):
            lv = not lv
        if isinstance(a, And):
            if not lv and not lf:
                return False, False  # certainly false by the left alone
            rv, rf = eval_assertion(a.right, s, quant_bound)
            if lv and rv:
                return True, lf or rf
            certain = (not lv and not lf) or (not rv and not rf)
            return False, not certain
        # Or / Implies
        if lv and not lf:
            return True, False  # certainly true by the left alone
        rv, rf = eval_assertion(a.right, s, quant_bound)
        if not lv and not rv:
            return False, lf or rf
        certain = (lv and not lf) or (rv and not rf)
        return True, not certain
    if isinstance(a, Exists):
        bounded = False
        for v in range(quant_bound + 1):
            bv, bf = eval_assertion(a.body, s.set(a.var, v), quant_bound)
            if bv and not bf:
                return True, False
            if bv:
                bounded = True  # witness exists but is bound-relative
        if bounded:
            return True, True
        return False, True  # range exhausted with no witness
    if isinstance(a, Forall):
        bounded = False
        for v in range(quant_bound + 1):
            bv, bf = eval_assertion(a.body, s.set(a.var, v), quant_bound)
            if not bv and not bf:
                return False, False
            if not bv:
                bounded = True  # counterexample exists but is bound-relative
        if bounded:
            return False, True
        return True, True  # range exhausted while still true
    raise TypeError(f"not an assertion: {a!r}")


def entails(
    hyp: Assertion, concl: Assertion, bounds: Bounds, extra_vars: Iterable[str] = ()
) -> Verdict:
    """Does every store satisfying ``hyp`` satisfy ``concl``?  Enumerates
    stores over the union of free variables, 0..domain_max each."""
    names = sorted(free_vars(hyp) | free_vars(concl) | set(extra_vars))
    flagged_cex = False
    valid_flags = False
    for s in enumerate_states(names, bounds.domain_max):
        hv, hf = eval_assertion(hyp, s, bounds.quant_bound)
        cv, cf = eval_assertion(concl, s, bounds.quant_bound)
        if hv and not cv:
            if not hf and not cf:
                return Verdict("invalid", witness=s)
            flagged_cex = True
        elif (hv or hf) and (not cv or cf):
            # no counterexample at face value, but bounds decided it
            valid_flags = True
    if flagged_cex:
        return Verdict("unknown", reason="quantifier-bounded")
    if valid_flags:
        return Verdict("valid", flags=("quantifier-bounded",))
    return Verdict("valid")


class EntailmentOracle:
    """Interface taken by the proof checker and prover for side
    conditions.  Implementations decide hyp |= concl."""

    def entails(self, hyp: Assertion, concl: Assertion) -> Verdict:
        raise NotImplementedError


class BoundedOracle(EntailmentOracle):
    """Default oracle: exhaustive bounded enumeration.

    ``quantifier_budget``, when set, short-circuits queries whose two
    sides together carry more quantifiers than the budget; such queries
    come back Unknown immediately instead of spending exponential time.
    Useful when checking certificates full of beta-encoded loop formulas.
    """

    def __init__(self, bounds: Bounds | None = None, quantifier_budget: int | None = None):
        self.bounds = bounds if bounds is not None else Bounds()
        self.quantifier_budget = quantifier_budget

    def entails(self, hyp: Assertion, concl: Assertion) -> Verdict:
        if self.quantifier_budget is not None:
            if quantifier_count(hyp) + quantifier_count(concl) > self.quantifier_budget:
                return Verdict(
                    "unknown", reason="quantifier-bounded", flags=("quantifier-budget",)
                )
        return entails(hyp, concl, self.bounds)
