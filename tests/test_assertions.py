"""Bounded assertion evaluation and entailment."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    BudgetedOracle,
    assert_holds,
    entails_ref,
    enumerate_states,
    exactness_error,
    gen_assertion,
    gen_bool,
    gen_state,
    models_tautology,
)
from prhl.assertions import BoundedOracle, entails, eval_assertion
from prhl.semantics import Bounds, State, Verdict
from prhl.syntax import And, Bool, Exists, Forall, Implies, Not, Or, free_vars
from prhl.syntax import parse_assertion as pa

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
NAMES = ["x", "i"]


def test_eval_quantifiers_and_flags():
    s = State()
    # a witness inside the bound is certain; an absent one is only
    # absent up to the bound
    assert eval_assertion(pa("exists y. y = 3"), s, 16) == (True, False)
    assert eval_assertion(pa("exists y. y * y = 400"), s, 16) == (False, True)
    assert eval_assertion(pa("exists y. y * y = 400"), s, 25) == (True, False)
    # a pinned variable takes its one value, whatever the bound
    assert eval_assertion(pa("exists y. y = 20"), s, 16) == (True, False)
    # a guarded one ranges up to its guard: exact below the bound, flagged past it
    assert eval_assertion(pa("forall y. y < 10 -> y * y <= 81"), s, 16) == (True, False)
    assert eval_assertion(pa("forall y. y < 20 -> y * y <= 81"), s, 16) == (False, False)
    assert eval_assertion(pa("forall y. y < 20 -> y <= 18"), s, 16) == (True, True)
    assert eval_assertion(pa("exists y. y <= 20 && y * y = 400"), s, 16) == (False, True)
    # a range ends at its guard's bound, inclusive for <= and exclusive for <
    t = State(x=5)
    assert eval_assertion(pa("exists y. y < x && y * y = 16"), t, 16) == (True, False)
    assert eval_assertion(pa("exists y. y < x && y * y = 25"), t, 16) == (False, False)
    assert eval_assertion(pa("exists y. y <= x && y * y = 25"), t, 16) == (True, False)
    assert eval_assertion(pa("forall y. y < x -> y * y < 16"), t, 16) == (False, False)
    assert eval_assertion(pa("forall y. y < x -> y * y < 25"), t, 16) == (True, False)
    # a linear pin x = y + 2 takes y to x - 2, past the bound 2, if 2 <= x
    assert eval_assertion(pa("exists y. x = y + 2 && y * y = 9"), t, 2) == (True, False)
    assert eval_assertion(pa("exists y. x = 2 + y"), State(x=1), 2) == (False, False)
    # a flagged body value in range flags the quantifier, even a false one
    assert eval_assertion(pa("forall y. y < x -> exists z. 20 + y <= z * z"), t, 4) == (False, True)
    assert eval_assertion(pa("forall y. y <= 20"), s, 16) == (True, True)
    assert eval_assertion(pa("forall y. y <= 3"), s, 16) == (False, False)


def test_eval_short_circuit_skips_flagged_branch():
    assert eval_assertion(pa("false -> exists y. y = 20"), State(), 16) == (True, False)
    assert eval_assertion(pa("x = 1 && exists y. y = 20"), State(), 16) == (False, False)


def test_assert_holds_face_value():
    assert assert_holds(pa("x = 0 || x = 2"), State(x=2), 16)
    assert not assert_holds(pa("exists y. y = 20"), State(), 16)


def test_entails_frozen_verdicts():
    b = Bounds(4, 100, 16)
    assert entails(pa("x = 0"), pa("x <= 1"), b).is_valid
    v = entails(pa("x <= 1"), pa("x = 0"), b)
    assert v.is_invalid and v.witness == State(x=1)
    u = entails(pa("true"), pa("exists y. y * y = 400"), Bounds(2, 100, 16))
    assert u.is_unknown and u.reason == "quantifier-bounded"
    f = entails(pa("exists y. y * y = 400"), pa("false"), Bounds(2, 100, 16))
    assert f.is_valid and f.flags == ("quantifier-bounded",)
    # with the witness pinned, both questions are decided exactly
    assert entails(pa("true"), pa("exists y. y = 20"), Bounds(2, 100, 16)) == Verdict("valid")
    w = entails(pa("exists y. y = 20"), pa("false"), Bounds(2, 100, 16))
    assert w.is_invalid and w.witness == State()


def test_entails_extra_vars_widen_the_box():
    # without extra_vars the hypothesis mentions no store variable at all
    b = Bounds(2, 100, 16)
    assert entails(pa("true"), pa("x = 0"), b).is_invalid
    assert entails(pa("true"), pa("x = 0"), b, extra_vars=()).witness == State(x=1)


def test_models_tautology():
    assert models_tautology(pa("x <= x"), Bounds(3, 100, 16)).is_valid
    assert models_tautology(pa("x = 0"), Bounds(3, 100, 16)).is_invalid


def test_bounded_oracle_quantifier_budget():
    o = BudgetedOracle(Bounds(3, 100, 4), quantifier_budget=1)
    v = o.entails(pa("exists y. y = x"), pa("exists z. z = x"))
    assert v.is_unknown
    assert v.reason == "quantifier-bounded" and v.flags == ("quantifier-budget",)
    assert o.entails(pa("x = 0"), pa("x <= 2")).is_valid
    # no budget: the same query is decided by enumeration
    assert BoundedOracle(Bounds(3, 100, 4)).entails(
        pa("exists y. y = x"), pa("exists z. z = x")
    ).is_valid


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_entails_invalid_witness_replays(seed):
    rng = random.Random(seed)
    hyp = gen_assertion(rng, NAMES, 3)
    concl = gen_assertion(rng, NAMES, 3)
    b = Bounds(3, 100, 16)
    v = entails(hyp, concl, b, extra_vars=NAMES)
    if v.is_invalid:
        assert assert_holds(hyp, v.witness, b.quant_bound)
        assert not assert_holds(concl, v.witness, b.quant_bound)


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_entails_invalid_is_monotone_in_domain(seed):
    # a certain counterexample stays a counterexample in a larger box
    rng = random.Random(seed)
    hyp = gen_assertion(rng, NAMES, 3)
    concl = gen_assertion(rng, NAMES, 3)
    small = entails(hyp, concl, Bounds(2, 100, 16), extra_vars=NAMES)
    if small.is_invalid:
        big = entails(hyp, concl, Bounds(4, 100, 16), extra_vars=NAMES)
        assert big.is_invalid


# --- the compiled evaluator against the tree-walker ------------------------------

# q is never in a store: free it reads 0, bound it takes a slot of its own
QNAMES = ["x", "i", "q"]


def _odd_shape(rng, a):
    """``a`` inside a shape the parser would fold or never build."""
    b = Bool(gen_bool(rng, QNAMES, 1))
    pick = rng.randrange(6)
    if pick == 0:
        return Not(Not(a))
    if pick == 1:
        return And(b, Bool(gen_bool(rng, QNAMES, 1)))
    if pick == 2:
        return rng.choice((And, Or, Implies))(a, Not(b))
    if pick == 3:
        return rng.choice((Exists, Forall))(rng.choice(QNAMES), rng.choice((Exists, Forall))("q", a))
    return a


@given(SEEDS)
@settings(max_examples=400, deadline=None)
def test_eval_assertion_matches_tree_walker(seed):
    # pinned and guarded quantifiers are exact where the walker, ranging
    # every quantifier over 0..qb, is flagged
    rng = random.Random(seed)
    a = _odd_shape(rng, gen_assertion(rng, QNAMES, 4, quant=True, guards=True))
    qb = rng.randrange(5)
    for _ in range(4):
        # z is in the store but not in the assertion
        s = gen_state(rng, rng.choice((NAMES, NAMES + ["z"])), 4)
        assert exactness_error(a, s, qb) is None


@given(SEEDS)
@settings(max_examples=1000, deadline=None)
def test_exact_ranges_on_quantifier_heavy_assertions(seed):
    # half the inner nodes are quantifiers over the two store names, so the
    # bodies mention the bound variable and nest pins, ranges and shadowing
    rng = random.Random(seed)
    a = gen_assertion(rng, NAMES, 4, quant=0.5, guards=True)
    qb = rng.randrange(4)
    for _ in range(3):
        assert exactness_error(a, gen_state(rng, NAMES, 4), qb) is None


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_entails_matches_state_box_reference(seed):
    # verdict kind, witness, reason and flags from the compiled values, and
    # those values against the tree-walker's at every store of the box
    rng = random.Random(seed)
    hyp = _odd_shape(rng, gen_assertion(rng, QNAMES, 3, quant=True, guards=True))
    concl = _odd_shape(rng, gen_assertion(rng, QNAMES, 3, quant=True, guards=True))
    b = Bounds(rng.randrange(4), 100, rng.randrange(4))
    extra = rng.choice(((), ("x",), ("z",)))
    got = entails(hyp, concl, b, extra)
    assert got == entails_ref(hyp, concl, b, extra, evaluate=eval_assertion)
    names = sorted(free_vars(hyp) | free_vars(concl) | set(extra))
    for s in enumerate_states(names, b.domain_max):
        for a in (hyp, concl):
            assert exactness_error(a, s, b.quant_bound) is None
    # a verdict that the walker's values decide without flags stands; an
    # earlier counterexample may have become exact
    ref = entails_ref(hyp, concl, b, extra)
    if ref.is_invalid:
        assert got.is_invalid
        assert [got.witness.get(n) for n in names] <= [ref.witness.get(n) for n in names]
    if ref == Verdict("valid"):
        assert got == ref
