"""Bounded assertion evaluation and entailment."""

import gc
import itertools
import random
import weakref
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    BudgetedOracle,
    assert_holds,
    entails_loop_ref,
    entails_ref,
    enumerate_states,
    exactness_error,
    gen_assertion,
    gen_bool,
    gen_state,
    models_tautology,
    past_bound,
)
from prhl import assertions, semantics
from prhl.assertions import BoundedOracle, entails, eval_assertion
from prhl.semantics import Bounds, State, Verdict
from prhl.syntax import TRUE, And, Assertion, Bool, Eq, Exists, Forall, Implies, Le, Not, Or, canon, free_vars
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


def test_range_ends_at_the_least_guard_in_either_order():
    # past y < x the body is vacuous whatever y < 100 says, so the range
    # is 0..2 at x = 3 and the value exact, whichever guard comes first
    s = State(x=3)
    for text in ("forall y. y < 100 && y < x -> y * y < 10", "forall y. y < x && y < 100 -> y * y < 10"):
        assert eval_assertion(pa(text), s, 16) == (True, False)
        # 100 is past the walker's cap: it sees the range term and declines
        assert past_bound(pa(text), s, 16) is None
        assert exactness_error(pa(text), s, 16) is None
    for text in ("exists y. y <= 20 && y <= x && y * y = 16", "exists y. y <= x && y <= 20 && y * y = 16"):
        assert eval_assertion(pa(text), State(x=3), 16) == (False, False)
        assert eval_assertion(pa(text), State(x=4), 16) == (True, False)
    # past_bound covers every range term: 20 as well as x
    for text in ("forall y. y < 20 && y < x -> y * y < 10", "forall y. y < x && y < 20 -> y * y < 10"):
        assert past_bound(pa(text), s, 16) == 20
        assert eval_assertion(pa(text), s, 16) == (True, False)
        assert exactness_error(pa(text), s, 16) is None


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


def test_entails_true_never_evaluates_the_hypothesis(monkeypatch):
    # the conclusion holds with certainty at every store, so no store can
    # be a counterexample or flag the answer: no leaf of the hypothesis is run
    hyp = pa("exists y. y * y = x + 400")
    b = Bounds(3, 100, 16)
    assert eval_assertion(hyp, State(x=1), b.quant_bound) == (False, True)  # bound-relative
    calls = []
    real = assertions._Tables.cells

    def spy(self, node, care):
        calls.append(node)
        return real(self, node, care)

    monkeypatch.setattr(assertions._Tables, "cells", spy)
    assert entails(hyp, TRUE, b) == Verdict("valid")
    assert calls == [TRUE.expr]
    # the same pair the other way round runs the quantifier's body atom
    assert entails(TRUE, hyp, b).is_unknown and hyp.body.expr in calls
    monkeypatch.undo()
    assert entails_ref(hyp, TRUE, b) == Verdict("valid")


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


# --- truth tables against the store-by-store loop ------------------------------


def _shared(rng, parts, rounds):
    """A DAG over ``parts``: each round joins an earlier node with itself,
    with one of its operands (asked then under two care masks) or with any
    earlier node, as a run of choices joins its arms' pre-conditions."""
    nodes = list(parts)
    for _ in range(rounds):
        left = rng.choice(nodes)
        inner = [k for k in left.kids() if isinstance(k, Assertion)]
        right = rng.choice((left, rng.choice(inner or nodes), rng.choice(nodes)))
        joined = rng.choice((And, Or, Implies))(left, right)
        nodes.append(canon(joined) if rng.random() < 0.5 else joined)
    return nodes[-1]


@given(SEEDS)
@settings(max_examples=500, deadline=None)
def test_entails_matches_the_store_loop(seed):
    # kind, witness, reason and flags, on quantified and flagged sides,
    # shared subterms, extra names, and boxes cut into chunks of a few stores
    rng = random.Random(seed)

    def side():
        a = _odd_shape(rng, gen_assertion(rng, QNAMES, 3, quant=True, guards=True))
        if rng.random() < 0.5:
            a = _shared(rng, [a, Bool(gen_bool(rng, QNAMES, 1))], rng.randrange(1, 12))
        return a

    hyp, concl = side(), side()
    b = Bounds(rng.randrange(5), 100, rng.randrange(4))
    extra = rng.choice(((), ("x",), ("z",), ("y", "z")))
    with mock.patch.object(assertions, "CHUNK", rng.choice((assertions.CHUNK, 1, 2, 3, 5, 9))):
        assert entails(hyp, concl, b, extra) == entails_loop_ref(hyp, concl, b, extra)


def test_entails_node_asked_under_two_care_masks():
    # 3 = 3 is asked first where x <= 1 fails, then wherever the
    # antecedent is not certainly false: its table keeps both parts
    assert entails(TRUE, pa("x <= 1 || 3 = 3 -> 3 = 3"), Bounds(2, 100, 3)) == Verdict("valid")


def test_entails_witness_in_a_later_chunk(monkeypatch):
    # chunks of 4 stores, one per (x, y): the stores at x = 0 are flagged
    # counterexamples (no w <= 2 squares to 9), and the first clean one,
    # x = 2 and y = 3, lies in the twelfth chunk
    hyp, concl = TRUE, pa("!(x = 2 && y = 3) && (0 < x || exists w. w * w = 9)")
    b = Bounds(3, 100, 2)
    whole = entails(hyp, concl, b, ("z",))
    assert whole == Verdict("invalid", witness=State(x=2, y=3))
    monkeypatch.setattr(assertions, "CHUNK", 4)
    assert entails(hyp, concl, b, ("z",)) == whole == entails_loop_ref(hyp, concl, b, ("z",))
    # with no clean one, the flagged ones at x = 0 leave it unknown
    flagged = pa("0 < x || exists w. w * w = 9")
    assert entails(hyp, flagged, b, ("y", "z")) == Verdict("unknown", reason="quantifier-bounded")


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_quantifier_tables_match_the_store_loop(seed):
    # half the inner nodes quantifiers, nested, shadowing a store name or
    # binding a fresh one, folded from their bodies' tables in slabs of
    # one value and of several; only atoms run as closures
    rng = random.Random(seed)
    hyp, concl = (gen_assertion(rng, QNAMES, 4, quant=0.5, guards=True) for _ in range(2))
    b = Bounds(rng.randrange(4), 100, rng.randrange(5))
    real = assertions._Tables.cells

    def atoms_only(self, node, care):
        assert isinstance(node, (Eq, Le))
        return real(self, node, care)

    with mock.patch.object(assertions, "CHUNK", rng.choice((assertions.CHUNK, 1, 2, 5, 9, 64))), \
            mock.patch.object(assertions._Tables, "cells", atoms_only):
        got = entails(hyp, concl, b)
    assert got == entails_loop_ref(hyp, concl, b)


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_box_tables_match_the_compiled_closure(seed):
    # a box whose names range over 0..domain_max or sit at one value, cut
    # into slabs of a few stores: each store's (value, flag) in the tables
    # is what the compiled closure gives on it, the slabs list the box in
    # order, and the stores selected by a mask are the ones it holds
    rng = random.Random(seed)
    a = gen_assertion(rng, QNAMES, 3, quant=True, guards=True)
    names = sorted(free_vars(a) | set(rng.sample(QNAMES + ["z"], rng.randrange(4))))
    domain_max, qb = rng.randrange(4), rng.randrange(5)
    axes = [range(domain_max + 1) if rng.random() < 0.6 else (rng.randrange(4),) for _ in names]
    (closure,) = semantics.compile_assertions(names, qb, a)
    box, ranged, stores = assertions._Tables(qb), semantics.exact_ranges()(a), []
    with mock.patch.object(assertions, "CHUNK", rng.choice((assertions.CHUNK, 1, 2, 3, 5, 9))):
        for full, slab in box.slabs(names, axes):
            v, f = box.table(ranged, full)
            here = list(itertools.product(*slab))
            assert len(here) == full.bit_length()
            assert [(v >> j & 1 == 1, f >> j & 1 == 1) for j in range(len(here))] == [closure(st) for st in here]
            assert list(assertions._select(here, v | f)) == [st for st in here if any(closure(st))]
            stores += here
    assert stores == list(itertools.product(*axes))


def test_entails_rewrites_each_term_once(monkeypatch):
    # the range-exact form is kept on the node, so asking the same pair
    # again walks neither side: no pin is looked for, nothing is packed
    hyp, concl = pa("forall j. j < x -> j * j < 9 + x"), pa("exists j. j = x + 2 && j * j <= 30 + x")
    b = Bounds(3, 100, 4)
    walked = []
    for name in ("_pin", "canon"):
        real = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda *args, real=real: walked.append(args) or real(*args))
    first = entails(hyp, concl, b)
    assert walked
    walked.clear()
    assert entails(hyp, concl, b) == first and not walked
    # a node that is its own form holds no reference to itself: dropped,
    # it is freed by reference counting alone
    a = pa("exists k. k * k = x + 7")
    assert entails(TRUE, a, b).is_unknown and semantics.exact_ranges()(a) is a
    gone = weakref.ref(a)
    gc.collect()  # the walkers' memos, held by closures that call themselves
    gc.disable()
    try:
        del a
        assert gone() is None
    finally:
        gc.enable()
