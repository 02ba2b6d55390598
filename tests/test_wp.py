"""Weakest pre-condition formulas and the modulus sequence coding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_holds, decode_sequence, enumerate_states, gen_assertion, gen_prog, subterms, transformer_set
from prhl.semantics import Bounds, State
from prhl.syntax import (
    Exists,
    Var,
    parse_assertion as pa,
    parse_program as pp,
    print_assertion,
    prog_vars,
    free_vars,
)
from prhl.wp import (
    MissingInvariantError,
    SearchExhausted,
    WprRequest,
    beta,
    encode_sequence,
    wpr_formula,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
NAMES = ["x", "i"]
LOOP = "while x = 0 do { x := x + 1 }"


# --- the remainder predicate and sequence coding --------------------------------


def test_beta_prints_as_remainder_equation():
    assert print_assertion(beta(7, 1, 0, Var("x"))) == "x = 7 % (1 + (1 + 0) * 1)"


def test_encode_frozen_pairs():
    assert encode_sequence([1, 0]) == (3, 1)
    assert encode_sequence([]) == (0, 0)
    assert encode_sequence([0, 1, 2]) == (10, 1)
    assert encode_sequence([7]) == (7, 7)


def test_decode_inverts_encode():
    vals = [0, 1, 2]
    n, m = encode_sequence(vals)
    assert decode_sequence(n, m, len(vals)) == vals
    assert decode_sequence(*encode_sequence([]), 0) == []


def test_encode_search_exhaustion():
    with pytest.raises(SearchExhausted):
        encode_sequence([5], n_max=3, m_max=1)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=3))
@settings(deadline=None)
def test_encode_round_trip_short_sequences(vals):
    n, m = encode_sequence(vals)
    assert decode_sequence(n, m, len(vals)) == vals


# --- formula construction --------------------------------------------------------


def test_loop_free_formulas_frozen():
    assert print_assertion(wpr_formula(WprRequest(pp("x := x + 1"), pa("x = 6"))).formula) == "x + 1 = 6"
    assert (
        print_assertion(wpr_formula(WprRequest(pp("x := x + 1; x := x * 2"), pa("x = 6"))).formula)
        == "(x + 1) * 2 = 6"
    )
    r = wpr_formula(WprRequest(pp("(x := 1 + x := 2)"), pa("x = 1")))
    assert print_assertion(r.formula) == "1 = 1 || 2 = 1"
    assert r.exact and r.notes == ()
    assert print_assertion(wpr_formula(WprRequest(pp("skip"), pa("x = 1"))).formula) == "x = 1"


def test_unroll_mode_is_flagged_under_approximation():
    r = wpr_formula(WprRequest(pp(LOOP), pa("x = 1"), loop_mode="unroll", unroll_depth=2))
    assert not r.exact
    assert r.notes == ("loop unrolled 2 times; under-approximate",)


def test_unroll_formula_shares_its_subterms():
    # the printed formula doubles at every level (4.2 MB at depth 14);
    # its distinct subterms grow by a few dozen per level
    prog = pp("while i < 8 do { (x := x + 2 + skip); i := i + 1 }")
    r = wpr_formula(WprRequest(prog, pa("3 < x"), loop_mode="unroll", unroll_depth=14))
    assert len(subterms(r.formula)) < 2000


def test_invariant_mode_uses_annotation():
    r = wpr_formula(
        WprRequest(
            pp("while x = 0 invariant x <= 1 do { x := x + 1 }"),
            pa("x = 1"),
            loop_mode="invariant",
        )
    )
    assert print_assertion(r.formula) == "x <= 1"
    assert not r.exact
    assert r.notes == ("loop pre-condition taken from invariant annotation",)


def test_invariant_mode_requires_annotation():
    with pytest.raises(MissingInvariantError):
        wpr_formula(WprRequest(pp(LOOP), pa("x = 1"), loop_mode="invariant"))


def test_unknown_loop_mode_rejected_at_a_loop():
    with pytest.raises(ValueError):
        wpr_formula(WprRequest(pp(LOOP), pa("x = 1"), loop_mode="bogus"))
    # modes are only consulted when a loop is reached
    assert wpr_formula(WprRequest(pp("skip"), pa("true"), loop_mode="bogus")).exact


def test_beta_mode_is_exact_and_closed():
    r = wpr_formula(WprRequest(pp(LOOP), pa("x = 1"), loop_mode="beta"))
    assert r.exact and r.notes == ()
    assert isinstance(r.formula, Exists)
    assert free_vars(r.formula) == {"x"}


def test_beta_mode_face_values_match_enumeration():
    f = wpr_formula(WprRequest(pp(LOOP), pa("x = 1"), loop_mode="beta")).formula
    # wpr is {0, 1}: enter once from 0, skip the loop from 1
    assert assert_holds(f, State(), 6)
    assert assert_holds(f, State(x=1), 6)
    assert not assert_holds(f, State(x=2), 6)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_loop_free_formula_matches_transformer(seed):
    rng = random.Random(seed)
    prog = gen_prog(rng, NAMES, 3, loops=False)
    post = gen_assertion(rng, NAMES, 2)
    r = wpr_formula(WprRequest(prog, post))
    assert r.exact
    b = Bounds(domain_max=3, step_bound=500, quant_bound=16)
    want = transformer_set("wpr", prog, lambda s: assert_holds(post, s, 16), b, extra_vars=NAMES)
    assert not want.truncated
    names = sorted(prog_vars(prog) | set(NAMES))
    got = {s for s in enumerate_states(names, 3) if assert_holds(r.formula, s, 16)}
    assert got == want.states


@given(SEEDS)
@settings(max_examples=40, deadline=None)
def test_unroll_under_approximates(seed):
    rng = random.Random(seed)
    prog = gen_prog(rng, NAMES, 2)
    post = gen_assertion(rng, NAMES, 2)
    r = wpr_formula(WprRequest(prog, post, loop_mode="unroll", unroll_depth=2))
    b = Bounds(domain_max=3, step_bound=500, quant_bound=16)
    want = transformer_set("wpr", prog, lambda s: assert_holds(post, s, 16), b, extra_vars=NAMES)
    if want.truncated:
        return
    names = sorted(prog_vars(prog) | set(NAMES))
    got = {s for s in enumerate_states(names, 3) if assert_holds(r.formula, s, 16)}
    assert got <= want.states
