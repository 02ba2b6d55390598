"""Certificate construction and the tree-to-cyclic transformation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BudgetedOracle, gen_prog, unroll_global_ok
from prhl.assertions import BoundedOracle
from prhl.certificates import Triple, parse_proof, serialize_proof
from prhl.checker import check_cprhl, check_prhl, global_soundness
from prhl.prover import (
    LOOP_MODES,
    ProveRequest,
    prove_prhl,
    transform_to_cyclic,
)
from prhl.semantics import Bounds, State
from prhl.syntax import Empty, normalize_program, parse_assertion as pa, parse_program as pp
from prhl.wp import MissingInvariantError, WprRequest, wpr_formula

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
NAMES = ["x", "i"]

LOOP3 = "while i < 5 invariant true do { x := x + i; i := i + 1 }"
T3 = Triple(pa("true"), pp(LOOP3), pa("x > 0 && i >= 5"))


def shape(n):
    return (n.rule, tuple(shape(k) for k in n.children))


def test_straight_line_proof():
    t = Triple(pa("x = 2"), pp("x := x + 1; x := x * 2"), pa("x = 6"))
    res = prove_prhl(ProveRequest(t))
    assert res.status == "proved" and res.ok
    assert shape(res.proof) == ("Cons", (("Seq", (("Assign", ()), ("Assign", ()))),))
    assert res.proof.triple == t
    seq = res.proof.children[0]
    from prhl.syntax import print_assertion

    assert print_assertion(seq.children[0].triple.post) == "x * 2 = 6"
    assert print_assertion(seq.triple.pre) == "(x + 1) * 2 = 6"
    assert [(s.where, s.verdict.kind) for s in res.sides] == [("root: pre side", "valid")]
    assert check_prhl(res.proof.to_proof(), bounds=Bounds(6, 1000, 16)).accepted


def test_invariant_mode_loop_proof():
    res = prove_prhl(ProveRequest(T3, loop_mode="invariant-annotations"))
    assert res.status == "proved"
    assert shape(res.proof) == (
        "Cons",
        (("While", (("Cons", (("Seq", (("Assign", ()), ("Assign", ()))),)),)),),
    )
    assert [(s.where, s.verdict.kind) for s in res.sides] == [
        ("loop body: pre side", "valid"),
        ("loop exit: post side", "valid"),
    ]
    assert res.notes == ("loop pre-condition taken from invariant annotation",)
    rep = check_prhl(res.proof.to_proof(), bounds=Bounds(8, 10000, 16))
    assert rep.accepted and not rep.bounded


def test_invariant_mode_requires_annotation():
    t = Triple(pa("true"), pp("while i < 5 do { i := i + 1 }"), pa("i >= 5"))
    with pytest.raises(MissingInvariantError):
        prove_prhl(ProveRequest(t, loop_mode="invariant-annotations"))


def test_bad_annotation_yields_failed_with_certificate():
    t = Triple(
        pa("true"),
        pp("while i < 5 invariant x = 999 do { x := x + i; i := i + 1 }"),
        pa("x > 0 && i >= 5"),
    )
    res = prove_prhl(ProveRequest(t, loop_mode="invariant-annotations"))
    assert res.status == "failed" and not res.ok
    assert res.proof is not None
    bad = [s for s in res.sides if not s.ok]
    assert bad and bad[0].where == "loop exit: post side"


def test_semantically_false_triple_is_refuted():
    t = Triple(
        pa("x = 0 && i = 0"),
        pp("while i < 5 invariant true do { x := x + i; i := i + 1 }"),
        pa("x = 10 && i = 5"),
    )
    res = prove_prhl(
        ProveRequest(t, loop_mode="invariant-annotations", bounds=Bounds(12, 1000, 16))
    )
    assert res.status == "refuted"
    assert res.proof is None and res.sides == ()
    assert res.verdict.witness == (State(i=5, x=10), State(i=5, x=10))


def test_beta_mode_proves_with_bounded_sides():
    t = Triple(pa("x <= 1"), pp("while x = 0 do { x := x + 1 }"), pa("x = 1"))
    res = prove_prhl(ProveRequest(t, loop_mode="beta", bounds=Bounds(6, 2000, 4)))
    assert res.status == "proved-bounded" and res.ok
    # the pinned sequence entries leave only k, m and n to range: the loop
    # sides are exact, while the root's is flagged, since no beta code
    # under the bound shows that x >= 2 has no run
    assert all(s.verdict.is_valid for s in res.sides)
    assert [(s.where, s.verdict.flags) for s in res.sides] == [
        ("loop body: pre side", ()),
        ("loop exit: post side", ()),
        ("root: pre side", ("quantifier-bounded",)),
    ]
    rep = check_prhl(res.proof.to_proof(), oracle=BoundedOracle(Bounds(6, 2000, 4)))
    assert rep.accepted
    assert rep.bounded_flags == (
        "quantifier at node n1",
        "quantifier at node n2",
        "quantifier at node n4",
    )


def test_quantifier_budget_gives_unknown_status():
    t = Triple(pa("true"), pp("while 0 = 0 do { x := x + 1 }; x := 0"), pa("true"))
    res = prove_prhl(
        ProveRequest(t, loop_mode="beta", bounds=Bounds(2, 30, 4)),
        oracle=BudgetedOracle(Bounds(2, 30, 4), quantifier_budget=2),
    )
    assert res.status == "unknown" and not res.ok
    assert res.proof is not None
    assert any(s.verdict.reason == "quantifier-bounded" for s in res.sides)


def test_inconclusive_pre_check_is_noted():
    t = Triple(pa("x = 0"), pp("while 0 = 0 invariant true do { x := x + 1 }; x := 0"), pa("true"))
    res = prove_prhl(
        ProveRequest(t, loop_mode="invariant-annotations", bounds=Bounds(2, 30, 16))
    )
    assert "semantic pre-check inconclusive: step-budget-exhausted" in res.notes


def test_bogus_loop_mode_rejected():
    with pytest.raises(ValueError):
        prove_prhl(ProveRequest(T3, loop_mode="wpr"))
    assert LOOP_MODES == ("beta", "invariant-annotations")


# --- tree-to-cyclic transformation ---------------------------------------------


def test_transform_frozen_loop_example():
    res = prove_prhl(ProveRequest(T3, loop_mode="invariant-annotations"))
    cy = transform_to_cyclic(res.proof, Empty(), T3.post)
    assert [(nid, cy.nodes[nid].rule) for nid in cy.nodes] == [
        ("c1", "Cons"),
        ("c2", "While"),
        ("c3", "Cons"),
        ("c4", "Axiom"),
        ("c5", "Cons"),
        ("c6", "AssignSubst"),
        ("c7", "AssignSubst"),
        ("c8", "Cons"),
        ("c9", "OpenLeaf"),
    ]
    assert cy.backlinks == {"c9": "c2"}
    assert cy.nodes["c1"].triple == Triple(T3.pre, normalize_program(T3.prog), T3.post)
    assert cy.nodes["c9"].triple == cy.nodes["c2"].triple
    rep = check_cprhl(cy, bounds=Bounds(8, 10000, 16))
    assert rep.accepted and rep.global_status == "ok" and not rep.bounded
    # survives serialization
    again = parse_proof(serialize_proof(cy))
    assert check_cprhl(again, bounds=Bounds(8, 10000, 16)).accepted


def test_transform_straight_line_closes_with_axiom():
    t = Triple(pa("x = 2"), pp("x := x + 1; x := x * 2"), pa("x = 6"))
    res = prove_prhl(ProveRequest(t))
    cy = transform_to_cyclic(res.proof, Empty(), t.post)
    rules = {n.rule for n in cy.nodes.values()}
    assert "OpenLeaf" not in rules and cy.backlinks == {}
    assert check_cprhl(cy, bounds=Bounds(6, 1000, 16)).accepted
    assert cy.nodes[cy.root].triple == t


def test_transform_fragment_leaves_stay_open():
    # an axiom fragment continued by a nonempty program cannot close
    from prhl.certificates import PrhlNode

    frag = PrhlNode("Axiom", Triple(pa("x = 1"), Empty(), pa("x = 1")))
    cy = transform_to_cyclic(frag, pp("x := x + 1"), pa("x = 2"))
    assert len(cy.nodes) == 1
    only = next(iter(cy.nodes.values()))
    assert only.rule == "OpenLeaf"
    rep = check_cprhl(cy, bounds=Bounds(6, 1000, 16))
    assert not rep.accepted
    assert rep.global_status == "open-leaves" and rep.global_ids == ("c1",)


@given(SEEDS)
@settings(max_examples=30, deadline=None)
def test_prove_then_check_loop_free(seed):
    # wpr as the pre makes every loop-free triple provable; the checker
    # and the path-unrolling reference must both accept the transform
    rng = random.Random(seed)
    prog = normalize_program(gen_prog(rng, NAMES, 2, loops=False))
    post = pa(rng.choice(["x = 1", "i <= 1", "x = i", "i = 2"]))
    pre = wpr_formula(WprRequest(prog, post)).formula
    b = Bounds(3, 500, 16)
    res = prove_prhl(ProveRequest(Triple(pre, prog, post), bounds=b))
    assert res.status == "proved"
    assert check_prhl(res.proof.to_proof(), bounds=b).accepted
    cy = transform_to_cyclic(res.proof, Empty(), post)
    rep = check_cprhl(cy, bounds=b)
    assert rep.accepted and rep.global_status == "ok"
    assert unroll_global_ok(cy)


@given(SEEDS)
@settings(max_examples=10, deadline=None)
def test_transform_never_builds_progress_free_cycles(seed):
    rng = random.Random(seed)
    body = normalize_program(gen_prog(rng, NAMES, 1, loops=False))
    if isinstance(body, Empty):
        return
    from oracles import parse_bool_expr
    from prhl.syntax import While

    prog = While(parse_bool_expr("i < 2"), body, invariant=pa("true"))
    post = pa("true")
    res = prove_prhl(
        ProveRequest(Triple(pa("true"), prog, post), loop_mode="invariant-annotations",
                     bounds=Bounds(3, 500, 16))
    )
    if res.proof is None:
        return
    cy = transform_to_cyclic(res.proof, Empty(), post)
    status, _ = global_soundness(cy)
    assert status != "cons-cycle"
    assert unroll_global_ok(cy)
    assert len(cy.backlinks) >= 1
