"""Local rule checking and the global soundness condition."""

import pytest

from oracles import PrhlNode
from prhl.assertions import BoundedOracle
from prhl.certificates import (
    CyclicPreProof,
    PrhlProof,
    ProofNode,
    Triple,
    parse_proof,
)
from prhl.checker import check_cprhl, check_prhl, global_soundness
from prhl.semantics import Bounds
from prhl.syntax import parse_assertion as pa, parse_program as pp

B = Bounds(6, 2000, 16)


def triple(pre, prog, post):
    return Triple(pa(pre), pp(prog), pa(post))


# --- tree system ----------------------------------------------------------------


def test_axiom_and_assign_nodes():
    ok = PrhlNode("Axiom", triple("x = 1", "skip", "x = 1")).to_proof()
    assert check_prhl(ok, bounds=B).accepted
    bad = PrhlNode("Axiom", triple("x = 1", "skip", "x = 2")).to_proof()
    r = check_prhl(bad, bounds=B)
    assert not r.accepted and r.nodes["n1"].status == "rule-mismatch"

    assign = PrhlNode("Assign", triple("x + 1 = 2", "x := x + 1", "x = 2")).to_proof()
    assert check_prhl(assign, bounds=B).accepted
    wrong = PrhlNode("Assign", triple("x = 1", "x := x + 1", "x = 2")).to_proof()
    r = check_prhl(wrong, bounds=B)
    assert not r.accepted
    assert "Assign pre should be" in r.nodes["n1"].detail


def test_seq_node_checks_midpoint():
    left = PrhlNode("Assign", triple("x + 1 = 2", "x := x + 1", "x = 2"))
    right = PrhlNode("Assign", triple("x = 2", "x := x", "x = 2"))
    root = PrhlNode("Seq", triple("x + 1 = 2", "x := x + 1; x := x", "x = 2"), (left, right))
    assert check_prhl(root.to_proof(), bounds=B).accepted

    broken = PrhlNode(
        "Seq",
        triple("x + 1 = 2", "x := x + 1; x := x", "x = 2"),
        (left, PrhlNode("Assign", triple("x = 3", "x := x", "x = 2"))),
    )
    r = check_prhl(broken.to_proof(), bounds=B)
    assert not r.accepted
    assert "middle assertions differ" in r.nodes["n1"].detail


def test_cons_node_side_conditions():
    child = PrhlNode("Assign", triple("x + 1 = 2", "x := x + 1", "x = 2"))
    good = PrhlNode("Cons", triple("x <= 1", "x := x + 1", "x = 2"), (child,))
    assert check_prhl(good.to_proof(), bounds=B).accepted

    # x = 0 does not cover every store reaching the post
    bad = PrhlNode("Cons", triple("x = 0", "x := x + 1", "x = 2"), (child,))
    r = check_prhl(bad.to_proof(), bounds=B)
    assert not r.accepted
    nr = r.nodes["n1"]
    assert nr.status == "side-condition"
    assert "pre side" in nr.detail and "fails at {x: 1}" in nr.detail


def test_cons_node_bounded_sides_stay_ok():
    # the oracle cannot decide the side, so the node passes with a flag
    child = PrhlNode("Assign", triple("x + 1 = 2", "x := x + 1", "x = 2"))
    root = PrhlNode("Cons", triple("exists y. x = y * y + 20", "x := x + 1", "x = 2"), (child,))
    r = check_prhl(root.to_proof(), oracle=BoundedOracle(Bounds(6, 2000, 4)), bounds=B)
    assert r.accepted
    assert r.bounded
    assert r.bounded_flags == ("quantifier at node n1",)
    # exists y. x = y + 20 is 20 <= x, which x = 1 fails: a real failure
    root = PrhlNode("Cons", triple("exists y. x = y + 20", "x := x + 1", "x = 2"), (child,))
    r = check_prhl(root.to_proof(), oracle=BoundedOracle(Bounds(6, 2000, 4)), bounds=B)
    assert not r.accepted and not r.bounded
    assert r.nodes["n1"].status == "side-condition" and "fails at {x: 1}" in r.nodes["n1"].detail


def test_or_and_while_nodes():
    guard_pre = triple("x = 0 || x = 1", "(x := 0 + x := 1)", "x <= 1")
    orn = PrhlNode(
        "Or",
        guard_pre,
        (
            PrhlNode("Assign", triple("x = 0 || x = 1", "x := 0", "x <= 1")),
            PrhlNode("Assign", triple("x = 0 || x = 1", "x := 1", "x <= 1")),
        ),
    )
    r = check_prhl(orn.to_proof(), oracle=BoundedOracle(B))
    assert not r.accepted  # Or premises must share pre and post exactly
    fixed = PrhlNode(
        "Or",
        triple("0 <= 1", "(x := 0 + x := 1)", "x <= 1"),
        (
            PrhlNode("Assign", triple("0 <= 1", "x := 0", "x <= 1")),
            PrhlNode("Assign", triple("1 <= 1", "x := 1", "x <= 1")),
        ),
    )
    r2 = check_prhl(fixed.to_proof(), bounds=B)
    assert not r2.accepted  # right premise pre differs from the shared pre

    body = PrhlNode(
        "Cons",
        triple("x = 0 -> true", "x := x + 1", "true"),
        (PrhlNode("Assign", triple("true", "x := x + 1", "true")),),
    )
    w = PrhlNode("While", triple("true", "while x = 0 do { x := x + 1 }", "!(x = 0) -> true"), (body,))
    assert check_prhl(w.to_proof(), bounds=B).accepted
    w_bad = PrhlNode("While", triple("true", "while x = 0 do { x := x + 1 }", "true"), (body,))
    r3 = check_prhl(w_bad.to_proof(), bounds=B)
    assert not r3.accepted
    assert "conclusion post should be !guard -> pre" in r3.nodes["n1"].detail


def test_corpus_tree_certificate_accepted_clean():
    with open("corpus/ex3_prhl.json") as fh:
        proof = parse_proof(fh.read())
    r = check_prhl(proof, bounds=Bounds(8, 10000, 16))
    assert r.accepted and not r.bounded
    assert all(nr.ok for nr in r.nodes.values())


# --- cyclic system ----------------------------------------------------------------


def test_corpus_literal_transcription_rejected():
    # a tree proof transcribed node-for-node is not a cyclic proof: the
    # continuation bookkeeping shifts every rule's shape
    with open("corpus/ex4_literal.cprhl.json") as fh:
        proof = parse_proof(fh.read())
    r = check_cprhl(proof, bounds=Bounds(8, 10000, 16))
    assert not r.accepted
    assert r.global_status == "ok"
    failing = {nid: nr.status for nid, nr in r.nodes.items() if not nr.ok}
    assert failing == {
        "n1": "rule-mismatch",
        "n3": "rule-mismatch",
        "n4": "rule-mismatch",
        "n6": "rule-mismatch",
        "n7": "rule-mismatch",
        "n8": "side-condition",
    }
    assert "fails at {i: 0, x: 0}" in r.nodes["n8"].detail


def test_cyclic_axiom_and_assign_subst():
    proof = CyclicPreProof(
        "c1",
        {
            "c1": ProofNode("AssignSubst", triple("x + 1 = 1", "x := x + 1", "x = 1"), ("c2",)),
            "c2": ProofNode("Axiom", triple("x = 1", "skip", "x = 1"), ()),
        },
        {},
    )
    r = check_cprhl(proof, bounds=B)
    assert r.accepted and r.global_status == "ok"


def test_assign_fresh_orientations():
    # premise pre in the default reading: x = E[x := x'] && P[x := x'];
    # the strict flag instead demands x' = E[x := x'] on the left
    prem_default = "x = x_p1 + 1 && x_p1 = 1"
    prem_strict = "x_p1 = x_p1 + 1 && x_p1 = 1"

    def node_ok(premise_pre, strict):
        proof = CyclicPreProof(
            "c1",
            {
                "c1": ProofNode(
                    "AssignFresh", triple("x = 1", "x := x + 1", "x = 2"), ("c2",), fresh="x_p1"
                ),
                "c2": ProofNode("OpenLeaf", triple(premise_pre, "skip", "x = 2"), ()),
            },
            {},
        )
        return check_cprhl(proof, bounds=B, strict_fig4_assign=strict).nodes["c1"].ok

    assert node_ok(prem_default, strict=False)
    assert not node_ok(prem_strict, strict=False)
    assert node_ok(prem_strict, strict=True)
    assert not node_ok(prem_default, strict=True)


def test_assign_fresh_full_proof_accepted():
    # a closable instance: the old value is unconstrained, so the premise
    # pre collapses to the assigned equation
    proof = CyclicPreProof(
        "c1",
        {
            "c1": ProofNode("AssignFresh", triple("true", "x := 2", "x = 2"), ("c2",), fresh="x_p1"),
            "c2": ProofNode("Cons", triple("x = 2 && true", "skip", "x = 2"), ("c3",)),
            "c3": ProofNode("Axiom", triple("x = 2", "skip", "x = 2"), ()),
        },
        {},
    )
    r = check_cprhl(proof, bounds=B)
    assert r.accepted and r.global_status == "ok" and not r.bounded


def test_assign_fresh_rejects_used_name():
    proof = CyclicPreProof(
        "c1",
        {
            "c1": ProofNode("AssignFresh", triple("x = 1", "x := x + 1", "x = 2"), ("c2",), fresh="x"),
            "c2": ProofNode("Axiom", triple("x = 2", "skip", "x = 2"), ()),
        },
        {},
    )
    r = check_cprhl(proof, bounds=B)
    assert not r.accepted
    assert "not fresh" in r.nodes["c1"].detail


def test_cyclic_while_node_shape():
    w = "while x = 0 do { x := 1 }"
    proof = CyclicPreProof(
        "c1",
        {
            "c1": ProofNode("While", triple("true", w, "x = 1"), ("c2", "c3")),
            "c2": ProofNode("Cons", triple("!(x = 0) -> true", "skip", "x = 1"), ("c4",)),
            "c3": ProofNode(
                "AssignSubst", triple("x = 0 -> true", f"x := 1; {w}", "x = 1"), ("c5",)
            ),
            "c4": ProofNode("Axiom", triple("x = 1", "skip", "x = 1"), ()),
            "c5": ProofNode("OpenLeaf", triple("true", w, "x = 1"), ()),
        },
        {"c5": "c1"},
    )
    r = check_cprhl(proof, bounds=B)
    assert not r.accepted  # c3: conclusion pre must be the premise pre substituted
    fixed = CyclicPreProof(
        "c1",
        dict(
            proof.nodes,
            c3=ProofNode("Cons", triple("x = 0 -> true", f"x := 1; {w}", "x = 1"), ("c6",)),
            c6=ProofNode("AssignSubst", triple("true", f"x := 1; {w}", "x = 1"), ("c5",)),
        ),
        {"c5": "c1"},
    )
    r2 = check_cprhl(fixed, bounds=B)
    assert r2.accepted and r2.global_status == "ok"


def test_rule_needs_a_program_step():
    proof = CyclicPreProof(
        "c1",
        {
            "c1": ProofNode("AssignSubst", triple("true", "skip", "true"), ("c2",)),
            "c2": ProofNode("Axiom", triple("true", "skip", "true"), ()),
        },
        {},
    )
    r = check_cprhl(proof, bounds=B)
    assert not r.accepted
    assert "needs a program step" in r.nodes["c1"].detail


# --- global condition ---------------------------------------------------------------


def dummy(rule, kids=()):
    return ProofNode(rule, triple("true", "skip", "true"), tuple(kids))


def test_global_rejects_unlinked_open_leaf():
    proof = CyclicPreProof("c1", {"c1": dummy("Cons", ("c2",)), "c2": dummy("OpenLeaf")}, {})
    assert global_soundness(proof) == ("open-leaves", ("c2",))


def test_global_rejects_cons_only_cycle():
    proof = CyclicPreProof(
        "c1", {"c1": dummy("Cons", ("c2",)), "c2": dummy("OpenLeaf")}, {"c2": "c1"}
    )
    status, ids = global_soundness(proof)
    assert status == "cons-cycle"
    assert set(ids) == {"c1", "c2"}


def test_global_accepts_progress_guarded_cycle():
    proof = CyclicPreProof(
        "c1",
        {"c1": dummy("While", ("c2", "c3")), "c2": dummy("Axiom"), "c3": dummy("OpenLeaf")},
        {"c3": "c1"},
    )
    assert global_soundness(proof) == ("ok", ())


# --- every rule-mismatch message ------------------------------------------------------

# valid certificates, one per rule shape: node id -> (rule, pre, prog, post, children, fresh)
_VALID = {
    "cons": {
        "n1": ("Cons", "x <= 1", "skip", "x = 1", ("n2",), None),
        "n2": ("Axiom", "x = 1", "skip", "x = 1", (), None),
    },
    "seq": {
        "n1": ("Seq", "x + 1 = 2", "x := x + 1; x := x", "x = 2", ("n2", "n3"), None),
        "n2": ("Assign", "x + 1 = 2", "x := x + 1", "x = 2", (), None),
        "n3": ("Assign", "x = 2", "x := x", "x = 2", (), None),
    },
    "or": {
        "n1": ("Or", "y = 1", "x := 0 + x := 1", "y = 1", ("n2", "n3"), None),
        "n2": ("Assign", "y = 1", "x := 0", "y = 1", (), None),
        "n3": ("Assign", "y = 1", "x := 1", "y = 1", (), None),
    },
    "while": {
        "n1": ("While", "y = 1", "while x = 0 do { x := x + 1 }", "x != 0 -> y = 1", ("n2",), None),
        "n2": ("Cons", "x = 0 -> y = 1", "x := x + 1", "y = 1", ("n3",), None),
        "n3": ("Assign", "y = 1", "x := x + 1", "y = 1", (), None),
    },
    "assign-subst": {
        "n1": ("AssignSubst", "x + 1 = 1", "x := x + 1; y := 0", "x = 1", ("n2",), None),
        "n2": ("OpenLeaf", "x = 1", "y := 0", "x = 1", (), None),
    },
    "assign-fresh": {
        "n1": ("AssignFresh", "x = 1", "x := x + 1; y := 0", "x = 2", ("n2",), "x_p1"),
        "n2": ("OpenLeaf", "x = x_p1 + 1 && x_p1 = 1", "y := 0", "x = 2", (), None),
    },
    "cyclic-or": {
        "n1": ("Or", "y = 1", "(x := 0 + x := 1); y := 0", "y = 0", ("n2", "n3"), None),
        "n2": ("OpenLeaf", "y = 1", "x := 0; y := 0", "y = 0", (), None),
        "n3": ("OpenLeaf", "y = 1", "x := 1; y := 0", "y = 0", (), None),
    },
    "cyclic-while": {
        "n1": ("While", "y = 1", "while x = 0 do { x := 1 }; y := 0", "y = 0", ("n2", "n3"), None),
        "n2": ("OpenLeaf", "x != 0 -> y = 1", "y := 0", "y = 0", (), None),
        "n3": ("OpenLeaf", "x = 0 -> y = 1", "x := 1; while x = 0 do { x := 1 }; y := 0", "y = 0", (), None),
    },
}


def _certificate(system, base, change=None):
    """The valid certificate ``base``, with one field of one node
    replaced when ``change`` = (node id, field, value) is given."""
    nodes = {}
    for nid, (rule, pre, prog, post, kids, fresh) in _VALID[base].items():
        fields = {"rule": rule, "pre": pre, "prog": prog, "post": post, "fresh": fresh}
        if change is not None and change[0] == nid:
            fields[change[1]] = change[2]
        t = triple(fields["pre"], fields["prog"], fields["post"])
        nodes[nid] = ProofNode(fields["rule"], t, kids, fields["fresh"])
    return PrhlProof("n1", nodes) if system == "prhl" else CyclicPreProof("n1", nodes, {})


def _check(system, proof):
    return check_prhl(proof, bounds=B) if system == "prhl" else check_cprhl(proof, bounds=B)


# (system, valid certificate, (node, field, new value), node reporting, detail)
MISMATCHES = [
    *(
        case
        for system in ("prhl", "cprhl")
        for case in (
            (system, "cons", ("n2", "prog", "x := 1"), "n2", "Axiom concludes the empty program"),
            (system, "cons", ("n2", "post", "x = 2"), "n2", "Axiom pre and post must match"),
            (system, "cons", ("n2", "prog", "x := x"), "n1", "Cons premise must share the conclusion program"),
        )
    ),
    ("prhl", "seq", ("n2", "prog", "skip"), "n2", "Assign concludes a single assignment"),
    ("prhl", "seq", ("n2", "pre", "x = 1"), "n2", "Assign pre should be x + 1 = 2"),
    ("prhl", "seq", ("n1", "prog", "x := x; x := x + 1"), "n1", "premise programs do not compose to the conclusion"),
    ("prhl", "seq", ("n1", "pre", "x = 1"), "n1", "left premise pre differs from conclusion pre"),
    ("prhl", "seq", ("n1", "post", "x = 3"), "n1", "right premise post differs from conclusion post"),
    ("prhl", "seq", ("n2", "post", "x = 3"), "n1", "middle assertions differ: x = 3 vs x = 2"),
    ("prhl", "or", ("n1", "prog", "x := 0"), "n1", "Or concludes a choice program"),
    ("prhl", "or", ("n2", "prog", "x := 2"), "n1", "premise programs are not the two branches"),
    ("prhl", "or", ("n3", "post", "y = 2"), "n1", "Or premises must share pre and post"),
    ("prhl", "while", ("n1", "prog", "x := x + 1"), "n1", "While concludes a loop"),
    ("prhl", "while", ("n2", "prog", "x := x + 2"), "n1", "premise program must be the loop body"),
    ("prhl", "while", ("n2", "pre", "y = 1"), "n1", "premise pre should be guard -> conclusion pre"),
    ("prhl", "while", ("n2", "post", "y = 2"), "n1", "premise post should be the conclusion pre"),
    ("prhl", "while", ("n1", "post", "y = 1"), "n1", "conclusion post should be !guard -> pre"),
    ("cprhl", "assign-subst", ("n1", "prog", "skip"), "n1", "AssignSubst needs a program step to consume"),
    ("cprhl", "assign-subst", ("n1", "prog", "(x := 1 + x := 2); y := 0"), "n1", "AssignSubst concludes an assignment-headed program"),
    ("cprhl", "assign-subst", ("n2", "prog", "y := 1"), "n1", "premise program must be the continuation"),
    ("cprhl", "assign-subst", ("n2", "post", "x = 2"), "n1", "premise must share the conclusion post"),
    ("cprhl", "assign-subst", ("n1", "pre", "x = 1"), "n1", "conclusion pre should be x + 1 = 1"),
    ("cprhl", "assign-fresh", ("n1", "prog", "while x = 0 do { x := 1 }; y := 0"), "n1", "AssignFresh concludes an assignment-headed program"),
    ("cprhl", "assign-fresh", ("n1", "fresh", None), "n1", "AssignFresh needs a fresh variable name"),
    ("cprhl", "assign-fresh", ("n1", "fresh", "y"), "n1", "y is not fresh for the conclusion"),
    ("cprhl", "assign-fresh", ("n2", "pre", "x_p1 = 1"), "n1", "premise pre should be x = x_p1 + 1 && x_p1 = 1"),
    ("cprhl", "cyclic-or", ("n1", "prog", "x := 0; y := 0"), "n1", "Or concludes a choice-headed program"),
    ("cprhl", "cyclic-or", ("n1", "prog", "skip"), "n1", "Or needs a program step to consume"),
    ("cprhl", "cyclic-or", ("n3", "prog", "x := 1"), "n1", "premise program must be branch; continuation"),
    ("cprhl", "cyclic-or", ("n2", "pre", "y = 2"), "n1", "Or premises must share pre and post"),
    ("cprhl", "cyclic-while", ("n1", "prog", "x := 1; y := 0"), "n1", "While concludes a loop-headed program"),
    ("cprhl", "cyclic-while", ("n2", "prog", "skip"), "n1", "exit premise program must be the continuation"),
    ("cprhl", "cyclic-while", ("n2", "pre", "y = 1"), "n1", "exit premise pre should be !guard -> pre"),
    ("cprhl", "cyclic-while", ("n2", "post", "y = 1"), "n1", "exit premise must share the conclusion post"),
    ("cprhl", "cyclic-while", ("n3", "prog", "x := 1; y := 0"), "n1", "loop premise program must be body; loop; continuation"),
    ("cprhl", "cyclic-while", ("n3", "pre", "y = 1"), "n1", "loop premise pre should be guard -> pre"),
    ("cprhl", "cyclic-while", ("n3", "post", "y = 1"), "n1", "loop premise must share the conclusion post"),
]


@pytest.mark.parametrize("system, base, change, at, detail", MISMATCHES)
def test_rule_mismatch_messages(system, base, change, at, detail):
    assert all(r.ok for r in _check(system, _certificate(system, base)).nodes.values())
    r = _check(system, _certificate(system, base, change)).nodes[at]
    assert (r.status, r.detail) == ("rule-mismatch", detail)


@pytest.mark.parametrize("system, rule", [("prhl", "OpenLeaf"), ("prhl", "AssignSubst"), ("cprhl", "Seq"), ("cprhl", "Assign")])
def test_rule_outside_the_system_raises(system, rule):
    proof = _certificate(system, "assign-subst", ("n1", "rule", rule))
    with pytest.raises(AssertionError, match=f"unreachable rule {rule}"):
        _check(system, proof)
