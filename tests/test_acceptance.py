"""Acceptance gate: each numbered criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines.
"""

import itertools
import random
from pathlib import Path

import pytest

import oracles
from oracles import assert_holds, decode_sequence, enumerate_states, eval_bool, eval_expr
from prhl.assertions import BoundedOracle, eval_assertion
from prhl.certificates import CyclicPreProof, ProofNode, Triple, parse_proof
from prhl.checker import check_cprhl, check_prhl, global_soundness, guard_implies
from prhl.prover import ProveRequest, prove_prhl, transform_to_cyclic
from prhl.semantics import (
    Bounds,
    State,
    check_triple,
    run_all,
)
from prhl.syntax import (
    And,
    Assign,
    Bool,
    Choice,
    Empty,
    Eq,
    Or,
    Var,
    While,
    expr_vars,
    free_vars,
    fresh_var,
    normalize_program,
    parse_assertion,
    parse_program,
    print_program,
    prog_vars,
    seq_of,
    subst,
    subst_expr,
)
from prhl.wp import WprRequest, encode_sequence, wpr_formula

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
NAMES = ["x", "y"]


def _line(num, failures):
    if failures:
        print(f"criterion {num}: FAIL ({failures[0]}; {len(failures)} issue(s))")
    else:
        print(f"criterion {num}: PASS")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:5])


# --- 1: worked loop example, certificate and semantics agree ------------------------


def test_criterion_1():
    """The annotated-loop tree certificate is accepted with no bounded
    flags, and its root triple is semantically valid at domain 12."""
    failures = []
    b = Bounds(domain_max=12, step_bound=10000, quant_bound=16)
    proof = parse_proof((CORPUS / "ex3_prhl.json").read_text())
    rep = check_prhl(proof, bounds=b)
    if not rep.accepted:
        failures.append("certificate rejected")
    if rep.bounded_flags:
        failures.append(f"bounded flags {rep.bounded_flags}")
    t = proof.nodes[proof.root].triple
    v = check_triple("partial-reverse", t.pre, t.prog, t.post, b)
    if not (v.is_valid and not v.flags):
        failures.append(f"triple verdict {v.kind} flags {v.flags}")
    _line(1, failures)


# --- 2: flawed cyclic transcription is caught, root triple refuted ------------------


def test_criterion_2():
    """The literal cyclic transcription is rejected at its Cons node with
    the expected side-condition witness, and the root triple itself has a
    semantic counterexample sigma = sigma' = {x:10, i:5}."""
    failures = []
    proof = parse_proof((CORPUS / "ex4_literal.cprhl.json").read_text())
    rep = check_cprhl(proof, bounds=Bounds(6, 2000, 16))
    if rep.accepted:
        failures.append("flawed certificate accepted")
    n8 = rep.nodes["n8"]
    if proof.nodes["n8"].rule != "Cons":
        failures.append(f"n8 rule is {proof.nodes['n8'].rule}")
    if n8.status != "side-condition":
        failures.append(f"n8 status {n8.status}")
    if "fails at {i: 0, x: 0}" not in n8.detail:
        failures.append(f"n8 detail {n8.detail!r}")
    root = proof.nodes[proof.root].triple
    v = check_triple("partial-reverse", root.pre, root.prog, root.post, Bounds(12, 1000, 16))
    want = (State(i=5, x=10), State(i=5, x=10))
    if not v.is_invalid or v.witness != want:
        failures.append(f"root verdict {v.kind} witness {v.witness}")
    _line(2, failures)


# --- 3: prover soundness sweep -------------------------------------------------------


def test_criterion_3():
    """Over 500 random programs, no certificate that the checker accepts
    without truncation flags has a semantically refuted root triple."""
    counts, violations = oracles.sweep(40300, 500, Bounds(domain_max=6, step_bound=500, quant_bound=4), quantifier_budget=4)
    failures = [f"case {i}: accepted but refuted, witness {w}" for i, _, w in violations]
    if counts["clean"] < 25:
        failures.append(f"only {counts['clean']} cleanly accepted certificates; sweep is vacuous")
    _line(3, failures)


# --- 4: weakest pre-formula triples are valid and provable ---------------------------

B4 = Bounds(domain_max=6, step_bound=500, quant_bound=16)
_CORPUS4 = None


def loopfree_corpus():
    """200 random loop-free programs with quantifier-free posts."""
    global _CORPUS4
    if _CORPUS4 is None:
        rng = random.Random(40400)
        _CORPUS4 = [
            (
                oracles.gen_prog(rng, NAMES, 3, const_max=3, loops=False),
                oracles.gen_assertion(rng, NAMES, 2, const_max=3),
            )
            for _ in range(200)
        ]
    return _CORPUS4


_CERTS4 = []


def proved_corpus():
    if not _CERTS4:
        for prog, post in loopfree_corpus():
            r = wpr_formula(WprRequest(prog, post))
            t = Triple(r.formula, prog, post)
            res = prove_prhl(ProveRequest(t, "beta", B4), BoundedOracle(B4))
            _CERTS4.append((t, r, res))
    return _CERTS4


def test_criterion_4():
    """For each corpus program, the computed pre-formula makes a valid
    triple, the prover proves it, and the checker accepts the proof."""
    failures = []
    for i, (t, r, res) in enumerate(proved_corpus()):
        if not r.exact:
            failures.append(f"case {i}: formula not exact")
            continue
        v = check_triple("partial-reverse", t.pre, t.prog, t.post, B4)
        if not (v.is_valid and not v.flags):
            failures.append(f"case {i}: verdict {v.kind}")
            continue
        if res.status != "proved":
            failures.append(f"case {i}: prover status {res.status}")
            continue
        rep = check_prhl(res.proof, BoundedOracle(B4))
        if not rep.accepted or rep.bounded_flags:
            failures.append(f"case {i}: certificate not cleanly accepted")
    _line(4, failures)


# --- 5: ordinary-to-cyclic transformation stays checkable ----------------------------


def test_criterion_5():
    """Every transformed certificate passes the cyclic checker including
    the global condition; loop-bearing inputs gain a back-link; no
    transform ever produces a cycle of Cons nodes only."""
    failures = []
    cases = [(t, res.proof, B4) for (t, _, res) in proved_corpus() if res.proof is not None]
    ex3 = parse_proof((CORPUS / "ex3_prhl.json").read_text())
    cases.append((ex3.nodes[ex3.root].triple, ex3, Bounds(6, 2000, 16)))
    for i, (t, proof, b) in enumerate(cases):
        cyc = transform_to_cyclic(proof, Empty(), t.post)
        rep = check_cprhl(cyc, BoundedOracle(b))
        status, ids = global_soundness(cyc)
        if not rep.accepted:
            failures.append(f"case {i}: transform rejected")
        if status != "ok":
            failures.append(f"case {i}: global condition {status} {ids}")
        if "while " in print_program(t.prog) and not cyc.backlinks:
            failures.append(f"case {i}: loop program transformed without back-links")
    _line(5, failures)


# --- 6: every rule strictly shrinks counterexamples ----------------------------------

D6 = Bounds(domain_max=4, step_bound=200, quant_bound=16)
BASE6 = None


def _base_states():
    global BASE6
    if BASE6 is None:
        BASE6 = list(enumerate_states(NAMES, D6.domain_max))
    return BASE6


def _minw(pre, prog, post, states):
    return oracles.min_triple_witness(pre, prog, post, states, D6.step_bound, D6.quant_bound)


def _gen_norm_prog(rng, depth, loops=True):
    # rule premises and conclusions are compared in program normal form,
    # so witness lengths are measured on normalized fragments as well
    return normalize_program(oracles.gen_prog(rng, NAMES, depth, const_max=3, loops=loops))


def _gen_cons(rng):
    p = oracles.gen_assertion(rng, NAMES, 2)
    q = oracles.gen_assertion(rng, NAMES, 2)
    c = _gen_norm_prog(rng, 2)
    w = _minw(p, c, q, _base_states())
    if w is None:
        return None
    stronger = And(p, oracles.gen_assertion(rng, NAMES, 1))
    weaker = Or(q, oracles.gen_assertion(rng, NAMES, 1))
    wp = _minw(stronger, c, weaker, _base_states())
    return (w[0], None if wp is None else wp[0])


def _gen_assign_subst(rng):
    qp = oracles.gen_assertion(rng, NAMES, 2)
    q = oracles.gen_assertion(rng, NAMES, 2)
    x = rng.choice(NAMES)
    e = oracles.gen_expr(rng, NAMES, 2)
    cont = _gen_norm_prog(rng, 2)
    w = _minw(subst(qp, [(x, e)]), seq_of(Assign(x, e), cont), q, _base_states())
    if w is None:
        return None
    ext = list(dict.fromkeys(_base_states() + [s.set(x, eval_expr(e, s)) for s in _base_states()]))
    wp = _minw(qp, cont, q, ext)
    return (w[0], None if wp is None else wp[0])


def _gen_assign_fresh(rng):
    p = oracles.gen_assertion(rng, NAMES, 2)
    q = oracles.gen_assertion(rng, NAMES, 2)
    x = rng.choice(NAMES)
    e = oracles.gen_expr(rng, NAMES, 2)
    cont = _gen_norm_prog(rng, 2)
    w = _minw(p, seq_of(Assign(x, e), cont), q, _base_states())
    if w is None:
        return None
    used = prog_vars(cont) | free_vars(p) | free_vars(q) | expr_vars(e) | {x}
    xp = fresh_var(used, x)
    prem_pre = And(Bool(Eq(Var(x), subst_expr(e, {x: Var(xp)}))), subst(p, [(x, Var(xp))]))
    ext = list(
        dict.fromkeys(
            _base_states()
            + [s.set(x, eval_expr(e, s)).set(xp, s.get(x)) for s in _base_states()]
        )
    )
    wp = _minw(prem_pre, cont, q, ext)
    return (w[0], None if wp is None else wp[0])


def _gen_or(rng):
    p = oracles.gen_assertion(rng, NAMES, 2)
    q = oracles.gen_assertion(rng, NAMES, 2)
    left = _gen_norm_prog(rng, 2)
    right = _gen_norm_prog(rng, 2)
    cont = _gen_norm_prog(rng, 1)
    w = _minw(p, seq_of(Choice(left, right), cont), q, _base_states())
    if w is None:
        return None
    best = None
    for branch in (left, right):
        wp = _minw(p, seq_of(branch, cont), q, _base_states())
        if wp is not None and (best is None or wp[0] < best):
            best = wp[0]
    return (w[0], best)


def _gen_while(rng):
    p = oracles.gen_assertion(rng, NAMES, 2)
    q = oracles.gen_assertion(rng, NAMES, 2)
    guard = oracles.gen_bool(rng, NAMES, 1)
    body = _gen_norm_prog(rng, 2, loops=False)
    cont = _gen_norm_prog(rng, 1)
    loop = While(guard, body)
    concl = seq_of(loop, cont)
    loop_prem = seq_of(body, seq_of(loop, cont))
    # a random guard can diverge with ever-growing stores; keep only
    # instances whose runs settle, so every witness length is exact
    for prog in (concl, cont, loop_prem):
        if any(run_all(prog, s, 24).exhausted for s in _base_states()):
            return None
    w = _minw(p, concl, q, _base_states())
    if w is None:
        return None
    best = None
    premises = (
        (guard_implies(guard, p, negate=True), cont),
        (guard_implies(guard, p), loop_prem),
    )
    for pre, prog in premises:
        wp = _minw(pre, prog, q, _base_states())
        if wp is not None and (best is None or wp[0] < best):
            best = wp[0]
    return (w[0], best)


_DESCENT = {
    "Cons": (46001, _gen_cons, "<="),
    "AssignSubst": (46002, _gen_assign_subst, "<"),
    "AssignFresh": (46003, _gen_assign_fresh, "<"),
    "Or": (46004, _gen_or, "<"),
    "While": (46005, _gen_while, "<"),
}


def test_criterion_6():
    """For each rule over invalid conclusions with minimal witness length
    n, some premise has a witness of length < n (<= n for Cons); Axiom
    conclusions are always valid."""
    failures = []
    for rule, (seed, gen, rel) in _DESCENT.items():
        rng = random.Random(seed)
        got = 0
        for _ in range(6000):
            if got >= 100:
                break
            out = gen(rng)
            if out is None:
                continue
            got += 1
            n, m = out
            if m is None:
                failures.append(f"{rule}: premise has no witness (conclusion n={n})")
            elif rel == "<" and not m < n:
                failures.append(f"{rule}: premise witness {m} not < {n}")
            elif rel == "<=" and not m <= n:
                failures.append(f"{rule}: premise witness {m} not <= {n}")
        if got < 100:
            failures.append(f"{rule}: only {got} invalid conclusions generated")
    rng = random.Random(46000)
    for _ in range(100):
        q = oracles.gen_assertion(rng, NAMES, 2)
        v = check_triple("partial-reverse", q, Empty(), q, Bounds(4, 10, 16))
        if not v.is_valid:
            failures.append(f"Axiom conclusion invalid for {q}")
    _line(6, failures)


# --- 7: pre-formulas match enumerated transformers; sequence codec round-trips -------


def test_criterion_7():
    """Loop-free pre-formulas agree exactly with the enumerated weakest
    pre set, and the arithmetic sequence codec round-trips every sequence
    over {0,1,2} of length at most 3."""
    failures = []
    for i, (prog, post) in enumerate(loopfree_corpus()):
        r = wpr_formula(WprRequest(prog, post))
        want = oracles.transformer_set(
            "wpr", prog, lambda s: assert_holds(post, s, 16), B4, extra_vars=NAMES
        )
        if want.truncated:
            failures.append(f"case {i}: transformer truncated")
            continue
        names = sorted(prog_vars(prog) | set(NAMES))
        got = {
            s
            for s in enumerate_states(names, B4.domain_max)
            if assert_holds(r.formula, s, 16)
        }
        if got != want.states:
            failures.append(f"case {i}: formula set differs from enumerated set")
    for length in range(4):
        for vs in itertools.product((0, 1, 2), repeat=length):
            n, m = encode_sequence(list(vs))
            if decode_sequence(n, m, length) != list(vs):
                failures.append(f"round-trip failed for {vs}")
    _line(7, failures)


@pytest.mark.slow
def test_criterion_7_beta_loop():
    """A one-iteration loop's quantified loop formula is semantically
    confirmed against the enumerated set, with quantifier bounds derived
    from the encodings of the loop's actual traces."""
    failures = []
    prog = parse_program("while x = 0 do { x := x + 1 }")
    post = parse_assertion("x = 1")
    b = Bounds(domain_max=4, step_bound=200, quant_bound=16)
    want = oracles.transformer_set(
        "wpr", prog, lambda s: assert_holds(post, s, 16), b, extra_vars=["x"]
    )
    qb = 2
    for s in enumerate_states(["x"], b.domain_max):
        trace = [s]
        cur = s
        while eval_bool(prog.guard, cur) and len(trace) <= 8:
            finals = run_all(prog.body, cur, 100).finals
            cur = next(iter(finals))  # body is deterministic
            trace.append(cur)
        if eval_bool(prog.guard, cur):
            continue  # no terminating run contributes no bound
        vals = [t.get("x") for t in trace]
        n, m = encode_sequence(vals)
        qb = max(qb, n, m, len(vals) - 1)
    qb += 2
    r = wpr_formula(WprRequest(prog, post))
    got = {
        s
        for s in enumerate_states(["x"], b.domain_max)
        if assert_holds(r.formula, s, qb)
    }
    if got != want.states:
        failures.append(f"formula set {got} differs from enumerated {want.states} at bound {qb}")
    _line("7 (beta loop)", failures)


# --- 8: global condition agrees with the path-unrolling reference --------------------


def test_criterion_8():
    """The global checker matches the unrolling reference on random
    pre-proof graphs, rejects a two-node Cons cycle, and accepts a cycle
    guarded by a While node."""
    failures = []
    rng = random.Random(40800)
    cyclic_seen = 0
    for i in range(200):
        proof = oracles.gen_pre_proof(rng, rng.randint(2, 12))
        status, _ = global_soundness(proof)
        if (status == "ok") != oracles.unroll_global_ok(proof):
            failures.append(f"graph {i}: checker and reference disagree")
        if proof.backlinks:
            cyclic_seen += 1
    if cyclic_seen < 20:
        failures.append(f"only {cyclic_seen} cyclic graphs generated")
    dummy = Triple(parse_assertion("true"), parse_program("skip"), parse_assertion("true"))

    def node(rule, kids=()):
        return ProofNode(rule, dummy, tuple(kids))

    cons_cycle = CyclicPreProof(
        "c1",
        {"c1": node("Cons", ("c2",)), "c2": node("OpenLeaf")},
        {"c2": "c1"},
    )
    if global_soundness(cons_cycle)[0] != "cons-cycle":
        failures.append("Cons-only cycle not rejected")
    guarded = CyclicPreProof(
        "c1",
        {"c1": node("While", ("c2", "c3")), "c2": node("Axiom"), "c3": node("OpenLeaf")},
        {"c3": "c1"},
    )
    if global_soundness(guarded) != ("ok", ()):
        failures.append("While-guarded cycle rejected")
    _line(8, failures)


# --- 9: substitution agrees with state update -----------------------------------------


def test_criterion_9():
    """P[x := E] at s evaluates exactly as P at s[x := E(s)], including
    the bounded-quantifier flag, over 1000 random instances."""
    failures = []
    rng = random.Random(40900)
    names = ["x", "y", "z"]
    for i in range(1000):
        a = oracles.gen_assertion(rng, names, 3, quant=True)
        e = oracles.gen_expr(rng, names, 2)
        x = rng.choice(names)
        s = oracles.gen_state(rng, names, 5)
        lhs = eval_assertion(subst(a, [(x, e)]), s, 12)
        rhs = eval_assertion(a, s.set(x, eval_expr(e, s)), 12)
        if lhs != rhs:
            failures.append(f"instance {i}: {lhs} != {rhs}")
    _line(9, failures)
