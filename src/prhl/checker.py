"""Certificate checking for the tree-shaped and cyclic proof systems.

Rule applications are checked structurally: programs are compared in
sequencing normal form and assertions after connective canonicalization,
with no semantic reasoning.  The only semantic obligations are the two
side conditions of a Cons step,

    premise-pre  |=  conclusion-pre
    conclusion-post  |=  premise-post

which are discharged through a ``BoundedOracle``.  An Invalid side
condition rejects the certificate with the counterexample store; a side
condition that is only bound-relative (Valid with flags, or Unknown
because a quantifier bound was reached) keeps the node ok but marks the
overall answer as bounded, so a clean accept means every obligation was
discharged exactly.

Both systems are checked by one pass over the nodes in id order, with
one rule table: Axiom and Cons are the same rule in both, the tree
system's Assign, Seq, Or and While split the whole program, and the
cyclic system's AssignSubst, AssignFresh, Or and While consume its first
step.  For cyclic pre-proofs the pass is complemented by the global
condition: every open leaf must be back-linked to a structurally
identical inner companion, and the subgraph induced by Cons and OpenLeaf
nodes (child edges plus backlink edges) must be acyclic, i.e. every cycle
passes through a rule that consumes program progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .assertions import BoundedOracle
from .certificates import (
    CPRHL_ARITY,
    PRHL_ARITY,
    CyclicPreProof,
    PrhlProof,
    ProofNode,
    Triple,
    proof_graph,
)
from .semantics import Bounds, State, Verdict, format_state
from .syntax import (
    And,
    Assertion,
    Assign,
    BNot,
    Bool,
    Choice,
    Empty,
    Eq,
    Implies,
    Prog,
    Seq,
    Var,
    While,
    canon,
    erase_invariants,
    expr_vars,
    free_vars,
    print_assertion,
    prog_vars,
    seq_of,
    subst,
    subst_expr,
)


def _aeq(a: Assertion, b: Assertion) -> bool:
    return canon(a) is canon(b)


def _peq(p: Prog, q: Prog, bare: dict) -> bool:
    """Equal programs, annotations aside; ``bare`` keeps the bare forms of
    one check, so each distinct program is erased once."""
    return erase_invariants(seq_of(p), bare) is erase_invariants(seq_of(q), bare)


def _share_pre_post(t: Triple, *kids: ProofNode) -> bool:
    return all(_aeq(k.triple.pre, t.pre) and _aeq(k.triple.post, t.post) for k in kids)


def guard_implies(guard, pre: Assertion, negate: bool = False) -> Assertion:
    """The assertions the loop rules build: (B -> P) and (!B -> P)."""
    g = BNot(guard) if negate else guard
    return canon(Implies(Bool(g), pre))


@dataclass
class NodeResult:
    node: str
    status: str  # ok | rule-mismatch | side-condition
    detail: str = ""
    verdict: Verdict | None = None
    bounded: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CheckReport:
    system: str
    accepted: bool
    nodes: dict[str, NodeResult]
    global_status: str  # ok | cons-cycle | open-leaves
    global_ids: tuple[str, ...]
    bounds: Bounds
    bounded_flags: tuple[str, ...] = ()

    @property
    def bounded(self) -> bool:
        return bool(self.bounded_flags)


def _id_order(nid: str) -> tuple[int, str]:
    return (len(nid), nid)


def cons_sides(oracle: BoundedOracle, node: Triple, child: Triple) -> Iterator[tuple[str, Assertion, Assertion, Verdict]]:
    """The obligations of a Cons step from ``child`` up to ``node`` as (name,
    hyp, concl, verdict), pre side first, asked of the oracle when reached;
    a side whose two assertions are the same is left out (it holds exactly)."""
    for name, hyp, concl in (("pre side", child.pre, node.pre), ("post side", node.post, child.post)):
        if not _aeq(hyp, concl):
            yield name, hyp, concl, oracle.entails(hyp, concl)


def _cons_result(oracle: BoundedOracle, nid: str, node: Triple, child: Triple) -> NodeResult:
    """Check both Cons obligations; Invalid rejects, bounds downgrade."""
    bounded = False
    for name, hyp, concl, v in cons_sides(oracle, node, child):
        if v.is_invalid:
            at = ""
            if isinstance(v.witness, State):
                names = sorted(free_vars(hyp) | free_vars(concl))
                at = f" at {format_state(v.witness, names)}"
            return NodeResult(
                nid,
                "side-condition",
                f"{name}: {print_assertion(hyp)} |= {print_assertion(concl)} fails{at}",
                verdict=v,
            )
        bounded = bounded or v.is_unknown or bool(v.flags)
    return NodeResult(nid, "ok", bounded=(f"quantifier at node {nid}",) if bounded else ())


def _rule_mismatch(n: ProofNode, kids: list[ProofNode], cyclic: bool, strict_fig4_assign: bool, bare: dict) -> str:
    """Why ``n`` is not an instance of its rule, or "" if it is; a Cons
    node's side conditions are left to ``cons_sides``."""
    t = n.triple
    prog = seq_of(t.prog)
    if n.rule == "Axiom":
        if not isinstance(prog, Empty):
            return "Axiom concludes the empty program"
        return "" if _aeq(t.pre, t.post) else "Axiom pre and post must match"
    if n.rule == "OpenLeaf":
        return ""  # closure is the global condition's job
    if n.rule == "Cons":
        same = _peq(t.prog, kids[0].triple.prog, bare)
        return "" if same else "Cons premise must share the conclusion program"
    if n.rule == "Assign":
        if not isinstance(prog, Assign):
            return "Assign concludes a single assignment"
        want = subst(t.post, [(prog.name, prog.expr)])
        return "" if _aeq(t.pre, want) else f"Assign pre should be {print_assertion(canon(want))}"
    if n.rule == "Seq":
        left, right = kids
        if not _peq(t.prog, Seq(left.triple.prog, right.triple.prog), bare):
            return "premise programs do not compose to the conclusion"
        if not _aeq(left.triple.pre, t.pre):
            return "left premise pre differs from conclusion pre"
        if not _aeq(right.triple.post, t.post):
            return "right premise post differs from conclusion post"
        if not _aeq(left.triple.post, right.triple.pre):
            return (
                "middle assertions differ: "
                f"{print_assertion(canon(left.triple.post))} vs "
                f"{print_assertion(canon(right.triple.pre))}"
            )
        return ""
    if n.rule == "Or" and not cyclic:
        left, right = kids
        if not isinstance(prog, Choice):
            return "Or concludes a choice program"
        if not (_peq(prog.left, left.triple.prog, bare) and _peq(prog.right, right.triple.prog, bare)):
            return "premise programs are not the two branches"
        return "" if _share_pre_post(t, *kids) else "Or premises must share pre and post"
    if n.rule == "While" and not cyclic:
        (child,) = kids
        if not isinstance(prog, While):
            return "While concludes a loop"
        if not _peq(child.triple.prog, prog.body, bare):
            return "premise program must be the loop body"
        if not _aeq(child.triple.pre, guard_implies(prog.guard, t.pre)):
            return "premise pre should be guard -> conclusion pre"
        if not _aeq(child.triple.post, t.pre):
            return "premise post should be the conclusion pre"
        if not _aeq(t.post, guard_implies(prog.guard, t.pre, negate=True)):
            return "conclusion post should be !guard -> pre"
        return ""
    if isinstance(prog, Empty):
        return f"{n.rule} needs a program step to consume"
    head, cont = (prog.first, prog.second) if isinstance(prog, Seq) else (prog, Empty())
    if n.rule in ("AssignSubst", "AssignFresh"):
        (child,) = kids
        if not isinstance(head, Assign):
            return f"{n.rule} concludes an assignment-headed program"
        if not _peq(child.triple.prog, cont, bare):
            return "premise program must be the continuation"
        if not _aeq(child.triple.post, t.post):
            return "premise must share the conclusion post"
        x, e = head.name, head.expr
        if n.rule == "AssignSubst":
            want = subst(child.triple.pre, [(x, e)])
            return "" if _aeq(t.pre, want) else f"conclusion pre should be {print_assertion(canon(want))}"
        xp = n.fresh
        if not xp:
            return "AssignFresh needs a fresh variable name"
        if xp in free_vars(t.pre) | free_vars(t.post) | expr_vars(e) | prog_vars(prog):
            return f"{xp} is not fresh for the conclusion"
        e_ren = subst_expr(e, {x: Var(xp)})
        eq = Eq(Var(xp) if strict_fig4_assign else Var(x), e_ren)
        want = And(Bool(eq), subst(t.pre, [(x, Var(xp))]))
        return "" if _aeq(child.triple.pre, want) else f"premise pre should be {print_assertion(canon(want))}"
    if n.rule == "Or":
        if not isinstance(head, Choice):
            return "Or concludes a choice-headed program"
        for kid, branch in zip(kids, (head.left, head.right)):
            if not _peq(kid.triple.prog, seq_of(branch, cont), bare):
                return "premise program must be branch; continuation"
            if not _share_pre_post(t, kid):
                return "Or premises must share pre and post"
        return ""
    exit_kid, loop_kid = kids  # While
    if not isinstance(head, While):
        return "While concludes a loop-headed program"
    if not _peq(exit_kid.triple.prog, cont, bare):
        return "exit premise program must be the continuation"
    if not _aeq(exit_kid.triple.pre, guard_implies(head.guard, t.pre, negate=True)):
        return "exit premise pre should be !guard -> pre"
    if not _aeq(exit_kid.triple.post, t.post):
        return "exit premise must share the conclusion post"
    if not _peq(loop_kid.triple.prog, seq_of(head.body, prog), bare):
        return "loop premise program must be body; loop; continuation"
    if not _aeq(loop_kid.triple.pre, guard_implies(head.guard, t.pre)):
        return "loop premise pre should be guard -> pre"
    if not _aeq(loop_kid.triple.post, t.post):
        return "loop premise must share the conclusion post"
    return ""


def global_soundness(proof: CyclicPreProof) -> tuple[str, tuple[str, ...]]:
    """Global condition on a cyclic pre-proof.

    Returns ("ok", ()) when every open leaf is back-linked and the
    subgraph induced by Cons/OpenLeaf nodes is acyclic; otherwise
    ("cons-cycle", ids-on-cycles) or ("open-leaves", unlinked-ids).
    """
    succ = proof_graph(proof)
    core = {nid for nid, n in proof.nodes.items() if n.rule in ("Cons", "OpenLeaf")}
    induced = {nid: tuple(c for c in succ[nid] if c in core) for nid in core}

    on_cycle = []
    for start in core:  # a node lies on a cycle iff it reaches itself
        seen: set[str] = set()
        stack = list(induced[start])
        while stack:
            v = stack.pop()
            if v == start:
                on_cycle.append(start)
                break
            if v not in seen:
                seen.add(v)
                stack.extend(induced[v])
    if on_cycle:
        return "cons-cycle", tuple(sorted(on_cycle, key=_id_order))

    open_unlinked = [
        nid
        for nid, n in proof.nodes.items()
        if n.rule == "OpenLeaf" and nid not in proof.backlinks
    ]
    if open_unlinked:
        return "open-leaves", tuple(sorted(open_unlinked, key=_id_order))
    return "ok", ()


def _check(
    system: str,
    proof: PrhlProof | CyclicPreProof,
    oracle: BoundedOracle | None,
    bounds: Bounds | None,
    strict_fig4_assign: bool = False,
) -> CheckReport:
    """Check every node in id order, then, for a cyclic pre-proof, the
    global condition."""
    bounds = bounds if bounds is not None else Bounds()
    oracle = oracle if oracle is not None else BoundedOracle(bounds)
    cyclic = system == "cprhl"
    arity = CPRHL_ARITY if cyclic else PRHL_ARITY
    results: dict[str, NodeResult] = {}
    bare: dict = {}
    for nid in sorted(proof.nodes, key=_id_order):
        n = proof.nodes[nid]
        if n.rule not in arity:
            raise AssertionError(f"unreachable rule {n.rule}")
        kids = [proof.nodes[c] for c in n.children]
        detail = _rule_mismatch(n, kids, cyclic, strict_fig4_assign, bare)
        if detail:
            results[nid] = NodeResult(nid, "rule-mismatch", detail)
        elif n.rule == "Cons":
            results[nid] = _cons_result(oracle, nid, n.triple, kids[0].triple)
        else:
            results[nid] = NodeResult(nid, "ok")
    gstatus, gids = global_soundness(proof) if cyclic else ("ok", ())
    flags = tuple(f for r in results.values() for f in r.bounded)
    accepted = all(r.ok for r in results.values()) and gstatus == "ok"
    return CheckReport(system, accepted, results, gstatus, gids, bounds, flags)


def check_prhl(
    proof: PrhlProof,
    oracle: BoundedOracle | None = None,
    bounds: Bounds | None = None,
) -> CheckReport:
    return _check("prhl", proof, oracle, bounds)


def check_cprhl(
    proof: CyclicPreProof,
    oracle: BoundedOracle | None = None,
    bounds: Bounds | None = None,
    strict_fig4_assign: bool = False,
) -> CheckReport:
    return _check("cprhl", proof, oracle, bounds, strict_fig4_assign)
