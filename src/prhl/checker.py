"""Certificate checking for the tree-shaped and cyclic proof systems.

Rule applications are checked structurally: programs are compared in
sequencing normal form and assertions after connective canonicalization,
with no semantic reasoning.  The only semantic obligations are the two
side conditions of a Cons step,

    premise-pre  |=  conclusion-pre
    conclusion-post  |=  premise-post

which are discharged through an ``EntailmentOracle``.  An Invalid side
condition rejects the certificate with the counterexample store; a side
condition that is only bound-relative (Valid with flags, or Unknown
because a quantifier bound was reached) keeps the node ok but marks the
overall answer as bounded, so a clean accept means every obligation was
discharged exactly.

For cyclic pre-proofs the per-node pass is complemented by the global
condition: every open leaf must be back-linked to a structurally
identical inner companion, and the subgraph induced by Cons and OpenLeaf
nodes (child edges plus backlink edges) must be acyclic, i.e. every cycle
passes through a rule that consumes program progress.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assertions import BoundedOracle, EntailmentOracle
from .certificates import (
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
    decompose_head,
    erase_invariants,
    expr_vars,
    free_vars,
    normalize_program,
    print_assertion,
    prog_vars,
    seq_of,
    subst,
    subst_expr,
)


def _aeq(a: Assertion, b: Assertion) -> bool:
    return canon(a) is canon(b)


def _peq(p: Prog, q: Prog) -> bool:
    return erase_invariants(normalize_program(p)) is erase_invariants(normalize_program(q))


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


class _RuleChecker:
    def __init__(self, oracle: EntailmentOracle):
        self.oracle = oracle

    def mismatch(self, nid: str, detail: str) -> NodeResult:
        return NodeResult(nid, "rule-mismatch", detail)

    def cons_sides(self, nid: str, node: Triple, child: Triple) -> NodeResult:
        """Check both Cons obligations; Invalid rejects, bounds downgrade."""
        flags: list[str] = []
        for name, hyp, concl in (
            ("pre side", child.pre, node.pre),
            ("post side", node.post, child.post),
        ):
            v = self.oracle.entails(hyp, concl)
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
            if v.is_unknown or v.flags:
                flags.append(f"quantifier at node {nid}")
        return NodeResult(nid, "ok", bounded=tuple(dict.fromkeys(flags)))


def _check_prhl_node(rc: _RuleChecker, nid: str, n: ProofNode, kids: list[ProofNode]) -> NodeResult:
    t = n.triple
    prog = normalize_program(t.prog)
    if n.rule == "Axiom":
        if not isinstance(prog, Empty):
            return rc.mismatch(nid, "Axiom concludes the empty program")
        if not _aeq(t.pre, t.post):
            return rc.mismatch(nid, "Axiom pre and post must match")
        return NodeResult(nid, "ok")
    if n.rule == "Assign":
        if not isinstance(prog, Assign):
            return rc.mismatch(nid, "Assign concludes a single assignment")
        want = subst(t.post, [(prog.name, prog.expr)])
        if not _aeq(t.pre, want):
            return rc.mismatch(
                nid, f"Assign pre should be {print_assertion(canon(want))}"
            )
        return NodeResult(nid, "ok")
    if n.rule == "Seq":
        left, right = kids
        if not _peq(t.prog, Seq(left.triple.prog, right.triple.prog)):
            return rc.mismatch(nid, "premise programs do not compose to the conclusion")
        if not _aeq(left.triple.pre, t.pre):
            return rc.mismatch(nid, "left premise pre differs from conclusion pre")
        if not _aeq(right.triple.post, t.post):
            return rc.mismatch(nid, "right premise post differs from conclusion post")
        if not _aeq(left.triple.post, right.triple.pre):
            return rc.mismatch(
                nid,
                "middle assertions differ: "
                f"{print_assertion(canon(left.triple.post))} vs "
                f"{print_assertion(canon(right.triple.pre))}",
            )
        return NodeResult(nid, "ok")
    if n.rule == "Cons":
        (child,) = kids
        if not _peq(t.prog, child.triple.prog):
            return rc.mismatch(nid, "Cons premise must share the conclusion program")
        return rc.cons_sides(nid, t, child.triple)
    if n.rule == "Or":
        left, right = kids
        if not isinstance(prog, Choice):
            return rc.mismatch(nid, "Or concludes a choice program")
        if not (_peq(prog.left, left.triple.prog) and _peq(prog.right, right.triple.prog)):
            return rc.mismatch(nid, "premise programs are not the two branches")
        for kid in kids:
            if not _aeq(kid.triple.pre, t.pre) or not _aeq(kid.triple.post, t.post):
                return rc.mismatch(nid, "Or premises must share pre and post")
        return NodeResult(nid, "ok")
    if n.rule == "While":
        (child,) = kids
        if not isinstance(prog, While):
            return rc.mismatch(nid, "While concludes a loop")
        if not _peq(child.triple.prog, prog.body):
            return rc.mismatch(nid, "premise program must be the loop body")
        if not _aeq(child.triple.pre, guard_implies(prog.guard, t.pre)):
            return rc.mismatch(nid, "premise pre should be guard -> conclusion pre")
        if not _aeq(child.triple.post, t.pre):
            return rc.mismatch(nid, "premise post should be the conclusion pre")
        if not _aeq(t.post, guard_implies(prog.guard, t.pre, negate=True)):
            return rc.mismatch(nid, "conclusion post should be !guard -> pre")
        return NodeResult(nid, "ok")
    raise AssertionError(f"unreachable rule {n.rule}")


def check_prhl(
    proof: PrhlProof,
    oracle: EntailmentOracle | None = None,
    bounds: Bounds | None = None,
) -> CheckReport:
    bounds = bounds if bounds is not None else Bounds()
    rc = _RuleChecker(oracle if oracle is not None else BoundedOracle(bounds))
    results: dict[str, NodeResult] = {}
    for nid in sorted(proof.nodes, key=_id_order):
        n = proof.nodes[nid]
        kids = [proof.nodes[c] for c in n.children]
        results[nid] = _check_prhl_node(rc, nid, n, kids)
    flags = tuple(f for r in results.values() for f in r.bounded)
    accepted = all(r.ok for r in results.values())
    return CheckReport("prhl", accepted, results, "ok", (), bounds, flags)


# --- cyclic system ----------------------------------------------------------


def _check_cprhl_node(
    rc: _RuleChecker, nid: str, n: ProofNode, kids: list[ProofNode], strict_fig4_assign: bool
) -> NodeResult:
    t = n.triple
    prog = normalize_program(t.prog)
    if n.rule == "Axiom":
        if not isinstance(prog, Empty):
            return rc.mismatch(nid, "Axiom concludes the empty program")
        if not _aeq(t.pre, t.post):
            return rc.mismatch(nid, "Axiom pre and post must match")
        return NodeResult(nid, "ok")
    if n.rule == "OpenLeaf":
        return NodeResult(nid, "ok")  # closure is the global condition's job
    if n.rule == "Cons":
        (child,) = kids
        if not _peq(t.prog, child.triple.prog):
            return rc.mismatch(nid, "Cons premise must share the conclusion program")
        return rc.cons_sides(nid, t, child.triple)
    if isinstance(prog, Empty):
        return rc.mismatch(nid, f"{n.rule} needs a program step to consume")
    head, cont = decompose_head(prog)
    if n.rule in ("AssignSubst", "AssignFresh"):
        (child,) = kids
        if not isinstance(head, Assign):
            return rc.mismatch(nid, f"{n.rule} concludes an assignment-headed program")
        if not _peq(child.triple.prog, cont):
            return rc.mismatch(nid, "premise program must be the continuation")
        if not _aeq(child.triple.post, t.post):
            return rc.mismatch(nid, "premise must share the conclusion post")
        x, e = head.name, head.expr
        if n.rule == "AssignSubst":
            want = subst(child.triple.pre, [(x, e)])
            if not _aeq(t.pre, want):
                return rc.mismatch(
                    nid, f"conclusion pre should be {print_assertion(canon(want))}"
                )
            return NodeResult(nid, "ok")
        # AssignFresh
        xp = n.fresh
        if not xp:
            return rc.mismatch(nid, "AssignFresh needs a fresh variable name")
        used = free_vars(t.pre) | free_vars(t.post) | expr_vars(e) | prog_vars(prog)
        if xp in used:
            return rc.mismatch(nid, f"{xp} is not fresh for the conclusion")
        e_ren = subst_expr(e, {x: Var(xp)})
        if strict_fig4_assign:
            eq = Eq(Var(xp), e_ren)
        else:
            eq = Eq(Var(x), e_ren)
        want = And(Bool(eq), subst(t.pre, [(x, Var(xp))]))
        if not _aeq(child.triple.pre, want):
            return rc.mismatch(
                nid, f"premise pre should be {print_assertion(canon(want))}"
            )
        return NodeResult(nid, "ok")
    if n.rule == "Or":
        left, right = kids
        if not isinstance(head, Choice):
            return rc.mismatch(nid, "Or concludes a choice-headed program")
        for kid, branch in ((left, head.left), (right, head.right)):
            if not _peq(kid.triple.prog, seq_of(branch, cont)):
                return rc.mismatch(nid, "premise program must be branch; continuation")
            if not _aeq(kid.triple.pre, t.pre) or not _aeq(kid.triple.post, t.post):
                return rc.mismatch(nid, "Or premises must share pre and post")
        return NodeResult(nid, "ok")
    if n.rule == "While":
        exit_kid, loop_kid = kids
        if not isinstance(head, While):
            return rc.mismatch(nid, "While concludes a loop-headed program")
        if not _peq(exit_kid.triple.prog, cont):
            return rc.mismatch(nid, "exit premise program must be the continuation")
        if not _aeq(exit_kid.triple.pre, guard_implies(head.guard, t.pre, negate=True)):
            return rc.mismatch(nid, "exit premise pre should be !guard -> pre")
        if not _aeq(exit_kid.triple.post, t.post):
            return rc.mismatch(nid, "exit premise must share the conclusion post")
        if not _peq(loop_kid.triple.prog, seq_of(head.body, prog)):
            return rc.mismatch(
                nid, "loop premise program must be body; loop; continuation"
            )
        if not _aeq(loop_kid.triple.pre, guard_implies(head.guard, t.pre)):
            return rc.mismatch(nid, "loop premise pre should be guard -> pre")
        if not _aeq(loop_kid.triple.post, t.post):
            return rc.mismatch(nid, "loop premise must share the conclusion post")
        return NodeResult(nid, "ok")
    raise AssertionError(f"unreachable rule {n.rule}")


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


def check_cprhl(
    proof: CyclicPreProof,
    oracle: EntailmentOracle | None = None,
    bounds: Bounds | None = None,
    strict_fig4_assign: bool = False,
) -> CheckReport:
    bounds = bounds if bounds is not None else Bounds()
    rc = _RuleChecker(oracle if oracle is not None else BoundedOracle(bounds))
    results: dict[str, NodeResult] = {}
    for nid in sorted(proof.nodes, key=_id_order):
        n = proof.nodes[nid]
        kids = [proof.nodes[c] for c in n.children]
        results[nid] = _check_cprhl_node(rc, nid, n, kids, strict_fig4_assign)
    gstatus, gids = global_soundness(proof)
    flags = tuple(f for r in results.values() for f in r.bounded)
    accepted = all(r.ok for r in results.values()) and gstatus == "ok"
    return CheckReport("cprhl", accepted, results, gstatus, gids, bounds, flags)
