"""Proof construction for the reverse Hoare calculus.

Two entry points.  ``prove_prhl`` builds an ordinary derivation bottom-up,
computing each pre-condition from the post the way the completeness
argument does, and discharges every Cons side condition through an
entailment oracle.  ``transform_to_cyclic`` rewrites an ordinary
derivation into a cyclic one by threading a continuation program through
the tree; loop leaves are closed with back-links to the nearest enclosing
node carrying the same label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assertions import BoundedOracle
from .certificates import CertificateError, CyclicPreProof, PrhlNode, ProofNode, Triple
from .checker import _aeq, cons_sides, guard_implies
from .semantics import Bounds, Verdict, check_triple
from .syntax import (
    Assertion,
    Assign,
    Choice,
    Empty,
    Or,
    Prog,
    Seq,
    While,
    canon,
    seq_of,
    subst,
)
from .wp import WprRequest, wpr_formula

LOOP_MODES = ("beta", "invariant-annotations")


@dataclass(frozen=True)
class ProveRequest:
    triple: Triple
    loop_mode: str = "beta"
    bounds: Bounds = Bounds()


@dataclass(frozen=True)
class SideCondition:
    """One oracle query made while building the proof."""

    where: str
    hyp: Assertion
    concl: Assertion
    verdict: Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.is_valid


@dataclass
class ProveResult:
    """Outcome of a proof attempt.

    status is one of:
      proved          -- certificate built, all side conditions clean
      proved-bounded  -- certificate built, some side condition relied on
                         a quantifier bound
      unknown         -- certificate built, some side condition could not
                         be decided within bounds
      failed          -- a side condition is invalid (bad loop annotation)
      refuted         -- the triple itself has a semantic counterexample
    """

    status: str
    proof: PrhlNode | None
    verdict: Verdict | None = None
    sides: tuple[SideCondition, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("proved", "proved-bounded")


class _Prover:
    def __init__(self, loop_mode: str, oracle: BoundedOracle):
        self.wp_mode = "beta" if loop_mode == "beta" else "invariant"
        self.oracle = oracle
        self.sides: list[SideCondition] = []
        self.notes: list[str] = []

    def cons(self, target: Triple, child: PrhlNode, where: str) -> PrhlNode:
        """Wrap ``child`` in a Cons step up to ``target``, recording the
        oracle's verdict on each side that ``cons_sides`` asks."""
        if target == child.triple:
            return child
        for name, hyp, concl, v in cons_sides(self.oracle, target, child.triple):
            self.sides.append(SideCondition(f"{where}: {name}", hyp, concl, v))
        return PrhlNode("Cons", target, (child,))

    def prove(self, prog: Prog, post: Assertion) -> PrhlNode:
        """Derivation of [| W |] prog [| post |] where W is the computed
        pre-condition (exact in beta mode, annotation-derived otherwise)."""
        if isinstance(prog, Empty):
            return PrhlNode("Axiom", Triple(post, prog, post))
        if isinstance(prog, Assign):
            pre = canon(subst(post, [(prog.name, prog.expr)]))
            return PrhlNode("Assign", Triple(pre, prog, post))
        if isinstance(prog, Seq):
            t2 = self.prove(prog.second, post)
            t1 = self.prove(prog.first, t2.triple.pre)
            return PrhlNode("Seq", Triple(t1.triple.pre, prog, post), (t1, t2))
        if isinstance(prog, Choice):
            tl = self.prove(prog.left, post)
            tr = self.prove(prog.right, post)
            w = canon(Or(tl.triple.pre, tr.triple.pre))
            cl = self.cons(Triple(w, prog.left, post), tl, "choice left branch")
            cr = self.cons(Triple(w, prog.right, post), tr, "choice right branch")
            return PrhlNode("Or", Triple(w, prog, post), (cl, cr))
        if isinstance(prog, While):
            res = wpr_formula(WprRequest(prog, post, self.wp_mode))
            self.notes.extend(res.notes)
            w = res.formula
            inner = self.prove(prog.body, w)
            body_kid = self.cons(Triple(guard_implies(prog.guard, w), prog.body, w), inner, "loop body")
            wnode = PrhlNode(
                "While",
                Triple(w, prog, guard_implies(prog.guard, w, negate=True)),
                (body_kid,),
            )
            return self.cons(Triple(w, prog, post), wnode, "loop exit")
        raise TypeError(f"unknown program node {type(prog).__name__}")


def _classify(sides: list[SideCondition]) -> tuple[str, Verdict | None]:
    for s in sides:
        if s.verdict.is_invalid:
            return "failed", s.verdict
    for s in sides:
        if s.verdict.is_unknown:
            return "unknown", s.verdict
    if any(s.verdict.flags for s in sides):
        return "proved-bounded", None
    return "proved", None


def prove_prhl(r: ProveRequest, oracle: BoundedOracle | None = None) -> ProveResult:
    """Attempt an ordinary proof of ``r.triple``.

    A bounded semantic check runs first; a counterexample yields status
    ``refuted`` with no certificate.  Otherwise the certificate is always
    produced, and the status reports how its side conditions fared.
    Raises MissingInvariantError in invariant-annotations mode when a
    loop has no annotation.
    """
    if r.loop_mode not in LOOP_MODES:
        raise ValueError(f"loop_mode must be one of {LOOP_MODES}, got {r.loop_mode!r}")
    if oracle is None:
        oracle = BoundedOracle(r.bounds)
    prog = seq_of(r.triple.prog)

    pre_check = check_triple("partial-reverse", r.triple.pre, prog, r.triple.post, r.bounds)
    if pre_check.is_invalid:
        return ProveResult("refuted", None, pre_check)

    pv = _Prover(r.loop_mode, oracle)
    if pre_check.is_unknown:
        pv.notes.append(f"semantic pre-check inconclusive: {pre_check.reason}")
    t = pv.prove(prog, r.triple.post)
    root = pv.cons(Triple(r.triple.pre, prog, r.triple.post), t, "root")
    status, verdict = _classify(pv.sides)
    return ProveResult(status, root, verdict, tuple(pv.sides), tuple(dict.fromkeys(pv.notes)))


# --- ordinary proof -> cyclic proof -----------------------------------------


def transform_to_cyclic(p: PrhlNode, continuation: Prog, r: Assertion) -> CyclicPreProof:
    """Rebuild the derivation ``p`` of [| P |] C [| Q |] as a cyclic
    pre-proof of [| P |] C;continuation [| r |].

    Leaves reached at the end of a loop body are closed with back-links
    to the nearest enclosing node with the same label.  Leaves carrying
    [| Q |] continuation [| r |] close as Axiom when the continuation is
    empty and Q matches r; otherwise they stay open.
    """
    nodes: dict[str, ProofNode] = {}
    backlinks: dict[str, str] = {}

    def reserve() -> str:
        nid = f"c{len(nodes) + 1}"
        nodes[nid] = None  # type: ignore[assignment]  # keep creation order
        return nid

    def fill(nid: str, rule: str, triple: Triple, kids: tuple[str, ...] = ()) -> str:
        nodes[nid] = ProofNode(rule, triple, kids)
        return nid

    def top_close(label: Triple, env: dict[Triple, str]) -> str:
        nid = reserve()
        if isinstance(seq_of(label.prog), Empty) and _aeq(label.pre, label.post):
            return fill(nid, "Axiom", label)
        return fill(nid, "OpenLeaf", label)

    def walk(n: PrhlNode, cont: Prog, env: dict[Triple, str], close) -> str:
        t = n.triple
        if n.rule == "Axiom":
            return close(Triple(t.post, cont, r), env)
        if n.rule == "Assign":
            nid = reserve()
            kid = close(Triple(t.post, cont, r), env)
            return fill(nid, "AssignSubst", Triple(t.pre, seq_of(t.prog, cont), r), (kid,))
        if n.rule == "Seq":
            t1, t2 = n.children

            def close_seq(label: Triple, env2: dict[Triple, str]) -> str:
                return walk(t2, cont, env2, close)

            return walk(t1, seq_of(t2.triple.prog, cont), env, close_seq)
        if n.rule == "Cons":
            (ch,) = n.children
            nid = reserve()

            def close_cons(label: Triple, env2: dict[Triple, str]) -> str:
                cid = reserve()
                kid = close(Triple(t.post, cont, r), env2)
                return fill(cid, "Cons", label, (kid,))

            kid = walk(ch, cont, env, close_cons)
            return fill(nid, "Cons", Triple(t.pre, seq_of(t.prog, cont), r), (kid,))
        if n.rule == "Or":
            t1, t2 = n.children
            nid = reserve()
            k1 = walk(t1, cont, env, close)
            k2 = walk(t2, cont, env, close)
            return fill(nid, "Or", Triple(t.pre, seq_of(t.prog, cont), r), (k1, k2))
        if n.rule == "While":
            (body_pf,) = n.children
            nid = reserve()
            wtriple = Triple(t.pre, seq_of(t.prog, cont), r)
            env2 = {**env, wtriple: nid}
            exit_kid = close(Triple(t.post, cont, r), env2)

            def close_loop(label: Triple, env3: dict[Triple, str]) -> str:
                lid = reserve()
                fill(lid, "OpenLeaf", wtriple)
                target = env3.get(wtriple)
                if target is not None:
                    backlinks[lid] = target
                return lid

            loop_kid = walk(body_pf, seq_of(t.prog, cont), env2, close_loop)
            return fill(nid, "While", wtriple, (exit_kid, loop_kid))
        raise CertificateError(f"cannot transform rule {n.rule}")

    root = walk(p, seq_of(continuation), {}, top_close)
    return CyclicPreProof(root, nodes, backlinks)
