"""Proof construction for the reverse Hoare calculus.

Two entry points, both writing an id-keyed node table.  ``prove_prhl``
builds an ordinary derivation bottom-up, computing each pre-condition
from the post the way the completeness argument does, and discharges
every Cons side condition through an entailment oracle.
``transform_to_cyclic`` rewrites an ordinary derivation into a cyclic
one by threading a continuation program through it; loop leaves are
closed with back-links to the nearest enclosing node with the same label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .assertions import BoundedOracle
from .certificates import CPRHL_ARITY, CertificateError, CyclicPreProof, PrhlProof, ProofNode, Triple
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
    proof: PrhlProof | None
    verdict: Verdict | None = None
    sides: tuple[SideCondition, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("proved", "proved-bounded")


class _Prover:
    """Writes a derivation into ``table``: each node is appended after its
    premises, and its children name premises by table position."""

    def __init__(self, loop_mode: str, oracle: BoundedOracle):
        self.wp_mode = "beta" if loop_mode == "beta" else "invariant"
        self.oracle = oracle
        self.sides: list[SideCondition] = []
        self.notes: list[str] = []
        self.table: list[ProofNode] = []

    def add(self, rule: str, triple: Triple, kids: tuple[int, ...] = ()) -> int:
        self.table.append(ProofNode(rule, triple, kids))  # type: ignore[arg-type]
        return len(self.table) - 1

    def cons(self, target: Triple, child: int, where: str) -> int:
        """Wrap ``child`` in a Cons step up to ``target``, recording the
        oracle's verdict on each side that ``cons_sides`` asks."""
        if target == self.table[child].triple:
            return child
        for name, hyp, concl, v in cons_sides(self.oracle, target, self.table[child].triple):
            self.sides.append(SideCondition(f"{where}: {name}", hyp, concl, v))
        return self.add("Cons", target, (child,))

    def prove(self, prog: Prog, post: Assertion) -> int:
        """Derivation of [| W |] prog [| post |] where W is the computed
        pre-condition (exact in beta mode, annotation-derived otherwise).
        Sequencing is proved in a loop from the right, so only loop
        bodies and choice arms recurse."""
        spine = []
        while isinstance(prog, Seq):
            spine.append(prog)
            prog = prog.second
        nid = self.unit(prog, post)
        for s in reversed(spine):
            head = self.unit(s.first, self.table[nid].triple.pre)
            nid = self.add("Seq", Triple(self.table[head].triple.pre, s, post), (head, nid))
        return nid

    def unit(self, prog: Prog, post: Assertion) -> int:
        if isinstance(prog, Empty):
            return self.add("Axiom", Triple(post, prog, post))
        if isinstance(prog, Assign):
            return self.add("Assign", Triple(canon(subst(post, [(prog.name, prog.expr)])), prog, post))
        if isinstance(prog, Choice):
            tl = self.prove(prog.left, post)
            tr = self.prove(prog.right, post)
            w = canon(Or(self.table[tl].triple.pre, self.table[tr].triple.pre))
            cl = self.cons(Triple(w, prog.left, post), tl, "choice left branch")
            cr = self.cons(Triple(w, prog.right, post), tr, "choice right branch")
            return self.add("Or", Triple(w, prog, post), (cl, cr))
        if isinstance(prog, While):
            res = wpr_formula(WprRequest(prog, post, self.wp_mode))
            self.notes.extend(res.notes)
            w = res.formula
            inner = self.prove(prog.body, w)
            body_kid = self.cons(Triple(guard_implies(prog.guard, w), prog.body, w), inner, "loop body")
            wnode = self.add("While", Triple(w, prog, guard_implies(prog.guard, w, negate=True)), (body_kid,))
            return self.cons(Triple(w, prog, post), wnode, "loop exit")
        raise TypeError(f"unknown program node {type(prog).__name__}")

    def preorder(self, root: int) -> PrhlProof:
        """The table under the ids n1, n2, ... of a preorder walk from
        ``root``, made with an explicit stack."""
        order, stack = [], [root]
        while stack:
            i = stack.pop()
            order.append(i)
            stack.extend(reversed(self.table[i].children))
        name = {i: f"n{k}" for k, i in enumerate(order, 1)}
        nodes = {name[i]: self.table[i] for i in order}
        return PrhlProof("n1", {k: ProofNode(n.rule, n.triple, tuple(map(name.get, n.children)))
                                for k, n in nodes.items()})


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
    root = pv.cons(Triple(r.triple.pre, prog, r.triple.post), pv.prove(prog, r.triple.post), "root")
    status, verdict = _classify(pv.sides)
    return ProveResult(status, pv.preorder(root), verdict, tuple(pv.sides), tuple(dict.fromkeys(pv.notes)))


# --- ordinary proof -> cyclic proof -----------------------------------------


class CyclicCapExceeded(Exception):
    """A cyclic pre-proof would pass ``CYCLIC_CAP`` nodes."""


# the most nodes a cyclic pre-proof gets: a straight-line program takes
# about one per statement, but each choice proves its continuation once
# per arm, so k choices in a row take 2^(k+3)
CYCLIC_CAP = 1 << 16


def transform_to_cyclic(proof: PrhlProof, continuation: Prog, r: Assertion) -> CyclicPreProof:
    """Rebuild the derivation ``proof`` of [| P |] C [| Q |] as a cyclic
    pre-proof of [| P |] C;continuation [| r |].

    Leaves reached at the end of a loop body are closed with back-links
    to the nearest enclosing node with the same label.  Leaves carrying
    [| Q |] continuation [| r |] close as Axiom when the continuation is
    empty and Q matches r; otherwise they stay open.

    A stack of frames does the rewrite: ``walk`` a premise under a
    continuation, ``close`` the leaf a walk ends in by its closer
    (``top``, ``seq`` to walk the right premise, ``cons`` to repeat a Cons
    step, ``loop`` to end a loop body), or set a node's ``second``
    premise.  Each frame makes its first node next, so a node's first
    premise is the node made after it.  Raises CyclicCapExceeded past
    ``CYCLIC_CAP`` nodes.
    """
    nodes: dict[str, ProofNode] = {}
    backlinks: dict[str, str] = {}

    def add(rule: str, label: Triple, premises: int = 0) -> str:
        if len(nodes) >= CYCLIC_CAP:
            raise CyclicCapExceeded(f"cyclic-size-cap: the cyclic pre-proof passes {CYCLIC_CAP} nodes")
        nid = f"c{len(nodes) + 1}"
        nodes[nid] = ProofNode(rule, label, (f"c{len(nodes) + 2}",) if premises else ())
        return nid

    work: list[tuple] = [("walk", proof.root, seq_of(continuation), {}, ("top",))]
    while work:
        frame = work.pop()
        if frame[0] == "second":
            n = nodes[frame[1]]
            nodes[frame[1]] = ProofNode(n.rule, n.triple, n.children + (f"c{len(nodes) + 1}",))
        elif frame[0] == "walk":
            _, pid, cont, env, close = frame
            n = proof.nodes[pid]
            t = n.triple
            exit_label = Triple(t.post, cont, r)
            if n.rule == "Axiom":
                work.append(("close", exit_label, env, close))
                continue
            if n.rule == "Seq":
                t1, t2 = n.children
                work.append(("walk", t1, seq_of(proof.nodes[t2].triple.prog, cont), env, ("seq", t2, cont, close)))
                continue
            rule = "AssignSubst" if n.rule == "Assign" else n.rule
            label = Triple(t.pre, seq_of(t.prog, cont), r)
            nid = add(rule, label, CPRHL_ARITY.get(rule, 0))
            if rule == "AssignSubst":
                work.append(("close", exit_label, env, close))
            elif rule == "Cons":
                work.append(("walk", n.children[0], cont, env, ("cons", t.post, cont, close)))
            elif rule == "Or":
                k1, k2 = n.children
                work += [("walk", k2, cont, env, close), ("second", nid), ("walk", k1, cont, env, close)]
            elif rule == "While":
                env = {**env, label: nid}
                body = ("walk", n.children[0], label.prog, env, ("loop", label))
                work += [body, ("second", nid), ("close", exit_label, env, close)]
            else:
                raise CertificateError(f"cannot transform rule {n.rule}")
        else:
            _, label, env, close = frame
            if close[0] == "top":
                closed = isinstance(seq_of(label.prog), Empty) and _aeq(label.pre, label.post)
                add("Axiom" if closed else "OpenLeaf", label)
            elif close[0] == "seq":
                work.append(("walk", close[1], close[2], env, close[3]))
            elif close[0] == "cons":
                add("Cons", label, 1)
                work.append(("close", Triple(close[1], close[2], r), env, close[3]))
            else:
                lid = add("OpenLeaf", close[1])
                if close[1] in env:
                    backlinks[lid] = env[close[1]]
    return CyclicPreProof("c1", nodes, backlinks)
