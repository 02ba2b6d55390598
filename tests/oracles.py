"""Reference implementations, generators and the soundness sweep shared
by the test suite and scripts/soundness_sweep.py.

Computations the library performs by compiled small-step BFS, closures
over store tuples, memoized walks over shared terms, formula
construction, or induced-subgraph analysis are reproduced here by
structurally different means (tree-rewriting small steps, tree-walking
evaluation over ``State`` and substitution, denotational recursion,
streak-tracking path unrolling) so the two sides can be compared on
random inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import fields, is_dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from prhl.assertions import BoundedOracle, eval_assertion
from prhl.certificates import CyclicPreProof, ProofNode, Triple
from prhl.checker import check_prhl
from prhl.prover import ProveRequest, prove_prhl
from prhl.semantics import VALUE_BIT_CAP, Bounds, RunResult, State, Verdict, check_triple, run_all
from prhl.syntax import (
    And,
    Assign,
    BAnd,
    BinOp,
    BNot,
    BOr,
    Bool,
    Choice,
    Const,
    Empty,
    Eq,
    Exists,
    Forall,
    Implies,
    Le,
    Not,
    Or,
    Prog,
    Seq,
    Var,
    While,
    expr_vars,
    free_vars,
    fresh_var,
    parse_program,
    print_program,
    prog_vars,
    seq_of,
)
from prhl.wp import WprRequest, wpr_formula


def parse_bool_expr(text: str):
    """A guard on its own, read through the program parser."""
    return parse_program(f"while {text} do {{ skip }}").guard


# --- terms as trees and as shared graphs ---------------------------------------


def subterms(t) -> list:
    """Every node of a term, each distinct object once (a walk over the
    term's graph, not its tree)."""
    seen, stack = {}, [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen[id(u)] = u
            stack.extend(v for f in fields(u) if is_dataclass(v := getattr(u, f.name)))
    return list(seen.values())


# --- substitution by walking the tree -----------------------------------------


def subst_ref(t, pairs):
    """Simultaneous capture-avoiding substitution into an expression,
    guard or assertion, rebuilding every node on every path (no memo).
    A binder that would capture a substituted expression is renamed
    with ``fresh_var`` first."""
    mapping = dict(pairs)
    if not mapping or isinstance(t, Const):
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, BinOp):
        return BinOp(t.op, subst_ref(t.left, pairs), subst_ref(t.right, pairs))
    if isinstance(t, (Eq, Le, BAnd, BOr, And, Or, Implies)):
        return type(t)(subst_ref(t.left, pairs), subst_ref(t.right, pairs))
    if isinstance(t, (BNot, Not)):
        return type(t)(subst_ref(t.arg, pairs))
    if isinstance(t, Bool):
        return Bool(subst_ref(t.expr, pairs))
    if isinstance(t, (Exists, Forall)):
        body_free = free_vars(t.body)
        inner = [(k, v) for k, v in mapping.items() if k != t.var and k in body_free]
        if not inner:
            return t
        var, body = t.var, t.body
        cap = set().union(*(expr_vars(v) for _, v in inner))
        if var in cap:
            var = fresh_var(cap | body_free | {k for k, _ in inner}, var)
            body = subst_ref(body, [(t.var, Var(var))])
        return type(t)(var, subst_ref(body, inner))
    raise TypeError(f"not a term: {t!r}")


# --- program normal form by recursion ----------------------------------------


def normalize_ref(p: Prog) -> Prog:
    """Normal form by recursion through both sides of every ``Seq``: the
    units in order, ``skip`` dropped, loop bodies and choice arms
    normalized, nested to the right.  The reference for ``seq_of``."""

    def collect(p: Prog, acc: list[Prog]) -> None:
        if isinstance(p, Seq):
            collect(p.first, acc)
            collect(p.second, acc)
        elif isinstance(p, While):
            acc.append(While(p.guard, normalize_ref(p.body), p.invariant))
        elif isinstance(p, Choice):
            acc.append(Choice(normalize_ref(p.left), normalize_ref(p.right)))
        elif not isinstance(p, Empty):
            acc.append(p)

    acc: list[Prog] = []
    collect(p, acc)
    out = acc.pop() if acc else Empty()
    for unit in reversed(acc):
        out = Seq(unit, out)
    return out


# --- evaluation by walking the tree over State ----------------------------------


def eval_expr(e, s: State) -> int:
    """Totalised arithmetic: subtraction truncates at zero, division by
    zero is zero, modulo by zero is the dividend."""
    if isinstance(e, Var):
        return s.get(e.name)
    if isinstance(e, Const):
        return e.value
    if isinstance(e, BinOp):
        l, r = eval_expr(e.left, s), eval_expr(e.right, s)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return max(l - r, 0)
        if e.op == "*":
            return l * r
        if e.op == "/":
            return l // r if r else 0
        if e.op == "%":
            return l % r if r else l
    raise TypeError(f"not an expression: {e!r}")


def eval_bool(b, s: State) -> bool:
    if isinstance(b, Eq):
        return eval_expr(b.left, s) == eval_expr(b.right, s)
    if isinstance(b, Le):
        return eval_expr(b.left, s) <= eval_expr(b.right, s)
    if isinstance(b, BNot):
        return not eval_bool(b.arg, s)
    if isinstance(b, BAnd):
        return eval_bool(b.left, s) and eval_bool(b.right, s)
    if isinstance(b, BOr):
        return eval_bool(b.left, s) or eval_bool(b.right, s)
    raise TypeError(f"not a boolean expression: {b!r}")


def eval_assertion_ref(a, s: State, quant_bound: int) -> tuple[bool, bool]:
    """``assertions.eval_assertion`` case by case: (value, bounded), a
    side that decides a connective with certainty cutting the other."""
    if isinstance(a, Bool):
        return eval_bool(a.expr, s), False
    if isinstance(a, Not):
        v, fl = eval_assertion_ref(a.arg, s, quant_bound)
        return (not v), fl
    if isinstance(a, (And, Or, Implies)):
        lv, lf = eval_assertion_ref(a.left, s, quant_bound)
        if isinstance(a, Implies):
            lv = not lv
        if isinstance(a, And):
            if not lv and not lf:
                return False, False  # certainly false by the left alone
            rv, rf = eval_assertion_ref(a.right, s, quant_bound)
            if lv and rv:
                return True, lf or rf
            certain = (not lv and not lf) or (not rv and not rf)
            return False, not certain
        # Or / Implies
        if lv and not lf:
            return True, False  # certainly true by the left alone
        rv, rf = eval_assertion_ref(a.right, s, quant_bound)
        if not lv and not rv:
            return False, lf or rf
        certain = (lv and not lf) or (rv and not rf)
        return True, not certain
    if isinstance(a, Exists):
        bounded = False
        for v in range(quant_bound + 1):
            bv, bf = eval_assertion_ref(a.body, s.set(a.var, v), quant_bound)
            if bv and not bf:
                return True, False
            if bv:
                bounded = True  # witness exists but is bound-relative
        if bounded:
            return True, True
        return False, True  # range exhausted with no witness
    if isinstance(a, Forall):
        bounded = False
        for v in range(quant_bound + 1):
            bv, bf = eval_assertion_ref(a.body, s.set(a.var, v), quant_bound)
            if not bv and not bf:
                return False, False
            if not bv:
                bounded = True  # counterexample exists but is bound-relative
        if bounded:
            return False, True
        return True, True  # range exhausted while still true
    raise TypeError(f"not an assertion: {a!r}")


def past_bound(a, s: State, quant_bound: int, cap: int = 24) -> int | None:
    """A quantifier bound past every pinned or range term of ``a`` at
    ``s``, or None when that would pass ``cap``.  Every ``v = e``,
    ``v + t = e``, ``v <= e`` or ``e <= v`` in ``a`` with ``v`` not in
    ``e`` may pin or bound ``v`` by ``e``.  The tree-walker ranges each
    bound variable over the whole bound, so the bound is the least one,
    from ``quant_bound`` and the store's values up, that no such ``e``
    can pass when every bound variable is at the bound."""
    terms, binders = [], set()
    for t in subterms(a):
        if isinstance(t, (Exists, Forall)):
            binders.add(t.var)
        if isinstance(t, (Eq, Le)):
            for v, e in ((t.left, t.right), (t.right, t.left)):
                if isinstance(v, BinOp) and v.op == "+" and isinstance(t, Eq):
                    terms += [e for u in (v.left, v.right) if isinstance(u, Var) and u.name not in expr_vars(e)]
                elif isinstance(v, Var) and v.name not in expr_vars(e):
                    terms.append(e)
    bound = max([quant_bound, *(s.get(n) for n in free_vars(a))])

    def most(e) -> int:
        if isinstance(e, Var):
            return bound if e.name in binders else s.get(e.name)
        if isinstance(e, Const):
            return e.value
        l, r = most(e.left), most(e.right)
        return l + r if e.op == "+" else l * r if e.op == "*" else l  # -, / and % give at most l

    while (top := max(map(most, terms), default=0)) > bound:
        if top > cap:
            return None
        bound = top
    return bound


def exactness_error(a, s: State, quant_bound: int) -> str | None:
    """Why ``eval_assertion(a, s, quant_bound)``, the compiled evaluator's
    (value, bounded), is wrong by the tree-walker, or None.  Where the
    walker is unflagged, the pair must equal the walker's (so it is
    unflagged too).  An unflagged pair must hold at a larger bound, and
    its value must be the walker's at ``past_bound``, unless that bound
    is too large to walk."""
    got, ref = eval_assertion(a, s, quant_bound), eval_assertion_ref(a, s, quant_bound)
    if not ref[1]:
        return None if got == ref else f"{got} where the walker is unflagged: {ref}"
    if got[1]:
        return None
    if (wide := eval_assertion(a, s, quant_bound + 4)) != got:
        return f"exact {got} but {wide} at quant_bound {quant_bound + 4}"
    if (past := past_bound(a, s, quant_bound)) is None:
        return None
    exact = eval_assertion_ref(a, s, past)
    return None if got[0] == exact[0] else f"exact {got} but the walker's {exact} at quant_bound {past}"


def enumerate_states(names: Iterable[str], domain_max: int) -> Iterator[State]:
    """All stores over the given variables with values 0..domain_max, in
    lexicographic order of the name-sorted value tuple."""
    order = sorted(set(names))
    for values in itertools.product(range(domain_max + 1), repeat=len(order)):
        yield State(dict(zip(order, values)))


def entails_ref(hyp, concl, bounds: Bounds, extra_vars: Iterable[str] = (), evaluate=eval_assertion_ref) -> Verdict:
    """``assertions.entails`` over a box of ``State``s, both sides
    evaluated by ``evaluate`` at every store."""
    names = sorted(free_vars(hyp) | free_vars(concl) | set(extra_vars))
    flagged_cex = False
    valid_flags = False
    for s in enumerate_states(names, bounds.domain_max):
        hv, hf = evaluate(hyp, s, bounds.quant_bound)
        cv, cf = evaluate(concl, s, bounds.quant_bound)
        if hv and not cv:
            if not hf and not cf:
                return Verdict("invalid", witness=s)
            flagged_cex = True
        elif (hv or hf) and (not cv or cf):
            valid_flags = True
    if flagged_cex:
        return Verdict("unknown", reason="quantifier-bounded")
    if valid_flags:
        return Verdict("valid", flags=("quantifier-bounded",))
    return Verdict("valid")


# --- small steps by tree rewriting -------------------------------------------

Config = tuple[Prog, State]


def step_ref(config: Config) -> list[Config]:
    """Immediate successors, in deterministic order.  The terminated
    configuration (skip) has none; a choice has two."""
    p, s = config
    if isinstance(p, Empty):
        return []
    if isinstance(p, Assign):
        return [(Empty(), s.set(p.name, eval_expr(p.expr, s)))]
    if isinstance(p, While):
        if eval_bool(p.guard, s):
            return [(seq_of(p.body, p), s)]
        return [(Empty(), s)]
    if isinstance(p, Seq):
        if isinstance(p.first, Empty):
            # raw ε;C nodes (never produced by seq_of) unwrap in one step
            return [(p.second, s)]
        return [(seq_of(h, p.second), s2) for h, s2 in step_ref((p.first, s))]
    if isinstance(p, Choice):
        return [(p.left, s), (p.right, s)]
    raise TypeError(f"not a program: {p!r}")


def run_all_ref(p: Prog, s: State, step_bound: int) -> RunResult:
    """Breadth-first search over (program, store) configurations with
    dedup, the same caps as ``run_all`` and its finals order.  Its
    ``truncated`` also counts two runs merging into one configuration."""
    finals: dict[State, int] = {}
    visited: set[Config] = {(p, s)}
    frontier: list[Config] = [(p, s)]
    cycle = False
    overflow = False
    depth = 0
    work_cap = 8 * step_bound + 16384
    if isinstance(p, Empty):
        return RunResult({s: 0}, False, False)
    while frontier and depth < step_bound:
        depth += 1
        nxt: list[Config] = []
        for cfg in frontier:
            for succ in step_ref(cfg):
                if succ in visited:
                    cycle = True
                    continue
                q, s2 = succ
                if any(v.bit_length() > VALUE_BIT_CAP for _, v in s2._items):
                    overflow = True
                    continue
                if len(visited) >= work_cap:
                    return RunResult(finals, True, True)
                visited.add(succ)
                if isinstance(q, Empty):
                    finals.setdefault(s2, depth)
                else:
                    nxt.append(succ)
        frontier = nxt
    exhausted = bool(frontier) or overflow
    return RunResult(finals, exhausted or cycle, exhausted)


def has_cycle_ref(p: Prog, s: State) -> bool:
    """Whether some configuration reachable from (p, s) reaches itself:
    iterative depth-first search by ``step_ref``, a repeat on the current
    path being a cycle.  Only for runs that end within the caps."""
    on_path, done = {(p, s)}, set()
    stack = [((p, s), iter(step_ref((p, s))))]
    while stack:
        cfg, succs = stack[-1]
        for nxt in succs:
            if nxt in on_path:
                return True
            if nxt not in done:
                on_path.add(nxt)
                stack.append((nxt, iter(step_ref(nxt))))
                break
        else:
            stack.pop()
            on_path.discard(cfg)
            done.add(cfg)
    return False


# --- semantic transformers ---------------------------------------------------

StatePred = Callable[[State], bool]


# not a dataclass: perfbench/workloads.py loads this file by path, with no
# sys.modules entry, and @dataclass cannot resolve annotations there
class TransformerResult(NamedTuple):
    states: frozenset[State]
    truncated: bool


def transformer_set(
    kind: str,
    prog: Prog,
    pred: StatePred,
    bounds: Bounds,
    extra_vars: Iterable[str] = (),
) -> TransformerResult:
    """Enumerate one of the four semantic transformers over the bounded
    store space.

    wp / wpr : stores with some terminating run into the predicate
    wlp      : stores all of whose terminating runs land in the predicate
    sp       : final stores of some run from a predicate store
    slp      : final stores all of whose sources satisfy the predicate

    The enumeration ranges over the program's variables plus extra_vars;
    for sp/slp both sources and results are drawn from that space.
    """
    names = sorted(prog_vars(prog) | set(extra_vars))
    box = list(enumerate_states(names, bounds.domain_max))
    runs = {s: run_all(prog, s, bounds.step_bound) for s in box}
    truncated = any(r.exhausted for r in runs.values())
    out: set[State] = set()
    if kind in ("wp", "wpr"):
        out = {s for s, r in runs.items() if any(pred(f) for f in r.finals)}
    elif kind == "wlp":
        out = {s for s, r in runs.items() if all(pred(f) for f in r.finals)}
    elif kind == "sp":
        for s, r in runs.items():
            if pred(s):
                out.update(r.finals)
    elif kind == "slp":
        finals_all: set[State] = set()
        sources: dict[State, list[State]] = {}
        for s, r in runs.items():
            for f in r.finals:
                finals_all.add(f)
                sources.setdefault(f, []).append(s)
        out = {f for f in finals_all if all(pred(s) for s in sources[f])}
    else:
        raise ValueError(f"unknown transformer {kind!r}")
    return TransformerResult(frozenset(out), truncated)


# --- denotational final-store semantics --------------------------------------


def denot_finals(
    p: Prog, s: State, fuel: int, budget: int = 200_000
) -> tuple[frozenset[State], bool]:
    """Final stores of every terminating run, by structural recursion.

    ``fuel`` bounds loop unfoldings per path and ``budget`` bounds total
    recursive calls; the second component is False when either ran out
    (the returned set is then a subset of the true finals).
    """
    gas = [budget]

    def go(p: Prog, s: State, fuel: int) -> tuple[frozenset[State], bool]:
        if gas[0] <= 0:
            return frozenset(), False
        gas[0] -= 1
        if isinstance(p, Empty):
            return frozenset((s,)), True
        if isinstance(p, Assign):
            v = eval_expr(p.expr, s)
            if v.bit_length() > VALUE_BIT_CAP:
                # mirror run_all's value cut so both sides stay comparable
                return frozenset(), False
            return frozenset((s.set(p.name, v),)), True
        if isinstance(p, Seq):
            mids, complete = go(p.first, s, fuel)
            out: set[State] = set()
            for m in mids:
                f2, c2 = go(p.second, m, fuel)
                out |= f2
                complete = complete and c2
            return frozenset(out), complete
        if isinstance(p, Choice):
            f1, c1 = go(p.left, s, fuel)
            f2, c2 = go(p.right, s, fuel)
            return f1 | f2, c1 and c2
        if isinstance(p, While):
            if not eval_bool(p.guard, s):
                return frozenset((s,)), True
            if fuel <= 0:
                return frozenset(), False
            mids, complete = go(p.body, s, fuel)
            out = set()
            for m in mids:
                f2, c2 = go(p, m, fuel - 1)
                out |= f2
                complete = complete and c2
            return frozenset(out), complete
        raise TypeError(f"not a program: {p!r}")

    return go(p, s, fuel)


def wpr_states_ref(
    prog: Prog, post, states, fuel: int, quant_bound: int
) -> tuple[set[State], bool]:
    """States with some terminating run into the post, denotationally."""
    out: set[State] = set()
    complete = True
    for s in states:
        finals, c = denot_finals(prog, s, fuel)
        complete = complete and c
        if any(assert_holds(post, f, quant_bound) for f in finals):
            out.add(s)
    return out, complete


# --- minimal triple counterexamples ------------------------------------------


def min_triple_witness(pre, prog, post, states, step_bound: int, quant_bound: int, hoare: bool = False):
    """Minimal-length triple counterexample over the given initial states:
    (n, s0, f) with ⟨prog,s0⟩ →ⁿ ⟨ε,f⟩ and, for the reverse reading,
    f ⊨ post, s0 ⊭ pre, or for the Hoare reading (``hoare``) s0 ⊨ pre,
    f ⊭ post.  Runs are enumerated by tree rewriting."""
    best = None
    for s0 in states:
        if assert_holds(pre, s0, quant_bound) != hoare:
            continue
        rr = run_all_ref(prog, s0, step_bound)
        for f, n in rr.finals.items():
            if assert_holds(post, f, quant_bound) != hoare:
                cand = (n, s0.sort_key(), f.sort_key(), s0, f)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return best[0], best[3], best[4]


def check_triple_ref(logic: str, pre, prog: Prog, post, bounds: Bounds, evaluate=eval_assertion_ref) -> Verdict:
    """``semantics.check_triple`` over a box of ``State``s: every store's
    runs by tree rewriting, assertions by ``evaluate`` (tree walking), and
    candidate witnesses sorted by (run length or box index, box index,
    ``State.sort_key`` of the final)."""
    names = sorted(free_vars(pre) | free_vars(post) | prog_vars(prog))
    qb = bounds.quant_bound
    box = list(enumerate_states(names, bounds.domain_max))
    rows = [(s0, *evaluate(pre, s0, qb), run_all_ref(prog, s0, bounds.step_bound)) for s0 in box]
    clean, budget_risk, quant_risk = [], False, False
    if logic in ("partial-reverse", "partial-hoare"):
        hoare = logic == "partial-hoare"
        for idx, (s0, pv, pfl, r) in enumerate(rows):
            if pv == hoare or pfl:
                budget_risk = budget_risk or r.exhausted
                for f, depth in r.finals.items():
                    fv, ffl = evaluate(post, f, qb)
                    if fv != hoare or ffl:
                        if pv == hoare and not pfl and not ffl:
                            clean.append((depth, idx, f.sort_key(), (s0, f)))
                        else:
                            quant_risk = True
    elif logic == "total-hoare":
        for idx, (s0, pv, pfl, r) in enumerate(rows):
            finals = [evaluate(post, f, qb) for f in r.finals]
            if not (pv or pfl) or any(v and not fl for v, fl in finals):
                continue
            if r.exhausted:
                budget_risk = True
            elif pv and not pfl and not any(v or fl for v, fl in finals):
                clean.append((idx, (), (), s0))
            else:
                quant_risk = True
    else:
        cert = {f for s0, pv, pfl, r in rows if pv and not pfl for f in r.finals}
        poss = {f for s0, pv, pfl, r in rows if pv or pfl for f in r.finals}
        poss_exhausted = any(r.exhausted for s0, pv, pfl, r in rows if pv or pfl)
        for idx, f in enumerate(box):
            fv, ffl = evaluate(post, f, qb)
            if (fv or ffl) and f not in cert:
                if poss_exhausted:
                    budget_risk = True
                elif fv and not ffl and f not in poss:
                    clean.append((idx, (), (), f))
                else:
                    quant_risk = True
    if clean:
        return Verdict("invalid", witness=min(clean, key=lambda t: t[:3])[3])
    if budget_risk:
        return Verdict("unknown", reason="step-budget-exhausted")
    if quant_risk:
        return Verdict("unknown", reason="quantifier-bounded")
    return Verdict("valid")


# --- global soundness by path unrolling ---------------------------------------

_CORE = ("Cons", "OpenLeaf")


def unroll_global_ok(proof: CyclicPreProof, depth: int | None = None) -> bool:
    """Walk all paths (children + back-links) to depth 3·|nodes|; a run of
    more than |nodes| consecutive Cons/OpenLeaf steps betrays a cycle that
    never consumes program progress."""
    n = len(proof.nodes)
    if depth is None:
        depth = 3 * n
    succs = {nid: list(node.children) for nid, node in proof.nodes.items()}
    for leaf, comp in proof.backlinks.items():
        succs[leaf].append(comp)
    start = 1 if proof.nodes[proof.root].rule in _CORE else 0
    if start > n:
        return False
    seen = {(proof.root, start)}
    frontier = [(proof.root, start)]
    for _ in range(depth):
        nxt = []
        for nid, streak in frontier:
            for kid in succs[nid]:
                st = streak + 1 if proof.nodes[kid].rule in _CORE else 0
                if st > n:
                    return False
                if (kid, st) not in seen:
                    seen.add((kid, st))
                    nxt.append((kid, st))
        frontier = nxt
        if not frontier:
            break
    return True


# --- beta predicate replay ----------------------------------------------------


def decode_sequence(n: int, m: int, length: int) -> list[int]:
    """Read back a sequence coded by ``wp.encode_sequence``."""
    return [n % (1 + (i + 1) * m) for i in range(length)]


# --- assertions at face value --------------------------------------------------


def assert_holds(a, s: State, quant_bound: int) -> bool:
    """Bound-relative truth value, flags dropped."""
    return eval_assertion_ref(a, s, quant_bound)[0]


def models_tautology(a, bounds: Bounds, extra_vars: Iterable[str] = ()):
    """Is the assertion true in every store (up to the bounds)?"""
    return entails_ref(Bool(Eq(Const(0), Const(0))), a, bounds, extra_vars)


# --- random term generators -----------------------------------------------


def gen_expr(rng: random.Random, names, depth: int, const_max: int = 3):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Var(rng.choice(names))
        return Const(rng.randrange(const_max + 1))
    op = rng.choice(("+", "-", "*", "/", "%"))
    return BinOp(op, gen_expr(rng, names, depth - 1, const_max), gen_expr(rng, names, depth - 1, const_max))


def gen_bool(rng: random.Random, names, depth: int, const_max: int = 3):
    if depth <= 0 or rng.random() < 0.45:
        ctor = rng.choice((Eq, Le))
        return ctor(gen_expr(rng, names, 1, const_max), gen_expr(rng, names, 1, const_max))
    pick = rng.random()
    if pick < 0.25:
        return BNot(gen_bool(rng, names, depth - 1, const_max))
    ctor = BAnd if pick < 0.65 else BOr
    return ctor(gen_bool(rng, names, depth - 1, const_max), gen_bool(rng, names, depth - 1, const_max))


def gen_prog(rng: random.Random, names, depth: int, const_max: int = 3, loops: bool = True) -> Prog:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return Empty()
        return Assign(rng.choice(names), gen_expr(rng, names, 2, const_max))
    pick = rng.random()
    if pick < 0.45:
        return Seq(gen_prog(rng, names, depth - 1, const_max, loops), gen_prog(rng, names, depth - 1, const_max, loops))
    if pick < 0.75:
        return Choice(gen_prog(rng, names, depth - 1, const_max, loops), gen_prog(rng, names, depth - 1, const_max, loops))
    if loops:
        # guard shaped v <= c so most loops terminate under an increment
        v = rng.choice(names)
        guard = Le(Var(v), Const(rng.randrange(const_max + 1)))
        body = Seq(gen_prog(rng, names, depth - 1, const_max, loops), Assign(v, BinOp("+", Var(v), Const(1))))
        return While(guard, body)
    return Assign(rng.choice(names), gen_expr(rng, names, 2, const_max))


def denormalize(rng: random.Random, p: Prog) -> Prog:
    """The same program with sequencing out of normal form: ``skip``
    units added and sequences left-nested, recursively."""
    if isinstance(p, Seq):
        first, second = denormalize(rng, p.first), denormalize(rng, p.second)
        if isinstance(second, Seq) and rng.random() < 0.5:
            p = Seq(Seq(first, second.first), second.second)
        else:
            p = Seq(first, second)
    elif isinstance(p, Choice):
        p = Choice(denormalize(rng, p.left), denormalize(rng, p.right))
    elif isinstance(p, While):
        p = While(p.guard, denormalize(rng, p.body))
    pick = rng.random()
    if pick < 0.2:
        return Seq(Empty(), p)
    if pick < 0.3:
        return Seq(p, Empty())
    return p


def gen_assertion(rng: random.Random, names, depth: int, const_max: int = 3, quant: float = 0.0, guards: bool = False):
    """An assertion over ``names``; ``quant`` (True reads 0.2) is the share
    of inner nodes that are quantifiers, and with ``guards`` half of them
    are guarded the way the assertion compiler ranges exactly."""
    if depth <= 0 or rng.random() < 0.4:
        return Bool(gen_bool(rng, names, 1, const_max))
    pick = rng.random()
    if pick < (0.2 if quant is True else quant):
        ctor = Exists if rng.random() < 0.5 else Forall
        v = rng.choice(names)
        body = gen_assertion(rng, names, depth - 1, const_max, quant, guards)
        if guards and rng.random() < 0.5:
            # v = e, v + t = e or v < e, as a forall's antecedent or an
            # exists' conjunct
            e = gen_expr(rng, [n for n in names if n != v] or [v], 1, const_max)
            t = gen_expr(rng, [n for n in names if n != v] or [v], 0, const_max)
            guard = rng.choice((Eq(Var(v), e), Eq(BinOp("+", Var(v), t), e), BNot(Le(e, Var(v)))))
            body = Implies(Bool(guard), body) if ctor is Forall else And(Bool(guard), body)
        return ctor(v, body)
    if pick < 0.35:
        return Not(gen_assertion(rng, names, depth - 1, const_max, quant, guards))
    ctor = rng.choice((And, Or, Implies))
    return ctor(
        gen_assertion(rng, names, depth - 1, const_max, quant, guards),
        gen_assertion(rng, names, depth - 1, const_max, quant, guards),
    )


def gen_state(rng: random.Random, names, domain_max: int) -> State:
    return State({n: rng.randrange(domain_max + 1) for n in names})


# --- quantifier budget --------------------------------------------------------


def quantifier_count(a) -> int:
    """Number of quantifier nodes, a cheap evaluation-cost proxy."""
    if isinstance(a, Bool):
        return 0
    if isinstance(a, Not):
        return quantifier_count(a.arg)
    if isinstance(a, (And, Or, Implies)):
        return quantifier_count(a.left) + quantifier_count(a.right)
    if isinstance(a, (Exists, Forall)):
        return 1 + quantifier_count(a.body)
    raise TypeError(f"not an assertion: {a!r}")


class BudgetedOracle(BoundedOracle):
    """A ``BoundedOracle`` that answers Unknown at once, without
    enumerating, when the two sides of a question together carry more
    than ``quantifier_budget`` quantifiers: it keeps sweeps over
    beta-encoded loop formulas from spending exponential time."""

    def __init__(self, bounds: Bounds, quantifier_budget: int):
        super().__init__(bounds)
        self.quantifier_budget = quantifier_budget

    def entails(self, hyp, concl) -> Verdict:
        if quantifier_count(hyp) + quantifier_count(concl) > self.quantifier_budget:
            return Verdict("unknown", reason="quantifier-bounded", flags=("quantifier-budget",))
        return super().entails(hyp, concl)


# --- soundness sweep -----------------------------------------------------------


def sweep(seed: int, cases: int, bounds: Bounds, quantifier_budget: int = 4, depth: int = 3):
    """Random soundness sweep of the prover and the tree checker.

    Draws ``cases`` programs over x and y with a post and a pre (for a
    loop-free program, half of the time its weakest pre-formula), proves
    each triple in beta mode, checks the certificate again and tries to
    refute the root triple of every certificate accepted without bounded
    flags.  Returns the counts of triples refuted up front, of
    certificates flagged or bounded and of certificates accepted cleanly,
    and every refuted clean certificate as (case, triple, witness): a
    soundness violation.
    """
    names = ("x", "y")
    rng = random.Random(seed)
    oracle = BudgetedOracle(bounds, quantifier_budget)
    counts = {"refuted": 0, "flagged": 0, "clean": 0}
    violations = []
    for i in range(cases):
        prog = gen_prog(rng, names, depth, const_max=3, loops=True)
        post = gen_assertion(rng, names, 2, const_max=3)
        loop_free = "while " not in print_program(prog)
        if loop_free and rng.random() < 0.5:
            pre = wpr_formula(WprRequest(prog, post)).formula
        else:
            pre = gen_assertion(rng, names, 2, const_max=3)
        t = Triple(pre, prog, post)
        res = prove_prhl(ProveRequest(t, "beta", bounds), oracle)
        if res.proof is None:
            counts["refuted"] += 1
            continue
        rep = check_prhl(res.proof.to_proof(), oracle)
        if not rep.accepted or rep.bounded_flags:
            counts["flagged"] += 1
            continue
        counts["clean"] += 1
        v = check_triple("partial-reverse", t.pre, t.prog, t.post, bounds)
        if v.is_invalid:
            violations.append((i, t, v.witness))
    return counts, violations


# --- random cyclic pre-proof graphs ----------------------------------------


def gen_pre_proof(rng: random.Random, size: int) -> CyclicPreProof:
    """Random root-reachable node graph for global-soundness testing.

    Every open leaf gets a back-link, so the only failure mode in play is
    a progress-free cycle. Triples are irrelevant to the global condition,
    so one dummy label is shared; Cons is over-weighted to make such
    cycles reasonably frequent.
    """
    label = Triple(Bool(Eq(Const(0), Const(0))), Empty(), Bool(Eq(Const(0), Const(0))))
    ids = [f"g{i + 1}" for i in range(size)]
    children: dict[str, list[str]] = {nid: [] for nid in ids}
    # random tree over the ids, parent precedes child
    for i, nid in enumerate(ids[1:], start=1):
        children[ids[rng.randrange(i)]].append(nid)
    inner = [nid for nid in ids if children[nid]]
    nodes: dict[str, ProofNode] = {}
    backlinks: dict[str, str] = {}
    for nid in ids:
        kids = children[nid]
        if not kids:
            if inner and rng.random() < 0.7:
                rule = "OpenLeaf"
                backlinks[nid] = rng.choice(inner)
            else:
                rule = "Axiom"
        elif len(kids) == 1:
            rule = "Cons" if rng.random() < 0.6 else rng.choice(("AssignSubst", "AssignFresh"))
        else:
            rule = "Or" if rng.random() < 0.5 else "While"
        nodes[nid] = ProofNode(rule, label, tuple(kids))
    return CyclicPreProof(ids[0], nodes, backlinks)
