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
import json
import random
from dataclasses import fields, is_dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from prhl import semantics
from prhl.assertions import BoundedOracle, eval_assertion
from prhl.certificates import CyclicPreProof, PrhlProof, ProofNode, Triple
from prhl.checker import check_cprhl, check_prhl, cons_sides, guard_implies
from prhl.prover import ProveRequest, prove_prhl, transform_to_cyclic
from prhl.semantics import (
    LOGICS,
    STEP_DEPTH,
    VALUE_BIT_CAP,
    VALUE_WIDTH,
    WORK_CAP,
    Bounds,
    Compiled,
    RunResult,
    State,
    Verdict,
    check_triple,
    compile_assertions,
    compile_program,
    relevant_vars,
    run_all,
    store_tuples,
)
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
    FALSE,
    FALSE_BOOL,
    Forall,
    Implies,
    Le,
    Not,
    Or,
    ParseError,
    Prog,
    Seq,
    TRUE,
    TRUE_BOOL,
    Var,
    While,
    alpha_rename,
    canon,
    expr_vars,
    free_vars,
    fresh_var,
    live_vars,
    parse_program,
    print_assertion,
    print_program,
    prog_vars,
    seq_of,
    subst,
    tokenize,
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


# --- variables and substitution by walking the tree -----------------------------


def free_vars_ref(t, bound: bool = False) -> frozenset[str]:
    """The free variables of an expression, guard or assertion by recursion
    over its fields, recomputed on every path; with ``bound`` its binders'
    variables too."""
    if isinstance(t, Var):
        return frozenset({t.name})
    out = frozenset().union(*(free_vars_ref(v, bound) for f in fields(t) if is_dataclass(v := getattr(t, f.name))))
    if isinstance(t, (Exists, Forall)):
        return out | {t.var} if bound else out - {t.var}
    return out


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
        body_free = free_vars_ref(t.body)
        inner = [(k, v) for k, v in mapping.items() if k != t.var and k in body_free]
        if not inner:
            return t
        var, body = t.var, t.body
        cap = set().union(*(free_vars_ref(v) for _, v in inner))
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


# --- the eight-level descent parser and its printer ---------------------------


class _DescentParser:
    """Recursive descent, one method per precedence level, with explicit
    position save/restore: ``( ... )`` is first read as arithmetic and read
    again as an assertion when that fails, and inside an assignment's
    right-hand side a ``+`` that a new assignment follows starts a choice.
    The reference for the library's precedence-climbing parser."""

    def __init__(self, text, avoid=()):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.taken = {v for kind, v, _ in self.tokens if kind == "ident"} | set(avoid)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *values):
        kind, value, _ = self.peek()
        return value in values and kind in ("op", "kw")

    def expect(self, value):
        kind, got, pos = self.peek()
        if got != value or kind not in ("op", "kw"):
            raise ParseError(f"expected {value!r}, found {got or 'end of input'!r}", pos, self.text)
        self.pos += 1

    def fail(self, message):
        _, got, pos = self.peek()
        return ParseError(f"{message}, found {got or 'end of input'!r}", pos, self.text)

    def expr(self, assign_rhs=False):
        e = self.term()
        while self.at("+", "-"):
            save = self.pos
            _, op, _ = self.next()
            if op == "+" and assign_rhs:
                try:
                    rhs = self.term()
                except ParseError:
                    self.pos = save
                    break
                if self.at(":="):
                    self.pos = save
                    break
                e = BinOp(op, e, rhs)
                continue
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.at("*", "/", "%"):
            _, op, _ = self.next()
            e = BinOp(op, e, self.factor())
        return e

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "num":
            self.next()
            return Const(int(value))
        if kind == "ident":
            self.next()
            return Var(value)
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        raise self.fail("expected expression")

    def comparison(self):
        left = self.expr()
        if self.at("="):
            self.next()
            return Eq(left, self.expr())
        if self.at("<="):
            self.next()
            return Le(left, self.expr())
        if self.at("!="):
            self.next()
            return BNot(Eq(left, self.expr()))
        if self.at("<"):
            self.next()
            return BNot(Le(self.expr(), left))
        if self.at(">"):
            self.next()
            return BNot(Le(left, self.expr()))
        if self.at(">="):
            self.next()
            return Le(self.expr(), left)
        raise self.fail("expected comparison operator")

    def assertion(self):
        a = self.assert_or()
        if self.at("->"):
            self.next()
            return Implies(a, self.assertion())
        return a

    def assert_or(self):
        a = self.assert_and()
        while self.at("||"):
            self.next()
            a = Or(a, self.assert_and())
        return a

    def assert_and(self):
        a = self.assert_unary()
        while self.at("&&"):
            self.next()
            a = And(a, self.assert_unary())
        return a

    def assert_unary(self):
        if self.at("!"):
            self.next()
            return Not(self.assert_unary())
        if self.at("exists", "forall"):
            _, kw, _ = self.next()
            kind, name, pos = self.next()
            if kind != "ident":
                raise ParseError(f"expected variable after {kw!r}", pos, self.text)
            self.expect(".")
            body = self.assertion()
            return Exists(name, body) if kw == "exists" else Forall(name, body)
        if self.at("true"):
            self.next()
            return TRUE
        if self.at("false"):
            self.next()
            return FALSE
        save = self.pos
        try:
            return Bool(self.comparison())
        except ParseError:
            self.pos = save
        self.expect("(")
        a = self.assertion()
        self.expect(")")
        return a

    def guard(self):
        pos = self.peek()[2]
        a = canon(self.assert_or())
        if not isinstance(a, Bool):
            raise ParseError("a guard takes no quantifier or implication", pos, self.text)
        return a.expr

    def program(self):
        stmts = [self.choice()]
        while self.at(";"):
            self.next()
            stmts.append(self.choice())
        return seq_of(*stmts)

    def choice(self):
        p = self.statement()
        while self.at("+"):
            self.next()
            p = Choice(p, self.statement())
        return p

    def statement(self):
        kind, value, _ = self.peek()
        if self.at("skip"):
            self.next()
            return Empty()
        if self.at("while"):
            self.next()
            guard = self.guard()
            inv = None
            if self.at("invariant"):
                self.next()
                inv = canon(self.assertion())
            self.expect("do")
            body = self.statement()
            return While(guard, body, inv)
        if self.at("if"):
            self.next()
            cond = self.guard()
            self.expect("then")
            then = self.statement()
            self.expect("else")
            orelse = self.statement()
            t = fresh_var(self.taken, "t")
            self.taken.add(t)
            unset, done = Eq(Var(t), Const(0)), Assign(t, Const(1))
            return seq_of(
                Assign(t, Const(0)),
                While(BAnd(cond, unset), Seq(then, done)),
                While(BAnd(BNot(cond), unset), Seq(orelse, done)),
            )
        if self.at("{"):
            self.next()
            p = self.program()
            self.expect("}")
            return p
        if self.at("("):
            self.next()
            p = self.program()
            self.expect(")")
            return p
        if kind == "ident":
            self.next()
            self.expect(":=")
            return Assign(value, self.expr(assign_rhs=True))
        raise self.fail("expected statement")

    def done(self):
        kind, got, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input starting at {got!r}", pos, self.text)


def parse_program_ref(text: str, avoid=()) -> Prog:
    """``parse_program`` by the eight-level descent."""
    parser = _DescentParser(text, avoid)
    p = parser.program()
    parser.done()
    return p


def parse_assertion_ref(text: str):
    """``parse_assertion`` by the eight-level descent."""
    parser = _DescentParser(text)
    a = parser.assertion()
    parser.done()
    return canon(alpha_rename(a))


_EXPR_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}
_IMP, _OR, _AND = 1, 2, 3


def print_ref(t, parent: int = 0) -> str:
    """``print_assertion`` with a branch per connective and its own
    precedences, no memo: the reference for the table-driven printer."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, BinOp):
        prec = _EXPR_PREC[t.op]
        s = f"{print_ref(t.left, prec)} {t.op} {print_ref(t.right, prec + 1)}"
        return f"({s})" if prec < parent else s
    if t is TRUE_BOOL or t is FALSE_BOOL:
        return "true" if t is TRUE_BOOL else "false"
    if isinstance(t, (Eq, Le)):
        return f"{print_ref(t.left)} {'=' if isinstance(t, Eq) else '<='} {print_ref(t.right)}"
    if isinstance(t, BNot) and isinstance(t.arg, Eq):
        return f"{print_ref(t.arg.left)} != {print_ref(t.arg.right)}"
    if isinstance(t, BNot) and isinstance(t.arg, Le):
        return f"{print_ref(t.arg.right)} < {print_ref(t.arg.left)}"
    if isinstance(t, (BNot, Not)):
        return f"!({print_ref(t.arg)})"
    if isinstance(t, Bool):
        return print_ref(t.expr, parent)
    if isinstance(t, (BAnd, And, BOr, Or)):
        prec, op = (_AND, "&&") if isinstance(t, (BAnd, And)) else (_OR, "||")
        s = f"{print_ref(t.left, prec)} {op} {print_ref(t.right, prec + 1)}"
        return f"({s})" if prec < parent else s
    if isinstance(t, Implies):
        s = f"{print_ref(t.left, _IMP + 1)} -> {print_ref(t.right, _IMP)}"
        return f"({s})" if _IMP < parent else s
    if isinstance(t, (Exists, Forall)):
        s = f"{'exists' if isinstance(t, Exists) else 'forall'} {t.var}. {print_ref(t.body)}"
        return f"({s})" if parent > 0 else s
    raise TypeError(f"not a printable term: {t!r}")


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


def entails_loop_ref(hyp, concl, bounds: Bounds, extra_vars: Iterable[str] = ()) -> Verdict:
    """``assertions.entails`` store by store: both sides compiled once,
    the conclusion run at every store of the box in order and the
    hypothesis only where that is not certain."""
    names = sorted(free_vars(hyp) | free_vars(concl) | set(extra_vars))
    h, c = compile_assertions(names, bounds.quant_bound, hyp, concl)
    flagged_cex = False
    valid_flags = False
    for st in store_tuples(names, bounds.domain_max):
        cv, cf = c(st)
        if cv and not cf:
            continue  # certainly inside the conclusion: no branch below fires
        hv, hf = h(st)
        if not hv and not hf:
            continue  # certainly outside the hypothesis
        if hv and not cv:
            if not hf and not cf:
                return Verdict("invalid", witness=State(zip(names, st)))
            flagged_cex = True
        elif not cv or cf:
            # no counterexample at face value, but bounds decided it
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
        return RunResult({s: 0}, False, None)
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
                    return RunResult(finals, True, WORK_CAP)
                visited.add(succ)
                if isinstance(q, Empty):
                    finals.setdefault(s2, depth)
                else:
                    nxt.append(succ)
        frontier = nxt
    cause = STEP_DEPTH if frontier else VALUE_WIDTH if overflow else None
    return RunResult(finals, cause is not None or cycle, cause)


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
    clean, budget_risk, quant_risk = [], None, False  # budget_risk: the first cut row's cause
    if logic in ("partial-reverse", "partial-hoare"):
        hoare = logic == "partial-hoare"
        for idx, (s0, pv, pfl, r) in enumerate(rows):
            if pv == hoare or pfl:
                budget_risk = budget_risk or r.cause
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
                budget_risk = budget_risk or r.cause
            elif pv and not pfl and not any(v or fl for v, fl in finals):
                clean.append((idx, (), (), s0))
            else:
                quant_risk = True
    else:
        cert = {f for s0, pv, pfl, r in rows if pv and not pfl for f in r.finals}
        poss = {f for s0, pv, pfl, r in rows if pv or pfl for f in r.finals}
        poss_cut = next((r.cause for s0, pv, pfl, r in rows if (pv or pfl) and r.exhausted), None)
        for idx, f in enumerate(box):
            fv, ffl = evaluate(post, f, qb)
            if (fv or ffl) and f not in cert:
                if poss_cut:
                    budget_risk = poss_cut
                elif fv and not ffl and f not in poss:
                    clean.append((idx, (), (), f))
                else:
                    quant_risk = True
    if clean:
        return Verdict("invalid", witness=min(clean, key=lambda t: t[:3])[3])
    if budget_risk:
        return Verdict("unknown", reason=budget_risk)
    if quant_risk:
        return Verdict("unknown", reason="quantifier-bounded")
    return Verdict("valid")


def explore(c: Compiled, store: tuple, step_bound: int) -> RunResult:
    """The runs of the compiled program ``c`` from one store tuple, by a
    breadth-first search of their own: ``run_all``'s finals (store tuples,
    in the order reached) and cause.  It looks for no cycle, so
    ``truncated`` is ``exhausted``.  The work cap is read through the
    module, so a test that patches ``semantics.work_cap`` patches it here."""
    if c.start == 0:
        return RunResult({store: 0}, False, None)
    cfg0 = (c.start, store)
    # assignments check the value they store; only the initial store can
    # carry a value past the cap into another step
    dirty = any(v.bit_length() > VALUE_BIT_CAP for v in store)
    visited = {cfg0}
    frontier = [cfg0]
    finals: dict[tuple, int] = {}
    overflow = False
    depth = 0
    cap = semantics.work_cap(step_bound)
    while frontier and depth < step_bound:
        depth += 1
        nxt = []
        for lab, st in frontier:
            for succ in c.steps[lab](st):
                if succ in visited:
                    continue
                if succ[0] is None or dirty and any(v.bit_length() > VALUE_BIT_CAP for v in succ[1]):
                    overflow = True
                    continue
                if len(visited) >= cap:
                    return RunResult(finals, True, WORK_CAP)
                visited.add(succ)
                if succ[0]:
                    nxt.append(succ)
                else:
                    finals[succ[1]] = depth
        frontier = nxt
        dirty = False
    cause = STEP_DEPTH if frontier else VALUE_WIDTH if overflow else None
    return RunResult(finals, cause is not None, cause)


def check_triple_rows_ref(logic: str, pre, prog: Prog, post, bounds: Bounds) -> Verdict:
    """``semantics.check_triple`` with one ``explore`` per start store:
    the same liveness-pruned box, compiled program and assertions, but
    each start that can witness gets its own row and its own BFS, and the
    verdict is read row by row in box order."""
    if logic not in LOGICS:
        raise ValueError(f"unknown logic {logic!r}")
    names = relevant_vars(pre, prog, post)
    compiled = compile_program(prog, names)
    pre_of, post_of = compile_assertions(names, bounds.quant_bound, pre, post)
    out = names if logic == "incorrectness" else free_vars(post)
    live = free_vars(pre) | live_vars(prog, out)
    axes = [range(bounds.domain_max + 1) if n in live else (0,) for n in names]
    side = logic != "partial-reverse"
    rows = []  # (box index, s0, its pre value bound-relative, the runs from s0)
    for idx, s0 in enumerate(itertools.product(*axes)):
        pv, pfl = pre_of(s0)
        if pfl or pv == side:
            rows.append((idx, s0, pfl, explore(compiled, s0, bounds.step_bound)))
    clean: list[tuple] = []  # (depth/index, index, final, stores of the witness)
    budget_risk = None
    quant_risk = False
    if logic in ("partial-reverse", "partial-hoare"):
        hoare = logic == "partial-hoare"
        for idx, s0, pre_flags, r in rows:
            budget_risk = budget_risk or r.cause
            for f, depth in r.finals.items():
                fv, ffl = post_of(f)
                if fv == hoare and not ffl:
                    continue
                if not pre_flags and not ffl:
                    clean.append((depth, idx, f, (s0, f)))
                else:
                    quant_risk = True
    elif logic == "total-hoare":
        for idx, s0, pre_flags, r in rows:
            finals = [post_of(f) for f in r.finals]
            if any(v and not fl for v, fl in finals):
                continue
            if r.exhausted:
                budget_risk = budget_risk or r.cause
            elif not pre_flags and not any(v or fl for v, fl in finals):
                clean.append((idx, 0, (), (s0,)))
            else:
                quant_risk = True
    else:
        reach_cert: set[tuple] = set()
        reach_poss: set[tuple] = set()
        poss_cut = None
        for *_, pre_flags, r in rows:
            if not pre_flags:
                reach_cert.update(r.finals)
            reach_poss.update(r.finals)
            poss_cut = poss_cut or r.cause
        for idx, f in enumerate(store_tuples(names, bounds.domain_max)):
            fv, ffl = post_of(f)
            if not fv and not ffl or f in reach_cert:
                continue
            if poss_cut:
                budget_risk = poss_cut
            elif fv and not ffl and f not in reach_poss:
                clean.append((idx, 0, (), (f,)))
            else:
                quant_risk = True
    if clean:
        *_, stores = min(clean, key=lambda t: (t[0], t[1], [(n, v) for n, v in zip(names, t[2]) if v]))
        witness = tuple(State(zip(names, st)) for st in stores)
        return Verdict("invalid", witness=witness if len(witness) == 2 else witness[0])
    if budget_risk:
        return Verdict("unknown", reason=budget_risk)
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


# --- the recursive tree path: prover and transform ------------------------------


class PrhlNode(NamedTuple):
    """A derivation as a recursive tree.  The checker tests build proofs
    with it, and the reference prover and transform below work on it."""

    rule: str
    triple: Triple
    children: tuple = ()

    def to_proof(self) -> PrhlProof:
        """Assign preorder ids n1, n2, ... and flatten."""
        nodes: dict[str, ProofNode] = {}

        def walk(node: PrhlNode) -> str:
            nid = f"n{len(nodes) + 1}"
            nodes[nid] = None  # reserve the preorder slot
            kids = tuple(walk(c) for c in node.children)
            nodes[nid] = ProofNode(node.rule, node.triple, kids)
            return nid

        return PrhlProof(walk(self), nodes)


def to_tree(proof: PrhlProof) -> PrhlNode:
    """Inverse of ``PrhlNode.to_proof`` (ids dropped)."""

    def walk(nid: str) -> PrhlNode:
        n = proof.nodes[nid]
        return PrhlNode(n.rule, n.triple, tuple(walk(c) for c in n.children))

    return walk(proof.root)


def prove_tree_ref(t: Triple, loop_mode: str, oracle: BoundedOracle) -> tuple[PrhlNode, list[str]]:
    """The derivation ``prove_prhl`` makes of ``t`` (semantic pre-check
    left out), built by recursion down the program, with the places of
    its side conditions in the order they are asked."""
    wp_mode = "beta" if loop_mode == "beta" else "invariant"
    sides: list[str] = []

    def cons(target: Triple, child: PrhlNode, where: str) -> PrhlNode:
        if target == child.triple:
            return child
        sides.extend(f"{where}: {name}" for name, *_ in cons_sides(oracle, target, child.triple))
        return PrhlNode("Cons", target, (child,))

    def prove(prog: Prog, post) -> PrhlNode:
        if isinstance(prog, Empty):
            return PrhlNode("Axiom", Triple(post, prog, post))
        if isinstance(prog, Assign):
            return PrhlNode("Assign", Triple(canon(subst(post, [(prog.name, prog.expr)])), prog, post))
        if isinstance(prog, Seq):
            t2 = prove(prog.second, post)
            t1 = prove(prog.first, t2.triple.pre)
            return PrhlNode("Seq", Triple(t1.triple.pre, prog, post), (t1, t2))
        if isinstance(prog, Choice):
            tl, tr = prove(prog.left, post), prove(prog.right, post)
            w = canon(Or(tl.triple.pre, tr.triple.pre))
            cl = cons(Triple(w, prog.left, post), tl, "choice left branch")
            cr = cons(Triple(w, prog.right, post), tr, "choice right branch")
            return PrhlNode("Or", Triple(w, prog, post), (cl, cr))
        w = wpr_formula(WprRequest(prog, post, wp_mode)).formula
        inner = prove(prog.body, w)
        body_kid = cons(Triple(guard_implies(prog.guard, w), prog.body, w), inner, "loop body")
        wnode = PrhlNode("While", Triple(w, prog, guard_implies(prog.guard, w, negate=True)), (body_kid,))
        return cons(Triple(w, prog, post), wnode, "loop exit")

    prog = seq_of(t.prog)
    return cons(Triple(t.pre, prog, t.post), prove(prog, t.post), "root"), sides


def transform_tree_ref(p: PrhlNode, continuation: Prog, r) -> CyclicPreProof:
    """``transform_to_cyclic`` by recursion down the tree, with each
    leaf's closing passed down as a continuation function."""
    nodes: dict[str, ProofNode] = {}
    backlinks: dict[str, str] = {}

    def reserve() -> str:
        nid = f"c{len(nodes) + 1}"
        nodes[nid] = None  # keep creation order
        return nid

    def fill(nid: str, rule: str, triple: Triple, kids: tuple[str, ...] = ()) -> str:
        nodes[nid] = ProofNode(rule, triple, kids)
        return nid

    def top_close(label: Triple, env: dict) -> str:
        closed = isinstance(seq_of(label.prog), Empty) and canon(label.pre) is canon(label.post)
        return fill(reserve(), "Axiom" if closed else "OpenLeaf", label)

    def walk(n: PrhlNode, cont: Prog, env: dict, close) -> str:
        t = n.triple
        if n.rule == "Axiom":
            return close(Triple(t.post, cont, r), env)
        if n.rule == "Seq":
            t1, t2 = n.children
            return walk(t1, seq_of(t2.triple.prog, cont), env, lambda _, env2: walk(t2, cont, env2, close))
        nid = reserve()
        label = Triple(t.pre, seq_of(t.prog, cont), r)
        if n.rule == "Assign":
            return fill(nid, "AssignSubst", label, (close(Triple(t.post, cont, r), env),))
        if n.rule == "Cons":

            def close_cons(inner: Triple, env2: dict) -> str:
                cid = reserve()
                return fill(cid, "Cons", inner, (close(Triple(t.post, cont, r), env2),))

            return fill(nid, "Cons", label, (walk(n.children[0], cont, env, close_cons),))
        if n.rule == "Or":
            k1 = walk(n.children[0], cont, env, close)
            return fill(nid, "Or", label, (k1, walk(n.children[1], cont, env, close)))
        env2 = {**env, label: nid}  # While
        exit_kid = close(Triple(t.post, cont, r), env2)

        def close_loop(_, env3: dict) -> str:
            lid = fill(reserve(), "OpenLeaf", label)
            if label in env3:
                backlinks[lid] = env3[label]
            return lid

        return fill(nid, "While", label, (exit_kid, walk(n.children[0], label.prog, env2, close_loop)))

    return CyclicPreProof(walk(p, seq_of(continuation), {}, top_close), nodes, backlinks)


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


def render(t: Triple) -> str:
    """A triple as ``[| pre |] prog [| post |]``."""
    return f"[| {print_assertion(t.pre)} |] {print_program(t.prog)} [| {print_assertion(t.post)} |]"


def sweep(seed: int, cases: int, bounds: Bounds, quantifier_budget: int = 4, depth: int = 3):
    """Random soundness sweep of the prover, the transform and both checkers.

    Draws ``cases`` programs over x and y with a post and a pre (for a
    loop-free program, half of the time its weakest pre-formula), proves
    each triple in beta mode, checks the certificate again and tries to
    refute the root triple of every certificate accepted without bounded
    flags; each such certificate is also transformed and the cyclic
    checker must accept the result.  Returns the counts of triples
    refuted up front, of certificates flagged or bounded, of certificates
    accepted cleanly and of their transforms rejected, and each
    violation as (case, triple, witness): a refuted clean certificate,
    or a rejected transform with the reason as its witness.
    """
    names = ("x", "y")
    rng = random.Random(seed)
    oracle = BudgetedOracle(bounds, quantifier_budget)
    counts = {"refuted": 0, "flagged": 0, "clean": 0, "transform-rejected": 0}
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
        rep = check_prhl(res.proof, oracle)
        if not rep.accepted or rep.bounded_flags:
            counts["flagged"] += 1
            continue
        counts["clean"] += 1
        v = check_triple("partial-reverse", t.pre, t.prog, t.post, bounds)
        if v.is_invalid:
            violations.append((i, t, v.witness))
        cyc = check_cprhl(transform_to_cyclic(res.proof, Empty(), t.post), oracle)
        if not cyc.accepted:
            counts["transform-rejected"] += 1
            why = next((f"{r.node}: {r.detail}" for r in cyc.nodes.values() if not r.ok), cyc.global_status)
            violations.append((i, t, f"transform rejected: {why}"))
    return counts, violations


# --- certificates with their triples as text -----------------------------------


def serialize_proof_text(proof: PrhlProof | CyclicPreProof) -> str:
    """The certificate with each triple field as its concrete syntax, the
    layout certificates had before the term table; ``parse_proof`` reads
    it too.  Each distinct term is printed once."""
    printed: dict = {}

    def text(show, t) -> str:
        if (show, t) not in printed:
            printed[show, t] = show(t)
        return printed[show, t]

    doc: dict = {
        "system": "cprhl" if isinstance(proof, CyclicPreProof) else "prhl",
        "root": proof.root,
        "nodes": {
            nid: {
                "rule": n.rule,
                "triple": {
                    "pre": text(print_assertion, n.triple.pre),
                    "prog": text(print_program, n.triple.prog),
                    "post": text(print_assertion, n.triple.post),
                },
                "children": list(n.children),
                **({"fresh": n.fresh} if n.fresh is not None else {}),
            }
            for nid, n in proof.nodes.items()
        },
    }
    if isinstance(proof, CyclicPreProof):
        doc["backlinks"] = dict(sorted(proof.backlinks.items()))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
