"""Seeded inputs for the three workloads, with their expected answers.

``build(workload, seed, workdir)`` writes the input files and returns the
query list.  Every query carries a ``check`` that judges the CLI's
answer against a reference that does not come from the code under test:
the denotational interpreter and ``wpr_states_ref`` in
``tests/oracles.py``, and this package's own reader for assertions.
Categories are interleaved round-robin, so any prefix of the list (a run
stops mid-pass) has nearly the mix of the whole list.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from functools import lru_cache
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import product
from pathlib import Path
from typing import Callable

from prhl.semantics import State
from prhl.syntax import (
    And,
    Assign,
    BAnd,
    BinOp,
    BNot,
    Bool,
    BOr,
    Choice,
    Const,
    Empty,
    Eq,
    Implies,
    Le,
    Not,
    Or,
    Seq,
    Var,
    While,
)

from prhltext import read_formula, show

ROOT = Path(__file__).resolve().parent.parent
LOGICS = ("partial-reverse", "partial-hoare", "total-hoare", "incorrectness")
# loop unfoldings the reference follows per path; every terminating loop
# in decide/certify inputs runs fewer times, every diverging one more
REF_FUEL = 40
QUANT_BOUND = 4


def _load_oracles():
    """tests/oracles.py, loaded by path (tests/ is not a package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("prhl_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


oracles = _load_oracles()


@dataclass
class Query:
    """One closed-loop request: CLI invocations run in order while each
    exits 0 or 2.  ``check`` maps the (exit code, stdout) of every step
    that ran to None (correct) or a reason."""

    qid: str
    steps: list[list[str]]
    check: Callable[[list[tuple[int, str]]], str | None] = field(repr=False)


# --- term construction -------------------------------------------------------


def seq(*parts):
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Seq(p, out)
    return out


def lt(a, b):
    return BNot(Le(b, a))


def if_desugared(cond, then, orelse, flag):
    """``if cond then A else B`` in the parser's own desugared form,
    written out so the flag is an ordinary, dead-on-entry variable."""
    unset = Eq(Var(flag), Const(0))
    done = Assign(flag, Const(1))
    return seq(
        Assign(flag, Const(0)),
        While(BAnd(cond, unset), Seq(then, done)),
        While(BAnd(BNot(cond), unset), Seq(orelse, done)),
    )


def rand_expr(rng, names, depth=1, cmax=3):
    if depth <= 0 or rng.random() < 0.35:
        return Var(rng.choice(names)) if rng.random() < 0.6 else Const(rng.randint(0, cmax))
    op = rng.choice("+++--*%")
    return BinOp(op, rand_expr(rng, names, depth - 1, cmax), rand_expr(rng, names, depth - 1, cmax))


def rand_cmp(rng, names, cmax=4):
    left = rand_expr(rng, names, 1, cmax)
    right = Const(rng.randint(0, cmax)) if rng.random() < 0.5 else rand_expr(rng, names, 1, cmax)
    return rng.choice((Eq, Le, lt))(left, right)


def var_cmp(rng, var, names, cmax=4):
    """A comparison that mentions ``var``, so the boxes an assertion
    spans do not shrink by chance."""
    return rng.choice((Eq, Le, lt))(Var(var), rand_expr(rng, names, 1, cmax))


def rand_bool(rng, names, depth=1):
    if depth <= 0 or rng.random() < 0.4:
        return rand_cmp(rng, names)
    pick = rng.random()
    if pick < 0.2:
        return BNot(rand_bool(rng, names, depth - 1))
    ctor = BAnd if pick < 0.6 else BOr
    return ctor(rand_bool(rng, names, depth - 1), rand_bool(rng, names, depth - 1))


def rand_assertion(rng, names, depth=2):
    if depth <= 0 or rng.random() < 0.3:
        return Bool(rand_cmp(rng, names))
    pick = rng.random()
    if pick < 0.15:
        return Not(rand_assertion(rng, names, depth - 1))
    ctor = And if pick < 0.5 else Or if pick < 0.8 else Implies
    return ctor(rand_assertion(rng, names, depth - 1), rand_assertion(rng, names, depth - 1))


def rand_assign(rng, names, targets=None, cmax=3):
    return Assign(rng.choice(targets or names), rand_expr(rng, names, 2, cmax))


def term_vars(t) -> set[str]:
    """Variables of a generated term, as the CLI collects them (a loop's
    invariant annotation does not count)."""
    if isinstance(t, Var):
        return {t.name}
    out = {t.name} if isinstance(t, Assign) else set()
    for f in fields(t):
        v = getattr(t, f.name)
        if f.name != "invariant" and is_dataclass(v):
            out |= term_vars(v)
    return out


# --- reference side ------------------------------------------------------------


@contextmanager
def deep_recursion(limit=20000):
    """The denotational reference recurses once per statement; the CLI
    runs under the default limit, so only the reference gets more."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def holds(a) -> Callable[[State], bool]:
    f = read_formula(show(a))
    return lambda s: bool(f(s.as_dict()))


def state_of(obj) -> State:
    if not isinstance(obj, dict) or not all(isinstance(v, int) for v in obj.values()):
        raise ValueError(f"not a store: {obj!r}")
    return State(obj)


class TripleRef:
    """Reference decision of a triple over the box of stores the CLI
    enumerates: every variable of the triple, each 0..domain_max."""

    def __init__(self, pre, prog, post, domain_max):
        self.pre, self.prog, self.post = holds(pre), prog, holds(post)
        self.names = sorted(term_vars(pre) | term_vars(prog) | term_vars(post))
        self.domain_max = domain_max
        self.box = [State(dict(zip(self.names, vals))) for vals in product(range(domain_max + 1), repeat=len(self.names))]
        self.runs = {s: oracles.denot_finals(prog, s, REF_FUEL) for s in self.box}

    def verdict(self, logic: str) -> str:
        """valid / invalid / unknown, the last when a run the verdict
        depends on diverges and no counterexample exists."""
        pre, post, runs = self.pre, self.post, self.runs
        if logic == "partial-reverse":
            cex = any(not pre(s) and any(map(post, f)) for s, (f, _) in runs.items())
            risk = any(not pre(s) and not c for s, (_, c) in runs.items())
        elif logic == "partial-hoare":
            cex = any(pre(s) and not all(map(post, f)) for s, (f, _) in runs.items())
            risk = any(pre(s) and not c for s, (_, c) in runs.items())
        elif logic == "total-hoare":
            cex = any(pre(s) and c and not any(map(post, f)) for s, (f, c) in runs.items())
            risk = any(pre(s) and not c and not any(map(post, f)) for s, (f, c) in runs.items())
        elif logic == "incorrectness":
            reach = set().union(*(f for s, (f, _) in runs.items() if pre(s)))
            missed = any(post(f) and f not in reach for f in self.box)
            risk = missed and any(pre(s) and not c for s, (_, c) in runs.items())
            cex = missed and not risk
        else:
            raise ValueError(logic)
        return "invalid" if cex else "unknown" if risk else "valid"

    def witness_error(self, logic: str, w) -> str | None:
        """None when ``w`` (machine-format witness) is a genuine
        counterexample for ``logic``."""
        try:
            if logic in ("partial-reverse", "partial-hoare"):
                s0, f = (state_of(x) for x in w)
            else:
                s0 = f = state_of(w)
        except (TypeError, ValueError) as exc:
            return f"malformed witness: {exc}"
        if s0 not in self.runs:
            return f"witness store {s0} is outside the box"
        finals, complete = self.runs[s0]
        if logic == "partial-reverse":
            ok = not self.pre(s0) and f in finals and self.post(f)
        elif logic == "partial-hoare":
            ok = self.pre(s0) and f in finals and not self.post(f)
        elif logic == "total-hoare":
            ok = self.pre(s0) and complete and not any(map(self.post, finals))
        else:
            ok = self.post(f) and all(
                c and f not in fs for s, (fs, c) in self.runs.items() if self.pre(s)
            )
        return None if ok else f"witness {w} is not a counterexample"


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


EXIT_OF = {"valid": 0, "invalid": 1, "unknown": 2}


def check_decide(ref: TripleRef, logic: str, expected: str):
    def check(answer):
        (code, out), = answer
        doc = _json(out)
        if doc is None:
            return "output is not JSON"
        verdict = doc.get("verdict") or {}
        kind = verdict.get("kind")
        if kind != expected or code != EXIT_OF[expected]:
            return f"expected {expected} (exit {EXIT_OF[expected]}), got {kind} (exit {code})"
        if kind == "invalid":
            return ref.witness_error(logic, verdict.get("witness"))
        return None

    return check


def check_chain(ref: TripleRef, expected: str, bounded_ok: bool):
    """prove -> check-proof -> transform -> check-proof.  A refutation
    must be genuine; every certificate must be accepted; exit 2 (bounded)
    is allowed only where quantifiers make it expected (beta mode)."""

    def check(answer):
        code, out = answer[0]
        doc = _json(out) or {}
        status = doc.get("status")
        if expected == "invalid":
            if status != "refuted" or code != 1 or len(answer) != 1:
                return f"expected refuted (exit 1), got {status} (exit {code})"
            return ref.witness_error("partial-reverse", (doc.get("verdict") or {}).get("witness"))
        exits = (0, 2) if bounded_ok else (0,)
        allowed = {"proved", "proved-bounded", "unknown"} if bounded_ok else {"proved"}
        if status not in allowed or code not in exits:
            return f"prove status {status} (exit {code})"
        if len(answer) != 4:
            return f"chain stopped after {len(answer)} steps"
        for step, (c, o) in zip(("check-proof", "transform", "check-proof"), answer[1:]):
            if (_json(o) or {}).get("accepted") is not True or c not in exits:
                return f"{step} did not accept (exit {c})"
        return None

    return check


def check_run(expected: frozenset[State]):
    def check(answer):
        (code, out), = answer
        doc = _json(out)
        if code != 0 or doc is None or doc.get("exhausted") is not False:
            return f"expected a complete run (exit 0), got exit {code}"
        try:
            got = frozenset(state_of(f["state"]) for f in doc["finals"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed finals: {exc}"
        if got != expected:
            return f"finals differ: {len(got)} reported, {len(expected)} expected"
        return None

    return check


# queries that draw the same loop bound print the same formula
read_formula_once = lru_cache(maxsize=4)(read_formula)


def check_unroll(samples: list[State], expected: set[State]):
    def check(answer):
        (code, out), = answer
        doc = _json(out)
        if code != 2 or doc is None or doc.get("exact") is not False:
            return f"expected an inexact formula (exit 2), got exit {code}"
        try:
            with deep_recursion():
                f = read_formula_once(doc["formula"])
                got = {s for s in samples if f(s.as_dict())}
        except (KeyError, ValueError, RecursionError) as exc:
            return f"unreadable formula: {exc}"
        if got != expected:
            return f"formula holds on {len(got)} sample stores, reference on {len(expected)}"
        return None

    return check


# --- workloads -----------------------------------------------------------------


class _Writer:
    def __init__(self, workdir: Path):
        self.dir = workdir
        self.n = 0

    def triple(self, pre, prog, post) -> str:
        self.n += 1
        path = self.dir / f"t{self.n}.triple"
        path.write_text(f"pre: {show(pre)}\nprog: {show(prog)}\npost: {show(post)}\n")
        return str(path)

    def program(self, prog) -> str:
        self.n += 1
        path = self.dir / f"p{self.n}.while"
        path.write_text(show(prog) + "\n")
        return str(path)


TRUE = Bool(Eq(Const(0), Const(0)))


def sample(make, want: str, logic: str = "partial-reverse", tries: int = 200):
    """Draw ``make()`` -> (pre, prog, post, domain_max) until the
    reference verdict for ``logic`` is ``want``; categories with a fixed
    verdict keep every run's mix of answers the same."""
    for _ in range(tries):
        pre, prog, post, dmax = make()
        ref = TripleRef(pre, prog, post, dmax)
        if ref.verdict(logic) == want:
            return pre, prog, post, ref
    raise RuntimeError(f"no {want} triple for {logic} in {tries} draws")


def _decide_triple(rng, kind, logic):
    """(pre, prog, post, reference, step_bound) for one decide template."""
    if kind == "diverge":
        # stores with a = k never leave the loop and the step budget ends
        # them; pre and post are drawn until the verdict depends on those
        # runs, so a quarter of decide answers are exit 2 on every seed
        users = ["a", "b", "c"]

        def make():
            k = rng.randint(0, 5)
            loop = While(Eq(Var("a"), Const(k)), Assign("b", BinOp("+", Var("b"), Const(1))))
            stuck = Bool(Eq(Var("a"), Const(k)))
            pre = Not(stuck) if logic == "partial-reverse" else stuck
            return pre, seq(rand_assign(rng, users, ["c"]), loop), rand_assertion(rng, users), 5

        return (*sample(make, "unknown", logic), 120)
    if kind == "ifs":
        users, dmax = ["a", "b", "c"], 4
        then = rand_assign(rng, users)
        orelse = Choice(rand_assign(rng, users), rand_assign(rng, users))
        prog = seq(if_desugared(rand_bool(rng, users), then, orelse, "t1"), rand_assign(rng, users))
    elif kind == "counter":
        users, dmax = ["i", "x", "y", "z"], 5
        step = Assign("x", BinOp(rng.choice("+*"), Var("x"), rand_expr(rng, ["i", "y"], 1)))
        body = seq(step, Assign("i", BinOp("+", Var("i"), Const(1))))
        after = Assign("y", BinOp("+", Var("z"), rand_expr(rng, ["x", "i"], 1)))
        prog = seq(While(lt(Var("i"), Const(4)), body), after)
    elif kind == "choice":
        users, dmax = ["a", "b", "c", "d", "e"], 4

        def pair(x, y):
            return Choice(rand_assign(rng, users, [x]), rand_assign(rng, users, [y]))

        prog = seq(pair("a", "b"), rand_assign(rng, users, ["c"]), pair("d", "e"))
    else:
        raise ValueError(kind)
    pre = TRUE if rng.random() < 0.2 else rand_assertion(rng, users)
    post = TRUE if rng.random() < 0.1 else rand_assertion(rng, users)
    return pre, prog, post, TripleRef(pre, prog, post, dmax), 400


def _build_decide(rng, w: _Writer) -> list[Query]:
    # Cost tiers: diverge (216 stores) light; ifs (625 stores, longer
    # runs) and counter (1296 stores) middle; choice (3125 stores) heavy.
    # The median falls inside the middle tier and the tail (ten samples
    # beyond it) inside the heavy one, not between two tiers.  Costs
    # within the middle tier vary with the drawn triple, so a pass draws
    # 64 of them: the median moves less with the seed than over 32.
    kinds = ("ifs", "counter", "choice", "diverge")
    out = []
    for k in range(64):
        kind, logic = kinds[k % 4], LOGICS[(k // 4) % 4]
        pre, prog, post, ref, steps = _decide_triple(rng, kind, logic)
        argv = ["check-triple", w.triple(pre, prog, post), "--logic", logic, "--domain-max", str(ref.domain_max),
                "--step-bound", str(steps), "--format", "machine"]
        out.append(Query(f"q{k:02d}", [argv], check_decide(ref, logic, ref.verdict(logic))))
    return out


def wp_loopfree(prog, post):
    """Weakest pre-condition of a loop-free program, by substitution on
    this package's own terms."""

    def sub(t, name, e):
        if isinstance(t, Var):
            return e if t.name == name else t
        parts = {f.name: getattr(t, f.name) for f in fields(t)}
        return type(t)(**{k: sub(v, name, e) if is_dataclass(v) else v for k, v in parts.items()})

    if isinstance(prog, Empty):
        return post
    if isinstance(prog, Assign):
        return sub(post, prog.name, prog.expr)
    if isinstance(prog, Seq):
        return wp_loopfree(prog.first, wp_loopfree(prog.second, post))
    if isinstance(prog, Choice):
        return Or(wp_loopfree(prog.left, post), wp_loopfree(prog.right, post))
    raise TypeError(f"not loop-free: {prog!r}")


def _certify_triple(rng, kind):
    """(pre, prog, post, reference, prove flags, bounded answers allowed)."""
    xyz = ["x", "y", "z"]
    if kind in ("loopfree-wp", "refuted"):

        def make():
            prog = seq(rand_assign(rng, xyz, ["x"]),
                       Choice(rand_assign(rng, xyz, ["y"]), rand_assign(rng, xyz, ["z"])),
                       rand_assign(rng, xyz, ["x"]))
            post = rng.choice((And, Or))(Bool(var_cmp(rng, "x", xyz)), Bool(var_cmp(rng, "z", xyz)))
            pre = wp_loopfree(prog, post) if kind == "loopfree-wp" else rand_assertion(rng, xyz)
            return pre, prog, post, 4

        return (*sample(make, "valid" if kind == "loopfree-wp" else "invalid"), ["--domain-max", "4"], False)
    if kind in ("annotated", "annotated-prefix"):
        # Q || g is an invariant of every reverse triple on this loop: exit
        # states satisfy Q and every guard state satisfies g
        guard = lt(Var("i"), Const(3))
        body = seq(rand_assign(rng, xyz + ["i"], ["x"]),
                   Choice(rand_assign(rng, xyz, ["y"]), rand_assign(rng, xyz, ["z"])),
                   Assign("i", BinOp("+", Var("i"), Const(1))))
        # the oracle's store box grows with the variables a question
        # mentions; posts over exactly three keep this tier's chains
        # close in cost, so the median does not move with the seed
        post = None
        while post is None or len(term_vars(post)) != 3:
            post = rng.choice((And, Or))(Bool(var_cmp(rng, "x", xyz)), Bool(var_cmp(rng, "z", xyz + ["i"])))
        inv = Or(post, Bool(guard))
        loop = While(guard, body, inv)
        if kind == "annotated":
            pre, prog = Or(inv, rand_assertion(rng, xyz, 1)), loop
        else:
            prefix = Choice(rand_assign(rng, xyz, ["x"]), rand_assign(rng, xyz, ["y"]))
            pre, prog = TRUE, seq(prefix, rand_assign(rng, xyz, ["z"]), loop)
        flags = ["--loop-mode", "invariant-annotations", "--domain-max", "3"]
        return pre, prog, post, TripleRef(pre, prog, post, 3), flags, False
    if kind == "beta":
        # corpus/ex3.triple's shape and bound: two variables, checked at
        # 3/3.  A loop bound at or below domain_max makes prove's
        # quantifier search run for minutes (k = 3 here)
        k = 5
        body = seq(Assign("x", BinOp("+", Var("x"), rng.choice((Var("i"), Const(rng.randint(1, 2)))))),
                   Assign("i", BinOp("+", Var("i"), Const(1))))
        loop = While(lt(Var("i"), Const(k)), body)
        post = Bool(BAnd(lt(Const(rng.randint(0, 1)), Var("x")), Le(Const(k), Var("i"))))
        flags = ["--domain-max", "3", "--quant-bound", "3"]
        return TRUE, loop, post, TripleRef(TRUE, loop, post, 3), flags, True
    raise ValueError(kind)


def _build_certify(rng, w: _Writer) -> list[Query]:
    # Cost tiers: refuted and loop-free chains light, annotated loops (half
    # the list) middle, prefixed loops heavier, beta mode heaviest (a
    # quarter).  The median falls inside the annotated tier and the tail
    # (ten samples beyond it) inside beta mode.  The 24 kinds come twice
    # so that a pass draws 48 triples: the median over 24 annotated
    # chains moves less with the seed than over 12.
    kinds = ("annotated", "refuted", "beta", "annotated", "annotated", "beta", "loopfree-wp", "annotated",
             "annotated", "beta", "annotated-prefix", "annotated", "annotated", "beta", "refuted", "annotated",
             "annotated", "beta", "loopfree-wp", "annotated", "annotated", "beta", "annotated-prefix", "annotated") * 2
    out = []
    for k, kind in enumerate(kinds):
        pre, prog, post, ref, flags, bounded_ok = _certify_triple(rng, kind)
        path = w.triple(pre, prog, post)
        cert, cyc = str(w.dir / f"c{k}.json"), str(w.dir / f"c{k}.cyclic.json")
        common = [a for a in flags if a not in ("--loop-mode", "invariant-annotations")]
        steps = [
            ["prove", path, *flags, "-o", cert, "--format", "machine"],
            ["check-proof", cert, *common, "--format", "machine"],
            ["transform", cert, *common, "-o", cyc, "--format", "machine"],
            ["check-proof", cyc, *common, "--format", "machine"],
        ]
        out.append(Query(f"q{k:02d}", steps, check_chain(ref, ref.verdict("partial-reverse"), bounded_ok)))
    return out


def loop_finals(prog, s0: State) -> frozenset[State]:
    """Finals of a straight-line program or of a single loop from s0.
    The loop is iterated over whole sets of stores, because plain
    denot_finals re-explores every path through a choice body."""
    if not isinstance(prog, While):
        with deep_recursion():
            finals, complete = oracles.denot_finals(prog, s0, 1)
        if not complete:
            raise ValueError("straight-line reference incomplete")
        return finals
    guard = holds(Bool(prog.guard))
    frontier, done = {s0}, set()
    while frontier:
        nxt: set[State] = set()
        for s in frontier:
            if guard(s):
                nxt |= oracles.denot_finals(prog.body, s, 1)[0]
            else:
                done.add(s)
        frontier = nxt
    return frozenset(done)


def _deep_run(rng, kind):
    """(program, initial store) for one deep `run` query."""
    names = ["w", "x", "y", "z"]
    if kind.startswith("straight"):
        length = int(kind.split("-")[1])
        stmts = [Assign(names[j % 4], BinOp(rng.choice("+-"), Var(names[(j + 1) % 4]), Const(rng.randint(0, 3)))) for j in range(length)]
        return seq(*stmts), State({n: rng.randint(0, 9) for n in names})
    if kind.startswith("longloop"):
        n = int(kind.split("-")[1]) + rng.randint(-50, 50)
        body = seq(Assign("x", BinOp("+", Var("x"), Var("i"))),
                   Assign("y", BinOp("%", BinOp("+", Var("y"), Var("x")), Const(rng.randint(5, 11)))),
                   Assign("i", BinOp("+", Var("i"), Const(1))))
        return While(lt(Var("i"), Const(n)), body), State({"x": rng.randint(0, 5)})
    if kind.startswith("choiceloop"):
        n = int(kind.split("-")[1]) + rng.randint(-3, 3)
        step = rng.randint(1, 3)
        body = seq(Choice(Assign("x", BinOp("+", Var("x"), Const(step))), Assign("y", BinOp("+", Var("y"), Const(1)))),
                   Assign("i", BinOp("+", Var("i"), Const(1))))
        return While(lt(Var("i"), Const(n)), body), State({"y": rng.randint(0, 3)})
    raise ValueError(kind)


def _build_deep(rng, w: _Writer) -> list[Query]:
    # Cost tiers: the median falls inside the middle tier and the tail
    # (ten samples beyond it) inside unroll-11, seven per pass, for two
    # or more passes.
    # straight-650 crashes the CLI today (RecursionError past about 495
    # statements); it stays in the mix, one query in 28, so failed_ratio
    # shows it while failures stay fewer than ten per run.
    kinds = ("unroll-8", "straight-150", "choiceloop-30", "unroll-9", "unroll-8", "straight-150", "choiceloop-30",
             "straight-300", "longloop-1500", "choiceloop-45", "unroll-10", "straight-300", "unroll-11",
             "choiceloop-45", "unroll-10", "straight-300", "longloop-1500", "choiceloop-45", "unroll-11",
             "straight-300", "longloop-1500",
             "unroll-11", "straight-450", "unroll-11", "unroll-11", "unroll-11", "unroll-11",
             "straight-650")
    out = []
    for k, kind in enumerate(kinds):
        if kind.startswith("unroll"):
            depth = int(kind.split("-")[1])
            bound = rng.randint(depth - 3, depth + 3)
            branch = Choice(Assign("x", BinOp("+", Var("x"), Const(rng.randint(1, 2)))), Empty())
            prog = While(lt(Var("i"), Const(bound)), Seq(branch, Assign("i", BinOp("+", Var("i"), Const(1)))))
            post = Bool(lt(Const(rng.randint(2, 6)), Var("x")))
            names = sorted(term_vars(prog) | term_vars(post))
            samples = sorted({State({n: rng.randint(0, bound if n == "i" else 6) for n in names}) for _ in range(32)}, key=State.sort_key)
            expected, _ = oracles.wpr_states_ref(prog, post, samples, depth, QUANT_BOUND)
            argv = ["wp", w.triple(TRUE, prog, post), "--loop-mode", "unroll",
                    "--unroll-depth", str(depth), "--format", "machine"]
            out.append(Query(f"q{k:02d}", [argv], check_unroll(samples, expected)))
            continue
        prog, s0 = _deep_run(rng, kind)
        argv = ["run", w.program(prog), "--format", "machine", "--step-bound", "1000000"]
        argv += [f"--state={n}={v}" for n, v in sorted(s0.as_dict().items())]
        out.append(Query(f"q{k:02d}", [argv], check_run(loop_finals(prog, s0))))
    return out


def build(workload: str, seed: int, workdir: Path) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}")
    make = {"decide": _build_decide, "certify": _build_certify, "deep": _build_deep}[workload]
    return make(rng, _Writer(workdir))
