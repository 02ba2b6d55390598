"""Symbolic weakest pre-conditions for the reverse triple reading.

For loop-free programs the calculus is the usual substitution pushing:

    wpr(skip, Q)      = Q
    wpr(x := E, Q)    = Q[x := E]
    wpr(C1; C2, Q)    = wpr(C1, wpr(C2, Q))
    wpr(C1 + C2, Q)   = wpr(C1, Q) || wpr(C2, Q)

and the produced assertion denotes exactly the set of stores with some
terminating run into Q.  Loops are handled by one of three modes:

* ``beta``: encode a terminating trace of the loop as two naturals (n, m)
  via the remainder predicate ``beta(a, b, i, x)``, i.e.
  ``x = a % (1 + (1 + i) * b)``, and assert the existence of a consistent
  trace ending outside the guard in Q.  The emitted formula follows the
  source calculus shape verbatim; its heavy quantifier prefix usually
  needs generous quantifier bounds to evaluate.
* ``invariant``: return the loop's ``invariant`` annotation as the loop's
  pre-condition claim (the prover discharges the matching obligations).
  Loops without an annotation raise ``MissingInvariantError``.
* ``unroll``: under-approximate by bounding the number of iterations:
  W0 = !B && Q, W(j+1) = W0 || (B && wpr(body, Wj)).  Sound for "every
  store in the formula is in the true wpr" but not complete; results are
  marked inexact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    Assertion,
    Assign,
    BinOp,
    BNot,
    Bool,
    Choice,
    Const,
    Eq,
    Exists,
    Expr,
    Forall,
    Implies,
    Le,
    Or,
    Prog,
    Var,
    While,
    canon,
    conj,
    free_vars,
    fresh_var,
    prog_vars,
    subst,
    subst_bool,
    units,
)


# --- the remainder predicate and sequence coding ---------------------------


def _expr(v) -> Expr:
    return Const(v) if isinstance(v, int) else v


def beta(a, b, i, x) -> Assertion:
    """The predicate  x = a % (1 + (1 + i) * b),  built literally.

    ``a``, ``b``, ``i`` may be ints or expressions; ``x`` a name or
    variable.  ``beta(n, m, j, x)`` pins x to the j-th element of the
    sequence coded by (n, m).
    """
    xv = Var(x) if isinstance(x, str) else x
    modulus = BinOp("+", Const(1), BinOp("*", BinOp("+", Const(1), _expr(i)), _expr(b)))
    return Bool(Eq(xv, BinOp("%", _expr(a), modulus)))


class SearchExhausted(Exception):
    """No (n, m) code found within the search ceilings."""


def encode_sequence(values: list[int], n_max: int = 100_000, m_max: int = 64) -> tuple[int, int]:
    """Smallest (m, then n) pair coding the sequence, i.e. with
    n % (1 + (i + 1) * m) == values[i] for every position i.

    The empty sequence and [0] both code as (0, 0).  Raises
    ``SearchExhausted`` beyond the ceilings.
    """
    if any(v < 0 for v in values):
        raise ValueError("sequence elements must be naturals")
    for m in range(m_max + 1):
        moduli = [1 + (i + 1) * m for i in range(len(values))]
        if any(v >= mod for v, mod in zip(values, moduli)):
            continue
        if not values:
            return 0, m
        # n is constrained to an arithmetic progression by the first slot
        first = values[0]
        stride = moduli[0]
        for n in range(first, n_max + 1, stride):
            if all(n % mod == v for v, mod in zip(values, moduli)):
                return n, m
    raise SearchExhausted(f"no (n, m) with n <= {n_max}, m <= {m_max} codes {values}")


# --- wpr computation --------------------------------------------------------


class MissingInvariantError(Exception):
    """A loop reached in invariant mode carries no annotation."""


@dataclass(frozen=True)
class WprRequest:
    program: Prog
    post: Assertion
    loop_mode: str = "beta"  # beta | invariant | unroll
    unroll_depth: int = 8


@dataclass(frozen=True)
class WprResult:
    formula: Assertion
    exact: bool
    loop_mode: str
    notes: tuple[str, ...] = ()


def _mul_index(l: int, e: Expr) -> Expr:
    return e if l == 1 else BinOp("*", Const(l), e)


def _add_offset(e: Expr, off: int) -> Expr:
    return e if off == 0 else BinOp("+", e, Const(off))


def _group_base(j: int, l: int, avoid: set[str]) -> str:
    """Name for the j-th trace variable; its primed versions are the
    _p1.._p3 forms, so the whole family of four must be unclaimed."""
    base = "y" if l == 1 else f"y{j}"
    while any(f"{base}{suf}" in avoid for suf in ("", "_p1", "_p2", "_p3")):
        base += "x"
    return base


def _wpr(p: Prog, q: Assertion, req: WprRequest, avoid: set[str], notes: list[str]) -> Assertion:
    for u in reversed(list(units(p))):
        if isinstance(u, Assign):
            q = subst(q, [(u.name, u.expr)])
        elif isinstance(u, Choice):
            q = Or(_wpr(u.left, q, req, avoid, notes), _wpr(u.right, q, req, avoid, notes))
        elif isinstance(u, While):
            q = _wpr_loop(u, q, req, avoid, notes)
        else:
            raise TypeError(f"not a program: {u!r}")
    return q


def _wpr_loop(p: While, q: Assertion, req: WprRequest, avoid: set[str], notes: list[str]) -> Assertion:
    if req.loop_mode == "invariant":
        if p.invariant is None:
            raise MissingInvariantError("loop has no invariant annotation")
        notes.append("loop pre-condition taken from invariant annotation")
        return p.invariant
    if req.loop_mode == "unroll":
        notes.append(f"loop unrolled {req.unroll_depth} times; under-approximate")
        exit_now = And(Bool(BNot(p.guard)), q)
        w = exit_now
        for _ in range(req.unroll_depth):
            w = Or(exit_now, And(Bool(p.guard), _wpr(p.body, w, req, avoid, notes)))
        return w
    if req.loop_mode == "beta":
        return _wpr_loop_beta(p, q, req, avoid, notes)
    raise ValueError(f"unknown loop mode {req.loop_mode!r}")


def _wpr_loop_beta(p: While, q: Assertion, req: WprRequest, avoid: set[str], notes: list[str]) -> Assertion:
    """Existence of a coded terminating trace of the loop.

    With x1..xl the variables of the post and the loop, the formula says:
    some (n, m) codes a trace of k iterations whose first state is the
    current one (F); every adjacent pair of coded states is a guard-true
    body step (S); and the k-th state falls out of the guard into Q (T).
    """
    xs = sorted(free_vars(q) | prog_vars(p))
    l = len(xs)
    avoid = avoid | set(xs)

    k = _fresh_into(avoid, "k")
    m = _fresh_into(avoid, "m")
    n = _fresh_into(avoid, "n")
    i = _fresh_into(avoid, "i")
    groups: list[list[str]] = []  # groups[g][j]: g-th prime level, j-th var
    bases = []
    for j in range(1, l + 1):
        base = _group_base(j, l, avoid)
        bases.append(base)
        family = [base, f"{base}_p1", f"{base}_p2", f"{base}_p3"]
        avoid.update(family)
        groups.append(family)
    y = [g[0] for g in groups]
    y1 = [g[1] for g in groups]
    y2 = [g[2] for g in groups]
    y3 = [g[3] for g in groups]

    kv, mv, nv, iv = Var(k), Var(m), Var(n), Var(i)

    def block(idx_base: Expr, names: list[str]) -> Assertion:
        return conj(
            [beta(nv, mv, _add_offset(_mul_index(l, idx_base), j), names[j]) for j in range(l)]
        )

    def const_block(names: list[str], start: int) -> Assertion:
        return conj([beta(nv, mv, Const(start + j), names[j]) for j in range(l)])

    f_part = const_block(xs, 0) if l else Bool(Eq(Const(0), Const(0)))

    # S: coded state i steps to coded state i+1 through a guard-true body run
    guard_at_y = Bool(subst_bool(p.guard, [(xs[j], Var(y[j])) for j in range(l)]))
    body_post = conj([Bool(Eq(Var(xs[j]), Var(y1[j]))) for j in range(l)])
    body_wpr = _wpr(p.body, body_post, req, set(avoid), notes)
    step_back = Implies(body_wpr, conj([Bool(Eq(Var(xs[j]), Var(y[j]))) for j in range(l)]))
    step_at_y2 = subst(step_back, [(xs[j], Var(y2[j])) for j in range(l)])
    in_range = And(Bool(Le(Const(0), iv)), Bool(BNot(Le(kv, iv))))
    pair_coded = And(block(iv, y), block(BinOp("+", iv, Const(1)), y1))
    s_part = Implies(
        Bool(BNot(Le(kv, Const(0)))),
        Forall(i, Implies(in_range, Implies(pair_coded, And(guard_at_y, step_at_y2)))),
    )

    # T: the k-th coded state exits the guard satisfying the post
    t_sub = [(xs[j], Var(y3[j])) for j in range(l)]
    t_body = And(Bool(BNot(subst_bool(p.guard, t_sub))), subst(q, t_sub))
    t_part = Implies(block(kv, y3), t_body)

    matrix = And(And(f_part, s_part), t_part)
    out = matrix
    for name in reversed(y + y1 + y2 + y3):
        out = Forall(name, out)
    for name in (nv.name, mv.name, kv.name):
        out = Exists(name, out)
    return out


def _fresh_into(avoid: set[str], hint: str) -> str:
    name = fresh_var(avoid, hint)
    avoid.add(name)
    return name


def wpr_formula(req: WprRequest) -> WprResult:
    """Weakest pre-condition assertion for the requested post and mode.

    Results are exact (the formula denotes precisely the wpr store set)
    unless a loop was handled by annotation or unrolling; ``notes``
    records any such loop handling.
    """
    notes: list[str] = []
    avoid = set(prog_vars(req.program)) | set(free_vars(req.post))
    formula = canon(_wpr(req.program, req.post, req, avoid, notes))
    return WprResult(formula, not notes, req.loop_mode, tuple(dict.fromkeys(notes)))
