"""The benchmark's own side of the prhl text format.

``show`` prints generated terms as input files, and ``read_formula``
evaluates formulas the CLI prints, so neither the inputs nor the check
of an output go through the printer or parser under test.  Printing is
fully parenthesised; reading accepts the quantifier-free assertion
language: arithmetic ``+ - * / %`` over naturals (totalised as in the
README), comparisons, ``true``/``false``, ``!``, ``&&``, ``||``, ``->``.
"""

from __future__ import annotations

import re

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


def show(t) -> str:
    """Program, assertion, boolean or arithmetic term as input text."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, BinOp):
        return f"({show(t.left)} {t.op} {show(t.right)})"
    if isinstance(t, Eq):
        return f"{show(t.left)} = {show(t.right)}"
    if isinstance(t, Le):
        return f"{show(t.left)} <= {show(t.right)}"
    if isinstance(t, (BNot, Not)):
        return f"!({show(t.arg)})"
    if isinstance(t, (BAnd, And)):
        return f"({show(t.left)}) && ({show(t.right)})"
    if isinstance(t, (BOr, Or)):
        return f"({show(t.left)}) || ({show(t.right)})"
    if isinstance(t, Implies):
        return f"({show(t.left)}) -> ({show(t.right)})"
    if isinstance(t, Bool):
        return show(t.expr)
    if isinstance(t, Empty):
        return "skip"
    if isinstance(t, Assign):
        return f"{t.name} := {show(t.expr)}"
    if isinstance(t, Seq):
        return f"{show(t.first)}; {show(t.second)}"
    if isinstance(t, Choice):
        return f"({{ {show(t.left)} }} + {{ {show(t.right)} }})"
    if isinstance(t, While):
        inv = "" if t.invariant is None else f" invariant ({show(t.invariant)})"
        return f"while ({show(t.guard)}){inv} do {{ {show(t.body)} }}"
    raise TypeError(f"cannot print {t!r}")


# --- reading printed formulas ------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|->|&&|\|\||<=|>=|!=|[-+*/%()=<>!])")
_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b if a >= b else 0,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a // b if b else 0,
    "%": lambda a, b: a % b if b else a,
}
_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def read_formula(text: str):
    """Compile printed formula text to a function of a store (a dict;
    absent variables are 0).  Raises ValueError on anything else."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected text at {pos}: {text[pos:pos + 20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        at[0] += 1
        return tok

    # One grammar for both sorts, loosest first: -> (right), ||, &&,
    # prefix !, comparison, + -, * / %, atoms.
    def implication():
        left = disjunction()
        if peek() == "->":
            take()
            right = implication()
            return lambda s: (not left(s)) or right(s)
        return left

    def disjunction():
        f = conjunction()
        while peek() == "||":
            take()
            f = (lambda l, r: lambda s: l(s) or r(s))(f, conjunction())
        return f

    def conjunction():
        f = negation()
        while peek() == "&&":
            take()
            f = (lambda l, r: lambda s: l(s) and r(s))(f, negation())
        return f

    def negation():
        if peek() == "!":
            take()
            f = negation()
            return lambda s: not f(s)
        return comparison()

    def comparison():
        f = binary(("+", "-"), lambda: binary(("*", "/", "%"), atom))
        if peek() in _COMPARE:
            cmp = _COMPARE[take()]
            g = binary(("+", "-"), lambda: binary(("*", "/", "%"), atom))
            return lambda s: cmp(f(s), g(s))
        return f

    def binary(ops, operand):
        f = operand()
        while peek() in ops:
            fn = _ARITH[take()]
            f = (lambda l, r, fn: lambda s: fn(l(s), r(s)))(f, operand(), fn)
        return f

    def atom():
        tok = take()
        if tok == "(":
            f = implication()
            take(")")
            return f
        if tok == "true":
            return lambda s: True
        if tok == "false":
            return lambda s: False
        if tok.isdigit():
            v = int(tok)
            return lambda s: v
        if tok[:1].isalpha() or tok[:1] == "_":
            if tok in ("exists", "forall"):
                raise ValueError("quantified formula")
            return lambda s: s.get(tok, 0)
        raise ValueError(f"unexpected token {tok!r}")

    f = implication()
    take("")
    return f
