"""Parser, printers, substitution, and normal forms."""

import functools
import random
import weakref
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_holds,
    denormalize,
    eval_expr,
    gen_assertion,
    gen_bool,
    gen_expr,
    gen_prog,
    gen_state,
    normalize_ref,
    quantifier_count,
    subst_ref,
    subterms,
)
from prhl.assertions import eval_assertion
from prhl.syntax import (
    Assign,
    BinOp,
    BNot,
    Bool,
    Choice,
    Const,
    Empty,
    Eq,
    Exists,
    Le,
    ParseError,
    Seq,
    Var,
    While,
    alpha_rename,
    assertion_vars,
    canon,
    erase_invariants,
    free_vars,
    fresh_var,
    normalize_program,
    parse_assertion,
    parse_program,
    print_assertion,
    print_bool,
    print_program,
    prog_vars,
    seq_of,
    subst,
    units,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
NAMES = ["x", "i"]


# --- parsing and printing ----------------------------------------------------


def test_parse_program_shapes():
    p = parse_program("x := x + 1; (skip + x := 0)")
    assert p == Seq(
        Assign("x", BinOp("+", Var("x"), Const(1))),
        Choice(Empty(), Assign("x", Const(0))),
    )
    w = parse_program("while i < 5 do { x := x + i; i := i + 1 }")
    assert isinstance(w, While) and w.invariant is None
    assert print_program(w) == "while i < 5 do { x := x + i; i := i + 1 }"


def test_parse_while_invariant_annotation():
    w = parse_program("while i < 5 invariant x <= i do { i := i + 1 }")
    assert isinstance(w, While)
    assert w.invariant == Bool(Le(Var("x"), Var("i")))
    assert print_program(w) == "while i < 5 invariant x <= i do { i := i + 1 }"


def test_if_sugar_desugars_to_flagged_loops():
    p = parse_program("if x = 0 then { x := 1 } else { x := 2 }")
    assert (
        print_program(normalize_program(p))
        == "t := 0; while x = 0 && t = 0 do { x := 1; t := 1 };"
        " while x != 0 && t = 0 do { x := 2; t := 1 }"
    )


def test_if_flag_avoids_every_name_in_the_text_and_the_callers():
    # a compiled conditional starts by clearing its flag
    branch = "if x = 0 then { x := 1 } else { x := 2 }"
    assert parse_program(branch).first.name == "t"
    assert parse_program(branch, avoid={"t", "t_p1"}).first.name == "t_p2"
    # an identifier only an invariant or a binder mentions counts too
    loop = parse_program(f"while i < 1 invariant forall t. t = t do {{ {branch}; i := 1 }}")
    assert loop.body.first.name == "t_p1"
    # inner conditionals draw first, then left to right
    nested = parse_program(f"if i = 0 then {{ {branch} }} else {{ {branch} }}; {branch}")
    assert [u.name for u in units(nested) if isinstance(u, Assign)] == ["t_p2", "t_p3"]
    then_loop, else_loop = nested.second.first, nested.second.second.first
    assert (then_loop.body.first.name, else_loop.body.first.name) == ("t", "t_p1")


def _if_texts(rng, depth, flags):
    """Program text with conditionals over ``gen_bool`` guards and
    ``gen_prog`` statements, and the same program with every conditional
    written out as loops; ``flags`` yields the flags in drawing order."""
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        text = print_program(gen_prog(rng, NAMES, 2))
        return text, text
    (a, a_out), (b, b_out) = _if_texts(rng, depth - 1, flags), _if_texts(rng, depth - 1, flags)
    if pick < 0.5:
        return f"{a}; {b}", f"{a_out}; {b_out}"
    cond, t = print_bool(gen_bool(rng, NAMES, 2)), next(flags)
    written = (
        f"{t} := 0; while ({cond}) && {t} = 0 do {{ {a_out}; {t} := 1 }};"
        f" while !({cond}) && {t} = 0 do {{ {b_out}; {t} := 1 }}"
    )
    return f"if {cond} then {{ {a} }} else {{ {b} }}", written


@given(SEEDS)
@settings(deadline=None)
def test_if_parses_to_its_written_out_loops(seed):
    rng = random.Random(seed)
    flags = iter(["t"] + [f"t_p{k}" for k in range(1, 64)])
    text, written = _if_texts(rng, 4, flags)
    assert parse_program(text) is parse_program(written)


def test_parse_assertion_shapes():
    a = parse_assertion("exists x. x = 0 && i <= 2")
    assert isinstance(a, Exists) and a.var == "x"
    assert parse_assertion("true") == Bool(Eq(Const(0), Const(0)))
    assert print_assertion(parse_assertion("x = 1 -> (i = 0 || i = 1)")) == (
        "x = 1 -> i = 0 || i = 1"
    )


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_program("x := ")
    assert "expected expression" in str(e.value)
    assert "column 6" in str(e.value)
    with pytest.raises(ParseError):
        parse_assertion("exists x (x = 0)")
    with pytest.raises(ParseError):
        parse_program("while x < do { skip }")


@given(SEEDS)
def test_print_parse_round_trip_programs(seed):
    rng = random.Random(seed)
    p = normalize_program(gen_prog(rng, NAMES, 3))
    assert parse_program(print_program(p)) == p


@given(SEEDS)
@settings(deadline=None)
def test_print_parse_round_trip_assertions(seed):
    # the parser folds bare boolean conjunctions below the assertion
    # level, so round-tripping stabilizes after one pass and preserves
    # the denotation
    rng = random.Random(seed)
    a = gen_assertion(rng, NAMES, 3, quant=True)
    b = parse_assertion(print_assertion(a))
    assert parse_assertion(print_assertion(b)) == b
    for _ in range(8):
        s = gen_state(rng, NAMES, 4)
        assert assert_holds(a, s, 16) == assert_holds(b, s, 16)


@given(SEEDS)
def test_print_parse_round_trip_guards(seed):
    rng = random.Random(seed)
    b = gen_bool(rng, NAMES, 3)
    assert parse_program(f"while {print_bool(b)} do {{ skip }}").guard is b


def test_guard_constants_and_rejected_guards():
    true = Eq(Const(0), Const(0))
    for text, guard in (("true", true), ("false", BNot(true)), ("!false", BNot(BNot(true))), ("(x = 1)", Eq(Var("x"), Const(1)))):
        assert parse_program(f"while {text} do {{ skip }}").guard is guard
    # a guard is quantifier- and implication-free, in loops and conditionals
    for text in ("exists i. i = x", "(forall i. i <= x)", "(x = 0 -> x = 1)", "!(x = 0 -> x = 1) && true"):
        with pytest.raises(ParseError):
            parse_program(f"while {text} do {{ skip }}")
        with pytest.raises(ParseError):
            parse_program(f"if {text} then {{ skip }} else {{ skip }}")


@given(SEEDS)
def test_print_parse_round_trip_expressions(seed):
    rng = random.Random(seed)
    e = gen_expr(rng, NAMES, 3)
    p = parse_program("y := " + print_program(Assign("y", e))[5:])
    assert p.expr == e


# --- substitution -------------------------------------------------------------


def test_subst_renames_captured_binder():
    a = parse_assertion("exists y. x = y + 1")
    b = subst(a, [("x", Var("y"))])
    assert isinstance(b, Exists) and b.var != "y"
    assert free_vars(b) == frozenset({"y"})


def test_subst_ignores_bound_occurrences():
    a = parse_assertion("exists x. x = 0")
    assert subst(a, [("x", Const(7))]) == a


def test_subst_untouched_when_var_absent():
    a = parse_assertion("i <= 2 || i = 5")
    assert subst(a, [("x", Const(3))]) == a


@given(SEEDS)
@settings(max_examples=200)
def test_subst_agrees_with_state_update(seed):
    # value of P[x := E] at s equals value of P at s[x := E(s)]
    rng = random.Random(seed)
    a = gen_assertion(rng, NAMES, 3, quant=True)
    e = gen_expr(rng, NAMES, 2)
    x = rng.choice(NAMES)
    s = gen_state(rng, NAMES, 4)
    lhs = eval_assertion(subst(a, [(x, e)]), s, 16)
    rhs = eval_assertion(a, s.set(x, eval_expr(e, s)), 16)
    assert lhs == rhs


# --- fresh names, canonical forms ---------------------------------------------


def test_fresh_var_numbering():
    assert fresh_var(set(), "i") == "i"
    assert fresh_var({"x"}, "x") == "x_p1"
    assert fresh_var({"x", "x_p1"}, "x") == "x_p2"


def test_quantifier_count():
    assert quantifier_count(parse_assertion("x = 0")) == 0
    assert quantifier_count(parse_assertion("exists x. forall y. x = y && exists z. z = 0")) == 3


@given(SEEDS)
def test_canon_idempotent(seed):
    rng = random.Random(seed)
    a = gen_assertion(rng, NAMES, 3, quant=True)
    assert canon(canon(a)) == canon(a)


@given(SEEDS)
@settings(deadline=None)
def test_alpha_rename_idempotent_and_meaning_preserving(seed):
    rng = random.Random(seed)
    a = gen_assertion(rng, NAMES, 3, quant=True)
    b = alpha_rename(a)
    assert alpha_rename(b) == b
    for _ in range(6):
        s = gen_state(rng, NAMES, 4)
        assert assert_holds(a, s, 16) == assert_holds(b, s, 16)


@given(SEEDS)
def test_normalize_program_idempotent(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 3)
    q = normalize_program(p)
    assert normalize_program(q) == q


def test_normalize_drops_empty_units():
    p = parse_program("skip; x := 1; skip")
    assert normalize_program(p) == Assign("x", Const(1))
    assert normalize_program(parse_program("skip; skip")) == Empty()


def test_seq_of_collapses_units():
    a = Assign("x", Const(1))
    assert seq_of(Empty(), a) == a
    assert seq_of(a, Empty()) == a
    assert seq_of(a, a) == Seq(a, a)


@given(SEEDS)
def test_seq_of_matches_recursive_normalizer(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 4)
    raw = denormalize(rng, p)
    assert seq_of(raw) is normalize_ref(raw) is normalize_ref(p)
    parts = [denormalize(rng, gen_prog(rng, NAMES, 2)) for _ in range(rng.randrange(4))]
    assert seq_of(*parts) is normalize_ref(functools.reduce(Seq, parts, Empty()))


def test_units_walk_any_nesting():
    a, b, c = (Assign("x", Const(k)) for k in range(3))
    assert list(units(Seq(Seq(Empty(), a), Seq(Seq(b, Empty()), c)))) == [a, b, c]
    assert list(units(Empty())) == [] and list(units(a)) == [a]
    # length costs no stack depth, nested to either side
    steps = [Assign("x", BinOp("+", Var("x"), Const(k))) for k in range(10000)]
    left = functools.reduce(Seq, steps)
    assert list(units(left)) == steps
    p = seq_of(left)
    assert p is seq_of(*steps) and list(units(p)) == steps
    assert parse_program(print_program(p)) is p
    assert prog_vars(p) == {"x"} and erase_invariants(p) is p


def test_vars_helpers():
    p = parse_program("while i < 5 do { x := x + y }")
    assert prog_vars(p) == frozenset({"i", "x", "y"})
    a = parse_assertion("exists x. x = z")
    assert free_vars(a) == frozenset({"z"})
    assert assertion_vars(a) == frozenset({"x", "z"})


# --- interned nodes ---------------------------------------------------------------


def test_equal_nodes_are_one_object():
    assert BinOp("+", Var("x"), Const(1)) is BinOp(op="+", left=Var("x"), right=Const(1))
    assert Const(True) is not Const(1) and Const(True).value is True
    assert While(Le(Var("i"), Const(3)), Empty()) is While(Le(Var("i"), Const(3)), Empty(), None)
    # a node nothing holds is not kept alive by the table
    ref = weakref.ref(Var("only_here"))
    assert ref() is None


def test_annotated_loop_is_its_own_node():
    bare = parse_program("while i < 5 do { i := i + 1 }")
    annotated = parse_program("while i < 5 invariant i <= 5 do { i := i + 1 }")
    assert annotated is not bare and annotated.invariant is not None
    assert erase_invariants(annotated) is bare
    assert erase_invariants(seq_of(annotated, Choice(annotated, Empty()))) is seq_of(bare, Choice(bare, Empty()))


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_interned_terms_rebuild_parse_and_substitute(seed):
    rng = random.Random(seed)
    a = gen_assertion(rng, NAMES, 4, quant=True)
    p = gen_prog(rng, NAMES, 4)
    for t in subterms(a) + subterms(p):
        assert type(t)(**{f.name: getattr(t, f.name) for f in fields(t)}) is t
    canonical = parse_assertion(print_assertion(a))
    assert parse_assertion(print_assertion(canonical)) is canonical
    # simultaneous, and often capturing: both names are also bound in a
    pairs = [(rng.choice(NAMES), gen_expr(rng, NAMES, 2)), (rng.choice(NAMES), Var(rng.choice(NAMES)))]
    assert subst(a, pairs) is subst_ref(a, pairs)
    assert subst(canonical, pairs[:1]) is subst_ref(canonical, pairs[:1])
