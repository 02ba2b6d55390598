"""Parser, printers, substitution, and normal forms."""

import functools
import gc
import random
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_holds,
    denormalize,
    eval_expr,
    free_vars_ref,
    gen_assertion,
    gen_bool,
    gen_expr,
    gen_prog,
    gen_state,
    normalize_ref,
    parse_assertion_ref,
    parse_program_ref,
    print_ref,
    quantifier_count,
    subst_ref,
    subterms,
)
from prhl import certificates, cli
from prhl.assertions import eval_assertion
from prhl.semantics import exact_ranges
from prhl.syntax import (
    Assertion,
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
    Exists,
    Implies,
    Le,
    Not,
    ParseError,
    Prog,
    Seq,
    Var,
    While,
    alpha_rename,
    assertion_vars,
    canon,
    erase_invariants,
    free_vars,
    fresh_var,
    live_vars,
    normalize_program,
    parse_assertion,
    parse_program,
    print_assertion,
    print_bool,
    print_expr,
    print_program,
    prog_vars,
    seq_of,
    subst,
    tokenize,
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
    # a numeral past Python's limit on digits
    with pytest.raises(ParseError, match="numeral of 5000 digits is too long .*column 6"):
        parse_program("x := " + "1" * 5000)
    assert parse_program("x := " + "1" * 4000).expr is Const(int("1" * 4000))


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


def test_operator_table_groups_and_binds():
    x, i = Var("x"), Var("i")
    one = Const(1)
    # -> groups to the right, the arithmetic operators to the left
    assert parse_assertion("x = 1 -> i = 1 -> x = i") is Implies(Bool(Eq(x, one)), Implies(Bool(Eq(i, one)), Bool(Eq(x, i))))
    assert parse_program("x := x - i - 1").expr is BinOp("-", BinOp("-", x, i), one)
    assert parse_program("x := x - (i - 1)").expr is BinOp("-", x, BinOp("-", i, one))
    # ! takes what binds tighter than &&, a quantifier takes all it can
    assert parse_assertion("!x + 1 = i && x = 1") is Bool(BAnd(BNot(Eq(BinOp("+", x, one), i)), Eq(x, one)))
    assert print_assertion(parse_assertion("!exists i. i = x && x = 1")) == "!(exists i. i = x && x = 1)"
    # a parenthesis holds an expression or an assertion, read once
    assert parse_assertion("((x + 1)) * 2 = ((i))") is Bool(Eq(BinOp("*", BinOp("+", x, one), Const(2)), i))
    assert parse_assertion("((x = 1)) || i = 1") is Bool(BOr(Eq(x, one), Eq(i, one)))
    # a + that a new assignment follows starts a choice
    assert parse_program("x := 1 + i + i := 2") is Choice(Assign("x", BinOp("+", one, i)), Assign("i", Const(2)))
    assert parse_program("x := 1 + skip") is Choice(Assign("x", one), Empty())


@pytest.mark.parametrize(
    "assertion, expr",
    [
        ("x", "x = 1"),
        ("(x)", "(x = 1)"),
        ("1 + 2", "true"),
        ("!x", "x + (i = 1)"),
        ("exists i. i", "exists i. i = 1"),
        ("x = 1 && i", "!(x = 1)"),
        ("x -> i = 1", "x * (1 <= 2)"),
        ("x = 1 = 1", "x = 1 = 1"),
        ("x < i <= 1", "(x) = (1 = 1)"),
        ("(x = 1) = 1", "true + 1"),
    ],
)
def test_terms_of_the_wrong_kind_are_rejected(assertion, expr):
    # an expression where an assertion is needed, and the reverse;
    # comparisons do not chain
    with pytest.raises(ParseError):
        parse_assertion(assertion)
    with pytest.raises(ParseError):
        parse_program(f"x := {expr}")


def test_nesting_too_deep_is_a_parse_error():
    assert parse_assertion("(" * 400 + "x = 1" + ")" * 400) is Bool(Eq(Var("x"), Const(1)))
    for text, parse in (
        ("(" * 2000 + "x = 1" + ")" * 2000, parse_assertion),
        ("x := " + "(" * 2000 + "1" + ")" * 2000, parse_program),
        ("(" * 2000 + "x := 1" + ")" * 2000, parse_program),
        ("!" * 2000 + "x = 1", parse_assertion),
    ):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(text)


def _read(parse, text):
    """The node ``parse`` reads from ``text``, or None if it rejects it."""
    try:
        return parse(text)
    except ParseError:
        return None


def _mutants(rng, text):
    """``text`` with one token dropped, one token doubled and two swapped."""
    toks = [v for _, v, _ in tokenize(text)[:-1]]
    i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
    swapped = list(toks)
    swapped[i], swapped[j] = toks[j], toks[i]
    return [" ".join(toks[:i] + toks[i + 1 :]), " ".join(toks[: i + 1] + toks[i:]), " ".join(swapped)]


@given(SEEDS)
@settings(deadline=None)
def test_parsers_match_the_descent_reference(seed):
    # every text, and every mutant of it, reads to the same node under the
    # precedence-climbing parser and the eight-level descent, or neither
    rng = random.Random(seed)
    e, f = print_expr(gen_expr(rng, NAMES, 2)), print_expr(gen_expr(rng, NAMES, 1))
    prog = print_program(gen_prog(rng, NAMES, 3))
    texts = [
        print_assertion(gen_assertion(rng, NAMES, 4, quant=True, guards=True)),
        print_bool(gen_bool(rng, NAMES, 3)),
        prog,
        *_if_texts(rng, 3, iter(["t"] + [f"t_p{k}" for k in range(1, 64)])),
        f"x := {e} + i := {f}; {prog}",
        f"x := {e} + {f} + ({prog})",
        f"{e} >= {f} -> !({e} > {f}) || {f} != {e} && {e} < {f}",
    ]
    for text in texts + [m for t in texts for m in _mutants(rng, t)]:
        assert _read(parse_program, text) is _read(parse_program_ref, text)
        assert _read(parse_assertion, text) is _read(parse_assertion_ref, text)


@pytest.mark.parametrize("path", sorted(Path("corpus").iterdir()), ids=lambda p: p.name)
def test_corpus_reads_as_under_the_descent_reference(path, monkeypatch):
    if path.suffix == ".json":
        module, read = certificates, lambda: certificates.parse_proof(path.read_text())
    else:
        module, read = cli, lambda: cli.read_triple_file(str(path))
    got = read()
    monkeypatch.setattr(module, "parse_program", parse_program_ref)
    monkeypatch.setattr(module, "parse_assertion", parse_assertion_ref)
    assert read() == got


@given(SEEDS)
def test_printer_matches_the_reference(seed):
    rng = random.Random(seed)
    terms = (gen_assertion(rng, NAMES, 4, quant=True, guards=True), gen_bool(rng, NAMES, 3), gen_expr(rng, NAMES, 3))
    for t in (s for term in terms for s in subterms(term)):
        assert print_assertion(t) == print_ref(t)


# the grammar's alphabet: keywords, operators, names, numerals up to 5,000
# digits, runs of "(" deep enough to pass the nesting limit, and a stray byte
_TOKENS = st.one_of(
    st.sampled_from(
        "skip while do if then else invariant exists forall true false x i t_p1 "
        ":= <= >= != && || -> ( ) + - * / % = { } ; ! < > . # @".split()
    ),
    st.integers(1, 5000).map(lambda n: str(n % 10) * n),
    st.integers(1, 1200).map(lambda n: "(" * n),
)


@given(st.lists(_TOKENS, max_size=30))
@settings(max_examples=300, deadline=None)
def test_parsers_raise_only_parse_errors(tokens):
    text = " ".join(tokens)
    for parse in (parse_program, parse_assertion):
        _read(parse, text)


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


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_free_vars_match_recursive_reference(seed):
    # both names are bound often, inside each other and over free uses
    a = gen_assertion(random.Random(seed), NAMES, 5, quant=True)
    for t in subterms(a):
        assert free_vars(t) == free_vars_ref(t)
        if isinstance(t, Assertion):
            assert assertion_vars(t) == free_vars_ref(t, bound=True)


def test_vars_helpers():
    p = parse_program("while i < 5 do { x := x + y }")
    assert prog_vars(p) == frozenset({"i", "x", "y"})
    a = parse_assertion("exists x. x = z")
    assert free_vars(a) == frozenset({"z"})
    assert assertion_vars(a) == frozenset({"x", "z"})


@pytest.mark.parametrize(
    "text, out, live",
    [
        # an assignment kills its target and reads its expression
        ("x := y + 1", {"x"}, {"y"}),
        ("x := y + 1", {"z"}, {"y", "z"}),
        ("x := x + 1", {"x"}, {"x"}),
        ("t := 0; x := t", {"x"}, set()),
        ("x := 1; y := x; x := z", {"x", "y"}, {"z"}),
        # a choice is live in either arm
        ("(x := y + x := 1)", {"x"}, {"y"}),
        ("(x := 1 + y := 1)", {"x", "y"}, {"x", "y"}),
        # a loop: its guard, what is live after it, and what its body reads
        # before writing on the way round, to a fixpoint
        ("while j < 3 do { x := 1 }", {"x"}, {"j", "x"}),
        ("while i < 3 do { x := y; y := z; i := i + 1 }", {"x"}, {"i", "x", "y", "z"}),
        ("while i < 3 do { x := y; y := z; i := i + 1 }", set(), {"i", "y", "z"}),
        ("while i < 3 do { while j < 2 do { j := j + k }; k := m; i := i + 1 }", set(), {"i", "j", "k", "m"}),
        # an if's flag is written before it is read
        ("if x < 3 then { y := 1 } else { y := 2 }; if y = 1 then { z := x } else { z := 0 }", {"x", "z"},
         {"x", "y", "z"}),
        ("skip", {"x"}, {"x"}),
    ],
)
def test_live_vars(text, out, live):
    assert live_vars(parse_program(text), out) == live


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
        assert t.rebuild(lambda k: k) is t
    canonical = parse_assertion(print_assertion(a))
    assert parse_assertion(print_assertion(canonical)) is canonical
    # simultaneous, and often capturing: both names are also bound in a
    pairs = [(rng.choice(NAMES), gen_expr(rng, NAMES, 2)), (rng.choice(NAMES), Var(rng.choice(NAMES)))]
    assert subst(a, pairs) is subst_ref(a, pairs)
    assert subst(canonical, pairs[:1]) is subst_ref(canonical, pairs[:1])


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_normal_bit_matches_the_reference(seed):
    # a program node knows whether it is in normal form, and seq_of
    # returns such a program, or one beside skip, as it is
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 4)
    for q in (t for raw in (p, denormalize(rng, p)) for t in subterms(raw) if isinstance(t, Prog)):
        assert q.normal is (normalize_ref(q) is q)
        if q.normal:
            assert seq_of(q) is q and seq_of(Empty(), q, Empty()) is q


def test_walkers_free_terms_when_they_return():
    # canon, substitution, alpha_rename and exact_ranges memoize in dicts,
    # and their walkers call themselves, which makes a cycle per call; no
    # such cycle holds a memo, so reference counting alone frees a term
    # that was read, rewritten and then dropped
    gc.collect()
    gc.disable()
    try:
        a = parse_assertion("forall k. (exists k. k = 9137 + x) && !(x = 9137) || exists j. j = x + 9138")
        b = subst(a, [("x", Const(9139))])
        assert exact_ranges()(b) is not b
        refs = [weakref.ref(a), weakref.ref(b), weakref.ref(canon(Not(b)))]
        del a, b
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
