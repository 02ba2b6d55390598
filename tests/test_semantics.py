"""Stores, small-step execution, transformers, and triple checking."""

import functools
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    check_triple_ref,
    check_triple_rows_ref,
    denormalize,
    denot_finals,
    enumerate_states,
    eval_bool,
    eval_expr,
    exactness_error,
    gen_assertion,
    gen_bool,
    gen_expr,
    gen_prog,
    gen_state,
    has_cycle_ref,
    min_triple_witness,
    parse_bool_expr,
    run_all_ref,
    step_ref,
    transformer_set,
)
from prhl import assertions, semantics
from prhl.semantics import (
    LOGICS,
    STEP_DEPTH,
    VALUE_BIT_CAP,
    VALUE_WIDTH,
    WORK_CAP,
    Bounds,
    State,
    Verdict,
    check_triple,
    compile_program,
    format_state,
    relevant_vars,
    run_all,
    store_tuples,
)
from prhl.assertions import eval_assertion
from prhl.syntax import (
    Assign,
    BinOp,
    Bool,
    Choice,
    Const,
    Empty,
    Exists,
    Forall,
    Seq,
    free_vars,
    live_vars,
    parse_assertion,
    parse_program,
    print_bool,
    print_program,
    prog_vars,
    seq_of,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
NAMES = ["x", "i"]


def expr(text):
    return parse_program("y := " + text).expr


# --- stores -------------------------------------------------------------------


def test_state_drops_zero_entries():
    s = State({"x": 1, "i": 0})
    assert s.as_dict() == {"x": 1}
    assert s == State(x=1)
    assert s.get("i") == 0 and s.get("zzz") == 0
    assert repr(s) == "{x: 1}"


def test_state_set_is_persistent():
    s = State(x=1)
    t = s.set("x", 0)
    assert s.as_dict() == {"x": 1}
    assert t == State()


def test_format_state_shows_requested_zeros():
    assert format_state(State(), ["i", "x"]) == "{i: 0, x: 0}"
    assert format_state(State(x=10, i=5), ["i", "x"]) == "{i: 5, x: 10}"


def test_enumerate_states_box():
    box = list(enumerate_states(["x", "i"], 2))
    assert len(box) == 9
    assert len(set(box)) == 9
    assert State() in box
    # the engine's value tuples come in the same order
    assert [State(zip(["i", "x"], st)) for st in store_tuples(["i", "x"], 2)] == box


# --- expression evaluation (total, over naturals) ------------------------------


def _compiled_bool(b, s):
    return eval_assertion(Bool(b), s, 0)[0]


def _compiled_expr(e, s):
    (final,) = run_all(Assign("y", e), s, 1).finals
    return final.get("y")


def test_eval_expr_totalized():
    s = State(x=7)
    for evaluate in (eval_expr, _compiled_expr):
        assert evaluate(expr("x / 0"), s) == 0
        assert evaluate(expr("x % 0"), s) == 7
        assert evaluate(expr("0 - x"), s) == 0
        assert evaluate(expr("x - 3"), s) == 4
        assert evaluate(expr("x * 2 + 1"), s) == 15
        assert evaluate(expr("x % 4"), s) == 3


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_long_mixed_chains_match_the_tree_walker(seed):
    # a left spine of + - * / % links, with divisors and moduli that are
    # often 0, folds in one closure from two links on; a value past the
    # cap ends the run
    rng = random.Random(seed)
    e = gen_expr(rng, NAMES, 1)
    for _ in range(rng.choice((1, 2, 3, rng.randrange(4, 400)))):
        e = BinOp(rng.choice("+-*/%"), e, gen_expr(rng, NAMES, 1))
    s = gen_state(rng, NAMES, 3)
    want = eval_expr(e, s)
    finals = run_all(Assign("y", e), s, 1).finals
    assert finals == ({} if want.bit_length() > VALUE_BIT_CAP else {s.set("y", want): 1})


def test_eval_bool():
    s = State(x=2)
    for evaluate in (eval_bool, _compiled_bool):
        assert evaluate(parse_bool_expr("x = 2"), s)
        assert evaluate(parse_bool_expr("x <= 2 && !(x = 0)"), s)
        assert not evaluate(parse_bool_expr("x < 2 || x > 2"), s)


# --- small-step relation --------------------------------------------------------


def test_step_shapes():
    s = State()
    assert step_ref((Empty(), s)) == []
    assert step_ref((parse_program("x := 1"), s)) == [(Empty(), State(x=1))]
    succ = step_ref((parse_program("(x := 1 + x := 2)"), s))
    assert len(succ) == 2
    w = parse_program("while x = 0 do { x := 1 }")
    assert step_ref((w, s)) == [(Seq(Assign("x", parse_program("x := 1").expr), w), s)]
    assert step_ref((w, State(x=3))) == [(Empty(), State(x=3))]


def test_step_unwraps_raw_empty_head():
    q = Assign("x", expr("1"))
    assert step_ref((Seq(Empty(), q), State()))== [(q, State())]


@given(SEEDS)
def test_step_deterministic_outside_choice(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 3)
    s = gen_state(rng, NAMES, 3)
    cfgs = [(p, s)]
    for _ in range(30):
        if not cfgs:
            break
        q, t = cfgs.pop()
        succ = step_ref((q, t))
        head = q
        while isinstance(head, Seq):
            head = head.first
        if isinstance(head, Choice):
            assert len(succ) == 2
        else:
            assert len(succ) <= 1
        cfgs.extend(succ)


# --- run_all --------------------------------------------------------------------


def test_run_all_frozen_example():
    p = parse_program("x := x + 1; (skip + x := 0)")
    r = run_all(p, State(x=3), 10000)
    assert r.finals == {State(x=4): 2, State(): 3}
    assert not r.truncated and not r.exhausted


def test_run_all_loop_example():
    p = parse_program("while i < 5 do { x := x + i; i := i + 1 }")
    r = run_all(p, State(), 10000)
    assert r.finals == {State(i=5, x=10): 16}
    assert not r.truncated


def test_run_all_detects_config_cycle():
    r = run_all(parse_program("while 0 = 0 do { skip }"), State(), 10000)
    assert r.finals == {}
    assert r.truncated and not r.exhausted


@pytest.mark.parametrize(
    "text, truncated",
    [
        # two choice branches merging into one configuration always end
        ("x := 1 + x := 2; x := 0", False),
        ("while 0 = 0 do { skip }", True),
        ("while i < 3 do { (i := i + 1 + skip) }", True),
    ],
)
def test_run_all_truncated_means_a_cycle(text, truncated):
    r = run_all(parse_program(text), State(), 10000)
    assert r.truncated is truncated and not r.exhausted


def test_run_all_exhausts_on_unbounded_growth():
    r = run_all(parse_program("while 0 = 0 do { x := x + 1 }"), State(), 50)
    assert r.finals == {}
    assert r.exhausted and r.truncated


def test_run_all_work_cap_cuts_branching_divergence():
    # both branches keep the guard alive and give x a new value, so the
    # frontier doubles per iteration; the work cap must end the run quickly
    p = parse_program("while i < 2 do { (x := 2 * x + x := 2 * x + 1) }")
    t0 = time.monotonic()
    r = run_all(p, State(), 500)
    assert time.monotonic() - t0 < 5.0
    assert r.cause == WORK_CAP and r.exhausted and r.truncated


def test_run_all_value_cap_cuts_repeated_squaring():
    # x doubles its bit width every iteration; without the value cap a
    # single multiplication would eventually dwarf the whole budget
    p = parse_program("while i < 2 do { x := x * (2 * x) }")
    t0 = time.monotonic()
    r = run_all(p, State(x=2), 500)
    assert time.monotonic() - t0 < 5.0
    assert r.exhausted and r.truncated
    assert r.finals == {}


def test_run_all_value_cap_spares_settling_products():
    r = run_all(parse_program("x := x * x; x := x * x"), State(x=3), 100)
    assert r.finals == {State(x=81): 2}
    assert not r.truncated and not r.exhausted


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_run_all_matches_denotational_reference(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 3)
    s0 = gen_state(rng, NAMES, 3)
    fr, complete = denot_finals(p, s0, 16, budget=40_000)
    r = run_all(p, s0, 1200)
    if complete and not r.exhausted:
        assert frozenset(r.finals) == fr
    elif not r.exhausted:
        assert fr <= frozenset(r.finals)


def _agrees_with_reference(p, s0, step_bound, compiled=None):
    got = run_all(p if compiled is None else compiled, s0, step_bound)
    want = run_all_ref(p, s0, step_bound)
    assert list(got.finals.items()) == list(want.finals.items())
    assert got.cause == want.cause
    if got.exhausted:
        assert got.truncated
    else:
        assert got.truncated == has_cycle_ref(p, s0)


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_run_all_matches_tree_rewriting_reference(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 3)
    if rng.random() < 0.5:
        p = denormalize(rng, p)
    s0 = gen_state(rng, NAMES, 3)
    compiled = None
    if rng.random() < 0.5:  # as check_triple does: more names than the program's
        compiled = compile_program(p, sorted(prog_vars(p) | {"x", "i", "z"}))
    _agrees_with_reference(p, s0, rng.choice((0, 1, 2, 3, 5, 8, 13, 400)), compiled)


@pytest.mark.parametrize(
    "text, s0, step_bound",
    [
        # work cap: the frontier doubles every iteration (the cause is
        # checked in test_run_all_work_cap_cuts_branching_divergence)
        ("while i < 2 do { (x := 2 * x + x := 2 * x + 1) }", State(), 500),
        # value cap, reached by repeated squaring
        ("while i < 2 do { x := x * (2 * x) }", State(x=2), 500),
        ("x := x * x; x := x * x", State(x=3), 100),
        # an initial value past the cap cuts every step that keeps it
        ("(x := 0 + y := 1); y := x", State(x=2**600), 100),
        ("x := 0; y := 1", State(x=2**600), 100),
        ("y := 1", State(z=2**600), 100),
        # step bound at the edges
        ("while i < 5 do { x := x + i; i := i + 1 }", State(), 16),
        ("while i < 5 do { x := x + i; i := i + 1 }", State(), 15),
    ],
)
def test_run_all_matches_reference_at_the_caps(text, s0, step_bound):
    _agrees_with_reference(parse_program(text), s0, step_bound)


def test_run_all_unwraps_each_raw_skip_in_one_step():
    x1, y2 = Assign("x", expr("1")), Assign("y", expr("2"))
    p = Seq(Empty(), Seq(Seq(Empty(), x1), y2))
    assert run_all(p, State(), 100).finals == {State(x=1, y=2): 4}
    _agrees_with_reference(p, State(), 100)


def test_compile_program_labels():
    assert compile_program(Empty(), ()).start == 0
    # one label per continuation: the loop, its two body positions, halt
    c = compile_program(parse_program("while i < 5 do { x := x + i; i := i + 1 }"), ["i", "x"])
    assert len(c.steps) == 4 and c.cyclic
    assert not compile_program(parse_program("x := 1 + x := 2; x := 0"), ["x"]).cyclic
    # a loop's annotation does not make it another continuation
    both = parse_program("(while i < 2 invariant true do { i := i + 1 }) + (while i < 2 do { i := i + 1 })")
    assert len(compile_program(both, ["i"]).steps) == 4
    with pytest.raises(KeyError):
        compile_program(parse_program("x := y"), ["x"])
    with pytest.raises(ValueError):
        run_all(c, State(z=1), 10)


def test_run_all_answers_a_long_left_nested_program():
    # a table built by recursion over continuations would outgrow the
    # stack here; the raw skip at the bottom costs one step
    p = Empty()
    for _ in range(400):
        p = Seq(p, Assign("x", expr("x + 1")))
    assert run_all(p, State(), 10000).finals == {State(x=400): 401}


def test_run_all_answers_a_long_raw_program():
    # neither erasing annotations nor joining tails walks the left nesting
    # by recursion or again per tail
    p = functools.reduce(Seq, [Assign("x", expr("x + 1"))] * 2000)
    assert run_all(p, State(), 10000).finals == {State(x=2000): 2000}


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_run_preserves_untouched_variables(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 3)
    s0 = gen_state(rng, NAMES + ["z"], 3).set("z", 5)
    r = run_all(p, s0, 800)
    assert "z" not in prog_vars(p)
    for f in r.finals:
        assert f.get("z") == 5


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_run_seq_composes(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 2)
    q = gen_prog(rng, NAMES, 2)
    s0 = gen_state(rng, NAMES, 3)
    whole = run_all(Seq(p, q), s0, 2000)
    first = run_all(p, s0, 2000)
    if whole.truncated or first.truncated:
        return
    composed = {}
    truncated = False
    for m in first.finals:
        r2 = run_all(q, m, 2000)
        truncated = truncated or r2.truncated
        composed.update({f: None for f in r2.finals})
    if not truncated:
        assert set(whole.finals) == set(composed)


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_while_agrees_with_one_unrolling(seed):
    rng = random.Random(seed)
    body = gen_prog(rng, NAMES, 2, loops=False)
    guard = parse_bool_expr(rng.choice(["x <= 1", "i = 0", "x < i"]))
    from prhl.syntax import While

    w = While(guard, body)
    s0 = gen_state(rng, NAMES, 3)
    lhs = run_all(w, s0, 3000)
    if eval_bool(guard, s0):
        rhs = run_all(Seq(body, w), s0, 3000)
    else:
        rhs = run_all(Empty(), s0, 3000)
    if not lhs.truncated and not rhs.truncated:
        assert set(lhs.finals) == set(rhs.finals)


# --- transformer enumeration -----------------------------------------------------


def test_transformer_set_frozen_example():
    p = parse_program("x := x + 1; (skip + x := 0)")
    b = Bounds(domain_max=4, step_bound=100, quant_bound=16)
    four = lambda s: s.get("x") == 4
    wpr = transformer_set("wpr", p, four, b)
    assert wpr.states == {State(x=3)} and not wpr.truncated
    wlp = transformer_set("wlp", p, four, b)
    assert wlp.states == set()  # the x := 0 branch always escapes
    sp = transformer_set("sp", p, lambda s: s.get("x") == 0, b)
    assert sp.states == {State(x=1), State()}


def test_transformer_wp_alias():
    p = parse_program("(x := 1 + x := 2)")
    b = Bounds(domain_max=3, step_bound=50, quant_bound=16)
    one = lambda s: s.get("x") == 1
    assert transformer_set("wp", p, one, b).states == transformer_set("wpr", p, one, b).states


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_wpr_wlp_duality(seed):
    # wpr(S) is the complement of wlp(complement of S)
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 3)
    b = Bounds(domain_max=3, step_bound=600, quant_bound=16)
    k = rng.randrange(4)
    pred = lambda s: s.get("x") == k
    wpr = transformer_set("wpr", p, pred, b)
    wlp = transformer_set("wlp", p, lambda s: not pred(s), b)
    if not wpr.truncated and not wlp.truncated:
        box = set(enumerate_states(sorted(prog_vars(p)), b.domain_max))
        assert wpr.states == box - wlp.states


def test_relevant_vars_union():
    pre = parse_assertion("x = 0")
    prog = parse_program("i := i + 1")
    post = parse_assertion("z = 1")
    assert relevant_vars(pre, prog, post) == ["i", "x", "z"]


# --- triple checking ---------------------------------------------------------------


LOOP = "while i < 5 do { x := x + i; i := i + 1 }"


def test_check_triple_partial_reverse_valid():
    v = check_triple(
        "partial-reverse",
        parse_assertion("true"),
        parse_program(LOOP),
        parse_assertion("x > 0 && i >= 5"),
        Bounds(8, 10000, 16),
    )
    assert v.is_valid and v.flags == ()


def test_check_triple_partial_reverse_invalid_witness():
    v = check_triple(
        "partial-reverse",
        parse_assertion("x = 0 && i = 0"),
        parse_program(LOOP),
        parse_assertion("x = 10 && i = 5"),
        Bounds(12, 1000, 16),
    )
    assert v.is_invalid
    assert v.witness == (State(i=5, x=10), State(i=5, x=10))


def test_check_triple_witness_depends_on_domain():
    # over 0..8 the self-reaching store x=10 is outside the initial box,
    # so a longer run from a smaller store is the minimal counterexample
    v = check_triple(
        "partial-reverse",
        parse_assertion("x = 0 && i = 0"),
        parse_program(LOOP),
        parse_assertion("x = 10 && i = 5"),
        Bounds(8, 1000, 16),
    )
    assert v.is_invalid
    assert v.witness == (State(i=4, x=6), State(i=5, x=10))


def test_check_triple_partial_hoare():
    v = check_triple(
        "partial-hoare",
        parse_assertion("x = 0"),
        parse_program("x := x + 1"),
        parse_assertion("x = 1"),
        Bounds(4, 50, 16),
    )
    assert v.is_valid
    w = check_triple(
        "partial-hoare",
        parse_assertion("true"),
        parse_program("(x := 1 + x := 2)"),
        parse_assertion("x = 1"),
        Bounds(4, 50, 16),
    )
    assert w.is_invalid
    assert w.witness == (State(), State(x=2))


def test_check_triple_total_hoare():
    v = check_triple(
        "total-hoare",
        parse_assertion("x = 0"),
        parse_program("(x := 1 + x := 2)"),
        parse_assertion("x = 1"),
        Bounds(4, 50, 16),
    )
    assert v.is_valid
    w = check_triple(
        "total-hoare",
        parse_assertion("x = 0"),
        parse_program("while 0 = 0 do { skip }"),
        parse_assertion("true"),
        Bounds(4, 50, 16),
    )
    assert w.is_invalid and w.witness == State()


def test_check_triple_incorrectness():
    v = check_triple(
        "incorrectness",
        parse_assertion("true"),
        parse_program("x := 1"),
        parse_assertion("x = 1"),
        Bounds(4, 50, 16),
    )
    assert v.is_valid
    w = check_triple(
        "incorrectness",
        parse_assertion("x = 0"),
        parse_program("x := 1"),
        parse_assertion("x = 2"),
        Bounds(4, 50, 16),
    )
    assert w.is_invalid and w.witness == State(x=2)


def test_check_triple_unknown_logic():
    with pytest.raises(ValueError):
        check_triple("hoare", parse_assertion("true"), Empty(), parse_assertion("true"), Bounds())


def test_check_triple_step_budget_unknown():
    v = check_triple(
        "partial-reverse",
        parse_assertion("x = 0"),
        parse_program("while 0 = 0 do { x := x + 1 }; x := 0"),
        parse_assertion("true"),
        Bounds(2, 30, 16),
    )
    assert v.is_unknown and v.reason == "step-budget-exhausted"


def test_check_triple_quantifier_unknown():
    # post needs two nested quantifiers but the bound admits only 0
    v = check_triple(
        "partial-reverse",
        parse_assertion("x = 0"),
        parse_program("x := x"),
        parse_assertion("exists y. exists z. x = y * z"),
        Bounds(2, 30, 0),
    )
    assert v.is_unknown and v.reason == "quantifier-bounded"
    # x = y + z pins z to x - y, and y <= x guards y: true at every store
    v = check_triple(
        "partial-reverse",
        parse_assertion("x = 0"),
        parse_program("x := x"),
        parse_assertion("exists y. exists z. x = y + z"),
        Bounds(2, 30, 0),
    )
    assert v.is_invalid and v.witness == (State(x=1), State(x=1))


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_check_triple_matches_state_box_reference(seed):
    # verdict kind, witness (ties included), reason and flags, in all four
    # logics, with quantified pre and post whose binders shadow store names
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 2)
    pre = gen_assertion(rng, NAMES + ["q"], 2, quant=True, guards=True)
    post = gen_assertion(rng, NAMES + ["q"], 2, quant=True, guards=True)
    b = Bounds(domain_max=rng.randrange(1, 4), step_bound=rng.choice([3, 40, 500]), quant_bound=rng.randrange(4))
    for logic in LOGICS:
        got = check_triple(logic, pre, p, post, b)
        assert got == check_triple_ref(logic, pre, p, post, b, evaluate=eval_assertion)
        # a verdict that the walker's values decide without flags stands
        ref = check_triple_ref(logic, pre, p, post, b)
        if ref.is_invalid:
            assert got.is_invalid
        if ref == Verdict("valid"):
            assert got == ref
    # the compiled values against the walker's, at every store and final
    names = relevant_vars(pre, p, post)
    for s0 in enumerate_states(names, b.domain_max):
        assert exactness_error(pre, s0, b.quant_bound) is None
        for f in {s0, *run_all_ref(p, s0, b.step_bound).finals}:
            assert exactness_error(post, f, b.quant_bound) is None


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_partial_reverse_verdict_matches_reference_search(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 2)
    pre = parse_assertion(rng.choice(["x = 0", "x <= 1", "i = 0", "true", "x = i"]))
    post = parse_assertion(rng.choice(["x = 1", "i <= 1", "x = i", "false", "i = 2"]))
    b = Bounds(domain_max=3, step_bound=500, quant_bound=16)
    v = check_triple("partial-reverse", pre, p, post, b)
    names = sorted(prog_vars(p) | {"x", "i"})
    ref = min_triple_witness(pre, p, post, enumerate_states(names, 3), 500, 16)
    if v.is_invalid:
        assert ref is not None and ref[0] == run_all(p, v.witness[0], 500).finals[v.witness[1]]
    elif v.is_valid:
        assert ref is None


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_partial_hoare_verdict_matches_reference_search(seed):
    rng = random.Random(seed)
    p = gen_prog(rng, NAMES, 2)
    pre = parse_assertion(rng.choice(["x = 0", "x <= 1", "i = 0", "true", "x = i"]))
    post = parse_assertion(rng.choice(["x = 1", "i <= 1", "x = i", "false", "i = 2"]))
    b = Bounds(domain_max=3, step_bound=500, quant_bound=16)
    v = check_triple("partial-hoare", pre, p, post, b)
    names = sorted(prog_vars(p) | {"x", "i"})
    ref = min_triple_witness(pre, p, post, enumerate_states(names, 3), 500, 16, hoare=True)
    if v.is_invalid:
        assert ref is not None and ref[0] == run_all(p, v.witness[0], 500).finals[v.witness[1]]
    elif v.is_valid:
        assert ref is None


# --- liveness-pruned boxes --------------------------------------------------------

CAPS = (STEP_DEPTH, WORK_CAP, VALUE_WIDTH)


def _gen_with_dead_names(rng):
    """A program over x and i, and t and u that no pre or post reads, with
    names dead on entry: a flag-style ``t := c`` prefix, a written-out
    ``if`` (its flag drawn by the parser), or names only the program has."""
    names = NAMES + ["t", "u"]
    rest = gen_prog(rng, names, 2)
    pick = rng.random()
    if pick < 0.35:
        return seq_of(Assign("t", Const(rng.randrange(2))), rest)
    if pick < 0.7:
        arms = [print_program(gen_prog(rng, names, 1, loops=False)) for _ in range(2)]
        text = f"if {print_bool(gen_bool(rng, names, 1))} then {{ {arms[0]} }} else {{ {arms[1]} }}"
        return seq_of(parse_program(text), rest)
    return rest


def _live_box(logic, pre, p, post):
    out = relevant_vars(pre, p, post) if logic == "incorrectness" else free_vars(post)
    return free_vars(pre) | live_vars(p, out)


def _cut_apart(logic, pre, p, post, b) -> bool:
    """Whether a cap cuts some store of the full box otherwise than its
    twin with every name outside the live set at 0."""
    live = _live_box(logic, pre, p, post)
    for s in enumerate_states(relevant_vars(pre, p, post), b.domain_max):
        twin = State({n: v for n, v in s.as_dict().items() if n in live})
        if run_all_ref(p, s, b.step_bound).cause != run_all_ref(p, twin, b.step_bound).cause:
            return True
    return False


@given(SEEDS)
@settings(max_examples=80, deadline=None)
def test_pruned_box_matches_full_box_reference(seed):
    # kind, witness, reason and flags in all four logics, against the
    # reference over the whole box, on programs with dead names; they may
    # differ only where a cap cuts a store and its twin apart, and then one
    # side is decided and the other Unknown for that cap.  The start stores
    # explored are, in box order, those whose pre value is flagged or on
    # the witness side (false under partial-reverse, true under the
    # others); a pre under a quantifier at bounds of 0 and 1 makes flagged
    # ones, in about a fifth of the cases
    rng = random.Random(seed)
    p = _gen_with_dead_names(rng)
    pre = gen_assertion(rng, NAMES + ["q"], 2, quant=True, guards=True)
    if rng.random() < 0.8:
        pre = rng.choice((Exists, Forall))("q", pre)
    post = gen_assertion(rng, NAMES + ["q"], 2, quant=True, guards=True)
    b = Bounds(domain_max=rng.randrange(1, 3), step_bound=rng.choice([3, 6, 40, 500]), quant_bound=rng.randrange(4))
    names = relevant_vars(pre, p, post)
    for logic in LOGICS:
        live = _live_box(logic, pre, p, post)
        box = [s for s in enumerate_states(names, b.domain_max) if live >= s.as_dict().keys()]
        values = [eval_assertion(pre, s, b.quant_bound) for s in box]
        side = logic != "partial-reverse"
        want = [tuple(s.get(n) for n in names) for s, (v, fl) in zip(box, values) if fl or v == side]
        with mock.patch.object(semantics, "explore_starts", wraps=semantics.explore_starts) as spy:
            got = check_triple(logic, pre, p, post, b)
        assert [s0 for c in spy.call_args_list for s0 in c.args[1]] == want
        ref = check_triple_ref(logic, pre, p, post, b, evaluate=eval_assertion)
        if got != ref:
            assert _cut_apart(logic, pre, p, post, b)
            assert any(v.is_unknown and v.reason in CAPS for v in (got, ref))


def test_pruned_box_differs_only_where_a_cap_cuts():
    # x is never read: from x = 1 the loop needs one more step to come back
    # to a configuration it has visited than from x = 0, so a step bound of
    # 3 cuts the full box's store x = 1 but not its twin x = 0 in the pruned
    # box; the twin's answer holds for both, since neither run terminates
    pre, p, post = parse_assertion("y = 1"), parse_program("while 0 = 0 do { x := 0 }"), parse_assertion("true")
    b = Bounds(2, 3, 4)
    assert _cut_apart("partial-reverse", pre, p, post, b)
    assert check_triple("partial-reverse", pre, p, post, b) == Verdict("valid")
    assert check_triple_ref("partial-reverse", pre, p, post, b) == Verdict("unknown", reason=STEP_DEPTH)
    b = Bounds(2, 4, 4)
    assert not _cut_apart("partial-reverse", pre, p, post, b)
    assert check_triple("partial-reverse", pre, p, post, b) == check_triple_ref("partial-reverse", pre, p, post, b)


def _finals_on(r, out):
    """The finals of ``r`` projected on ``out``, each at its least depth."""
    least: dict = {}
    for f, n in r.finals.items():
        key = tuple(f.get(v) for v in sorted(out))
        least[key] = min(n, least.get(key, n))
    return least


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_dead_names_never_reach_the_live_out(seed):
    # from s and from s[x:=v], x dead on entry: the same finals on the
    # live-out names, each at the same least depth, whatever the step
    # bound cuts (the work cap cuts finals at random and is left out)
    rng = random.Random(seed)
    names = NAMES + ["t", "u"]
    p = _gen_with_dead_names(rng) if rng.random() < 0.5 else gen_prog(rng, names, 3)
    out = {n for n in names if rng.random() < 0.5}
    s = gen_state(rng, names, 3)
    step_bound = rng.choice((2, 5, 9, 40, 400))
    base = run_all(p, s, step_bound)
    for x in sorted(set(names) - live_vars(p, out)):
        for v in range(4):
            other = run_all(p, s.set(x, v), step_bound)
            if WORK_CAP not in (base.cause, other.cause):
                assert _finals_on(other, out) == _finals_on(base, out)


TWO_IFS = "if x < 3 then { y := 1 } else { y := 2 }; if y = 1 then { z := x } else { z := 0 }"


def test_two_ifs_enumerate_only_the_live_names(monkeypatch):
    # t and t_p1, the flags, are written before they are read: 9^3 stores
    # over x, y and z instead of 9^5, with the full box's verdicts; of
    # those, only the stores that can witness are explored: the 6/9 with
    # x >= 3 under partial-reverse, the 3/9 with x < 3 under the others
    pre, p, post = parse_assertion("x < 3"), parse_program(TWO_IFS), parse_assertion("z = x")
    assert relevant_vars(pre, p, post) == ["t", "t_p1", "x", "y", "z"]
    real, calls = semantics.explore_starts, []
    monkeypatch.setattr(semantics, "explore_starts", lambda c, starts, n: calls.extend(starts) or real(c, starts, n))
    pruned = {}
    for logic in LOGICS:
        calls.clear()
        pruned[logic] = check_triple(logic, pre, p, post, Bounds())
        assert len(calls) == {"partial-reverse": 486}.get(logic, 243)
    # the full box: every name live
    monkeypatch.setattr(semantics, "live_vars", lambda prog, out: prog_vars(prog) | frozenset(out))
    for logic in LOGICS:
        calls.clear()
        assert check_triple(logic, pre, p, post, Bounds()) == pruned[logic]
        assert len(calls) == {"partial-reverse": 39366}.get(logic, 19683)
    # finals with z = x come only from x < 3; the post store {} (x = z = 0,
    # y = 0) is reached by no run, since every run leaves y at 1 or 2
    assert [pruned[logic] for logic in LOGICS] == [Verdict("valid")] * 3 + [Verdict("invalid", witness=State())]


def test_flagged_start_stores_are_explored_in_every_logic(monkeypatch):
    # x = 0 holds, x = 1 fails, and x = 2, 3 hold only up to the quantifier
    # bound: partial-reverse explores 1, 2, 3 and the other logics 0, 2, 3
    pre, p, post = parse_assertion("x = 0 || forall q. q <= x"), parse_program("x := x + 1"), parse_assertion("true")
    b = Bounds(domain_max=3, quant_bound=2)
    assert [eval_assertion(pre, State(x=x), 2) for x in range(4)] == [(True, False), (False, False)] + [(True, True)] * 2
    real, calls = semantics.explore_starts, []
    monkeypatch.setattr(semantics, "explore_starts",
                        lambda c, starts, n: calls.extend(s0[c.names.index("x")] for s0 in starts) or real(c, starts, n))
    for logic in LOGICS:
        calls.clear()
        check_triple(logic, pre, p, post, b)
        assert calls == ([1, 2, 3] if logic == "partial-reverse" else [0, 2, 3])


# --- what cut a run ----------------------------------------------------------------

CUTS = [
    ("while 0 = 0 do { x := x + 1 }", State(), STEP_DEPTH),
    # the frontier doubles every iteration, and the work cap ends it first
    ("while 0 = 0 do { (x := 2 * x + x := 2 * x + 1) }", State(), WORK_CAP),
    ("while i < 2 do { x := x * (2 * x) }", State(x=2), VALUE_WIDTH),
]


@pytest.mark.parametrize("text, s0, cause", CUTS)
def test_run_all_names_the_cap(text, s0, cause):
    r = run_all(parse_program(text), s0, 500)
    assert r.cause == cause and r.exhausted and r.truncated
    assert run_all_ref(parse_program(text), s0, 500).cause == cause


@pytest.mark.parametrize("text, s0, cause", CUTS)
def test_check_triple_names_the_cap(text, s0, cause):
    # no store of the box {i, x} in 0..1 terminates, and each is a candidate
    v = check_triple("partial-reverse", parse_assertion("false"), parse_program(text), parse_assertion("true"),
                     Bounds(1, 500, 16))
    assert v == Verdict("unknown", reason=cause)


# --- start stores explored together ----------------------------------------------


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_check_triple_matches_one_explore_per_start(seed):
    # equal Verdicts in all four logics against one explore per start
    # store, at step bounds that cut, with flagged pres, the CUTS programs,
    # work caps small enough that some chunks are split in halves,
    # and chunks of 1-9 starts, so that witnesses, flags and cuts come
    # from later chunks
    rng = random.Random(seed)
    pick = rng.random()
    if pick < 0.15:
        p, domain_max = parse_program(rng.choice(CUTS)[0]), 1
    else:
        p, domain_max = _gen_with_dead_names(rng) if pick < 0.55 else gen_prog(rng, NAMES, 2), rng.randrange(1, 4)
    pre = gen_assertion(rng, NAMES + ["q"], 2, quant=True, guards=True)
    if rng.random() < 0.5:
        pre = rng.choice((Exists, Forall))("q", pre)
    post = gen_assertion(rng, NAMES + ["q"], 2, quant=True, guards=True)
    b = Bounds(domain_max, rng.choice([1, 2, 3, 4, 5, 6, 500]), rng.randrange(4))
    chunk = rng.choice((semantics.CHUNK, *range(1, 10)))
    cap = semantics.work_cap if rng.random() < 0.7 else (lambda n, k=rng.randrange(4, 60): k)
    with mock.patch.object(semantics, "CHUNK", chunk), mock.patch.object(semantics, "work_cap", cap):
        for logic in LOGICS:
            assert check_triple(logic, pre, p, post, b) == check_triple_rows_ref(logic, pre, p, post, b)


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_check_triple_in_slabs_matches_one_explore_per_start(seed):
    # the box's tables taken in slabs of a few stores, which chunks of
    # starts cross: equal Verdicts in all four logics against one explore
    # per start store, with flagged pres and posts
    rng = random.Random(seed)
    p = _gen_with_dead_names(rng) if rng.random() < 0.5 else gen_prog(rng, NAMES, 2)
    pre, post = (gen_assertion(rng, NAMES + ["q"], 2, quant=True, guards=True) for _ in range(2))
    b = Bounds(rng.randrange(1, 4), rng.choice([2, 5, 500]), rng.randrange(4))
    with mock.patch.object(assertions, "CHUNK", rng.choice((1, 2, 3, 5, 9))), \
            mock.patch.object(semantics, "CHUNK", rng.choice((semantics.CHUNK, *range(1, 10)))):
        for logic in LOGICS:
            assert check_triple(logic, pre, p, post, b) == check_triple_rows_ref(logic, pre, p, post, b)


def test_flags_follow_their_starts_across_chunks_and_slabs(monkeypatch):
    # x = 0 holds, x = 1 fails and x = 2, 3 hold only up to the quantifier
    # bound; the runs from x = 2 and 3 leave the post, so partial-hoare is
    # Unknown whichever chunks and slabs the starts fall into
    pre, p, post = parse_assertion("x = 0 || forall q. q <= x"), parse_program("x := x + 1"), parse_assertion("x <= 1")
    b = Bounds(domain_max=3, quant_bound=2)
    for chunk, slab in itertools.product(range(1, 5), (1, 2, 3, 4096)):
        monkeypatch.setattr(semantics, "CHUNK", chunk)
        monkeypatch.setattr(assertions, "CHUNK", slab)
        got = [check_triple(logic, pre, p, post, b) for logic in LOGICS]
        assert got[LOGICS.index("partial-hoare")] == Verdict("unknown", reason="quantifier-bounded")
        assert got == [check_triple_rows_ref(logic, pre, p, post, b) for logic in LOGICS]


def test_check_triple_compiles_only_the_post(monkeypatch):
    # the pre's values and flags come from its tables over the box, and
    # the incorrectness sweep's from the post's: only the post, which
    # judges finals outside the box, is compiled to a closure
    pre, p, post = parse_assertion("x < 3 || forall q. q <= x"), parse_program("x := x + 1"), parse_assertion("x <= 2")
    real, asked = semantics.compile_assertions, []
    monkeypatch.setattr(semantics, "compile_assertions", lambda names, qb, *a: asked.append(a) or real(names, qb, *a))
    b = Bounds(3, 100, 2)
    for logic in LOGICS:
        asked.clear()
        got = check_triple(logic, pre, p, post, b)
        assert asked == [(post,)]
        assert got == check_triple_rows_ref(logic, pre, p, post, b)


CHOICES = "(a := a + 5 * b + b := b + 5 * c); c := c + d; (d := d + 5 * e + e := e + a)"


def test_choice_starts_are_explored_together(monkeypatch):
    # 3,125 starts whose runs together visit 45,980 configurations, past
    # the work cap of 8 * 400 + 16384 = 19,584, though no single run can
    # pass it: 15 label paths, so chunks of 19,584 // 15 starts stay under
    # it and no chunk is split
    pre, p, post = parse_assertion("false"), parse_program(CHOICES), parse_assertion("a <= b")
    b = Bounds(4, 400, 16)
    c = compile_program(p, relevant_vars(pre, p, post))
    starts = list(store_tuples(c.names, 4))
    seen, frontier = set(), {(c.start, s0) for s0 in starts}
    while frontier:
        seen |= frontier
        frontier = {succ for lab, st in frontier if lab for succ in c.steps[lab](st)} - seen
    assert semantics.label_paths(c) == 15 and len(seen) == 45980 > semantics.work_cap(400)
    real, calls = semantics.explore_starts, []
    monkeypatch.setattr(semantics, "explore_starts", lambda c, starts, n: calls.append(len(starts)) or real(c, starts, n))
    got = [check_triple(logic, pre, p, post, b) for logic in LOGICS]
    assert calls == [1305, 1305, 515]
    monkeypatch.undo()
    assert got == [check_triple_rows_ref(logic, pre, p, post, b) for logic in LOGICS]


def test_a_chunk_that_reaches_the_work_cap_is_split_in_halves(monkeypatch):
    # in a loop the label graph is cyclic and chunks take 4,096 starts;
    # each of those reaches the work cap of 19,584 and is explored again
    # as two halves, which stay under it, so no start runs by itself
    p = parse_program(f"while i < 1 do {{ {CHOICES}; i := i + 1 }}")
    pre, post = parse_assertion("false"), parse_assertion("a <= b")
    b = Bounds(4, 400, 16)
    real, calls = semantics.explore_starts, []
    monkeypatch.setattr(semantics, "explore_starts", lambda c, starts, n: calls.append(len(starts)) or real(c, starts, n))
    got = [check_triple(logic, pre, p, post, b) for logic in LOGICS]
    assert calls == [4096, 2048, 2048] * 3 + [3337, 1668, 1669]
    monkeypatch.undo()
    assert got == [check_triple_rows_ref(logic, pre, p, post, b) for logic in LOGICS]
