"""Command-line interface: outputs, exit codes, bounds plumbing."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from oracles import PrhlNode, run_all_ref
from prhl import assertions, cli
from prhl.certificates import PrhlProof, Triple, parse_proof, serialize_proof
from prhl.checker import check_prhl
from prhl.cli import main, read_triple_file
from prhl.prover import CYCLIC_CAP
from prhl.semantics import State
from prhl.syntax import PRINT_CAP, PrintCapExceeded, parse_assertion as pa, parse_program, seq_of


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def prog_file(tmp_path):
    return write(tmp_path, "prog.while", "x := x + 1; (skip + x := 0)")


# --- run -----------------------------------------------------------------------


def test_run_text(prog_file, capsys):
    assert main(["run", prog_file, "--state", "x=3"]) == 0
    assert capsys.readouterr().out == "{x: 0}\n{x: 4}\n"


def test_run_machine(prog_file, capsys):
    assert main(["run", prog_file, "--state", "x=3", "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "finals": [
            {"state": {"x": 0}, "steps": 3},
            {"state": {"x": 4}, "steps": 2},
        ],
        "truncated": False,
        "exhausted": False,
    }


def test_run_notes_and_exit_codes(tmp_path, capsys):
    spin = write(tmp_path, "spin.while", "while 0 = 0 do { skip }")
    assert main(["run", spin]) == 0
    out = capsys.readouterr().out
    assert "(no terminating run)" in out
    assert "non-terminating cycles pruned" in out

    grow = write(tmp_path, "grow.while", "while 0 = 0 do { x := x + 1 }")
    assert main(["run", grow, "--step-bound", "40"]) == 2
    assert "step budget exhausted" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, state, note",
    [
        ("while 0 = 0 do { x := x + 1 }", [], "step budget exhausted"),
        ("while 0 = 0 do { (x := 2 * x + x := 2 * x + 1) }", [], "work cap on explored configurations reached"),
        ("while i < 2 do { x := x * (2 * x) }", ["--state", "x=2"], "a value outgrew 512 bits"),
    ],
)
def test_run_note_names_the_cap(text, state, note, tmp_path, capsys):
    prog = write(tmp_path, "cut.while", text)
    assert main(["run", prog, "--step-bound", "500", *state]) == 2
    assert capsys.readouterr().out == f"(no terminating run)\nnote: {note}; the list may be incomplete\n"
    assert main(["run", prog, "--step-bound", "500", *state, "--format", "machine"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["finals"], doc["truncated"], doc["exhausted"]) == ([], True, True)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("while 0 = 0 do { (x := 2 * x + x := 2 * x + 1) }", "work-cap-exhausted"),
        ("x := x + 2; while i < 2 do { x := x * (2 * x) }", "value-width-exhausted"),
    ],
)
def test_check_triple_unknown_names_the_cap(text, reason, tmp_path, capsys):
    t = write(tmp_path, "cut.triple", f"pre: false\nprog: {text}\npost: true\n")
    assert main(["check-triple", t, "--step-bound", "500", "--domain-max", "1"]) == 2
    assert capsys.readouterr().out == f"UNKNOWN ({reason})\n"


def test_run_join_is_not_a_cycle(tmp_path, capsys):
    join = write(tmp_path, "join.while", "x := 1 + x := 2; x := 0")
    assert main(["run", join]) == 0
    assert capsys.readouterr().out == "{x: 0}\n"


def test_run_crash_exits_3_without_traceback(prog_file, capsys, monkeypatch):
    def crash(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "run_all", crash)
    assert main(["run", prog_file]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"
    assert "Traceback" not in err


def test_run_long_straight_line_program(tmp_path, capsys):
    text = ";\n".join(f"x := x + {k % 4}" for k in range(650))
    assert main(["run", write(tmp_path, "long.while", text), "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    ref = run_all_ref(parse_program(text), State(), 10000)
    finals = sorted(ref.finals.items(), key=lambda item: item[0].sort_key())
    assert doc["finals"] == [{"state": {"x": s.get("x")}, "steps": n} for s, n in finals]
    assert (doc["truncated"], doc["exhausted"]) == (ref.truncated, ref.exhausted) == (False, False)


def _steps(n):
    """n assignments ``x := x + k % 4``, and the x they leave from x = 0."""
    return ";\n".join(f"x := x + {k % 4}" for k in range(n)), sum(k % 4 for k in range(n))


@pytest.mark.parametrize("n", [3000, 10000])
def test_run_long_program_answers(n, tmp_path, capsys):
    text, total = _steps(n)
    assert main(["run", write(tmp_path, "long.while", text), "--format", "machine"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"finals": [{"state": {"x": total}, "steps": n}], "truncated": False, "exhausted": False}


def _long_sum(n):
    return "x := " + " + ".join(["1"] * n)


@pytest.mark.parametrize("n", [3000, 10000])
def test_long_sum_answers(n, tmp_path, capsys):
    # one assignment of a term n links long: the compiled term folds its
    # left spine in a loop rather than nesting a closure per link
    assert main(["run", write(tmp_path, "sum.while", _long_sum(n))]) == 0
    assert capsys.readouterr().out == f"{{x: {n}}}\n"
    assert main(["run", write(tmp_path, "chain.while", f"x := {n + 7}" + " - 1" * n)]) == 0
    assert capsys.readouterr().out == "{x: 7}\n"
    t = write(tmp_path, "sum.triple", f"pre: x = 0\nprog: {_long_sum(n)}\npost: x = {n}\n")
    for logic in ("total-hoare", "partial-hoare"):
        assert main(["check-triple", t, "--logic", logic]) == 0
        assert capsys.readouterr().out == "VALID\n"
    assert main(["check-triple", t]) == 1
    assert capsys.readouterr().out == f"INVALID witness: {{x: 1}} -> {{x: {n}}}\n"


def test_run_rejects_bad_state_binding(prog_file, capsys):
    assert main(["run", prog_file, "--state", "x3"]) == 3
    assert "bad --state binding" in capsys.readouterr().err


# --- check-triple -----------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "golden" / "check_triple_machine.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_check_triple_machine_golden(case, capsys, monkeypatch):
    for env in ("PRHL_DOMAIN_MAX", "PRHL_STEP_BOUND", "PRHL_QUANT_BOUND"):
        monkeypatch.delenv(env, raising=False)
    name, logic = case.split()
    code = main(["check-triple", f"corpus/{name}", "--logic", logic, "--format", "machine"])
    assert (code, capsys.readouterr().out) == (GOLDEN[case]["exit"], GOLDEN[case]["stdout"])


def test_check_triple_corpus_valid(capsys):
    assert main(["check-triple", "corpus/ex3.triple"]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_check_triple_corpus_invalid_witness(capsys):
    code = main(
        ["check-triple", "corpus/ex4.triple", "--domain-max", "12", "--step-bound", "1000"]
    )
    assert code == 1
    assert capsys.readouterr().out == (
        "INVALID witness: {i: 5, x: 10} -> {i: 5, x: 10}\n"
    )


def test_check_triple_env_bounds(capsys, monkeypatch):
    monkeypatch.setenv("PRHL_DOMAIN_MAX", "12")
    monkeypatch.setenv("PRHL_STEP_BOUND", "1000")
    assert main(["check-triple", "corpus/ex4.triple"]) == 1
    # explicit flags beat the environment
    monkeypatch.setenv("PRHL_STEP_BOUND", "30")
    assert main(["check-triple", "corpus/ex4.triple", "--step-bound", "1000"]) == 1
    capsys.readouterr()


def test_check_triple_other_logic(tmp_path, capsys):
    t = write(tmp_path, "t.triple", "pre: x = 0\nprog: x := x + 1\npost: x = 1\n")
    assert main(["check-triple", t, "--logic", "partial-hoare"]) == 0
    assert main(["check-triple", t, "--logic", "total-hoare"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("n", [3000, 10000])
def test_check_triple_long_program_answers(n, tmp_path, capsys):
    text, total = _steps(n)
    t = write(tmp_path, "long.triple", f"pre: x = 0\nprog: {text}\npost: x = {total}\n")
    assert main(["check-triple", t]) == 0
    assert capsys.readouterr().out == "VALID\n"
    assert main(["check-triple", t, "--logic", "total-hoare", "--domain-max", "2"]) == 0
    assert capsys.readouterr().out == "VALID\n"


@pytest.mark.parametrize("logic", ["partial-hoare", "total-hoare"])
def test_if_flag_does_not_capture_a_triple_variable(logic, tmp_path, capsys):
    t = write(tmp_path, "if.triple", "pre: t = 7\nprog: if x = 0 then { x := 1 } else { x := 2 }\npost: t = 7\n")
    assert main(["check-triple", t, "--logic", logic]) == 0
    assert capsys.readouterr().out == "VALID\n"


def test_check_triple_unknown(tmp_path, capsys):
    t = write(
        tmp_path, "u.triple", "pre: x = 0\nprog: while 0 = 0 do { x := x + 1 }; x := 0\npost: true\n"
    )
    assert main(["check-triple", t, "--step-bound", "30", "--domain-max", "2"]) == 2
    assert capsys.readouterr().out == "UNKNOWN (step-budget-exhausted)\n"


def test_check_triple_machine_deterministic(capsys):
    assert main(["check-triple", "corpus/ex3.triple", "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["check-triple", "corpus/ex3.triple", "--format", "machine"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["verdict"] == {"kind": "valid", "flags": [], "reason": None, "witness": None}
    assert doc["bounds"] == {"domain_max": 8, "step_bound": 10000, "quant_bound": 16}


# --- triple files ---------------------------------------------------------------


def test_triple_file_sections(tmp_path):
    t = read_triple_file(
        write(
            tmp_path,
            "multi.triple",
            "# comment first\npre: true\nprog: x := 1;\n  x := x + 1\npost:\n  x = 2\n",
        )
    )
    from prhl.syntax import print_program

    assert print_program(t.prog) == "x := 1; x := x + 1"


def test_triple_file_errors(tmp_path, capsys):
    missing = write(tmp_path, "m.triple", "pre: true\npost: true\n")
    assert main(["check-triple", missing]) == 3
    assert "missing section" in capsys.readouterr().err
    dup = write(tmp_path, "d.triple", "pre: true\npre: true\nprog: skip\npost: true\n")
    assert main(["check-triple", dup]) == 3
    assert "duplicate section" in capsys.readouterr().err


def test_parse_error_exit(tmp_path, capsys):
    bad = write(tmp_path, "bad.triple", "pre: true\nprog: x :=\npost: true\n")
    assert main(["check-triple", bad]) == 3
    assert "parse error" in capsys.readouterr().err


def test_quantified_guard_is_a_parse_error(tmp_path, capsys):
    prog = write(tmp_path, "q.while", "while exists i. i = x do { x := x + 1 }")
    assert main(["run", prog]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "cmd, name, text, cause",
    [
        ("run", "rhs.while", "x := " + "(" * 2000 + "1" + ")" * 2000, "nesting too deep"),
        ("run", "stmt.while", "(" * 2000 + "x := 1" + ")" * 2000, "nesting too deep"),
        ("check-triple", "pre.triple", f"pre: {'(' * 2000}x = 1{')' * 2000}\nprog: skip\npost: x = 1\n", "nesting too deep"),
        ("run", "num.while", "x := " + "7" * 5000, "numeral of 5000 digits is too long"),
    ],
)
def test_deep_nesting_and_long_numerals_are_parse_errors(cmd, name, text, cause, tmp_path, capsys):
    assert main([cmd, write(tmp_path, name, text)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and cause in err


def test_deeply_parenthesized_pre_answers(tmp_path, capsys):
    t = write(tmp_path, "pre.triple", f"pre: {'(' * 400}x = 1{')' * 400}\nprog: skip\npost: x = 1\n")
    assert main(["check-triple", t]) == 0
    assert capsys.readouterr().out == "VALID\n"


# --- check-proof -------------------------------------------------------------------


def test_check_proof_accepts_tree(capsys):
    assert main(["check-proof", "corpus/ex3_prhl.json"]) == 0
    assert capsys.readouterr().out == "ACCEPT (bounded: none)\n"


def test_check_proof_rejects_literal_transcription(capsys):
    assert main(["check-proof", "corpus/ex4_literal.cprhl.json"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("REJECT\n")
    assert "  n8 side-condition: pre side:" in out
    assert "fails at {i: 0, x: 0}" in out
    assert "  global: ok" in out


def test_check_proof_machine_report(capsys):
    assert main(["check-proof", "corpus/ex4_literal.cprhl.json", "--format", "machine"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["system"] == "cprhl" and doc["accepted"] is False
    assert doc["global"] == {"status": "ok", "ids": []}
    assert doc["nodes"]["n8"]["status"] == "side-condition"
    assert doc["nodes"]["n2"]["status"] == "ok"


def _drop_annotation(path, nid):
    """The certificate at ``path`` with the loop annotation of node
    ``nid``'s program removed."""
    doc = json.loads(Path(path).read_text())
    terms, triple = doc["terms"], doc["nodes"][nid]["triple"]
    rule, guard, body, inv = terms[triple["prog"]]
    assert rule == "While" and inv is not None
    triple["prog"] = len(terms)
    terms.append(["While", guard, body, None])
    Path(path).write_text(json.dumps(doc))


def test_check_proof_program_comparison_ignores_annotations(tmp_path, capsys):
    cert, cyc = str(tmp_path / "ex3a.json"), str(tmp_path / "ex3a.cyclic.json")
    assert main(["prove", "corpus/ex3_annotated.triple", "--loop-mode", "invariant-annotations", "-o", cert]) == 0
    assert main(["transform", cert, "-o", cyc]) == 0
    capsys.readouterr()
    # n1 is a Cons whose premise n2 states the loop without its annotation
    _drop_annotation(cert, "n2")
    assert main(["check-proof", cert]) == 0
    assert capsys.readouterr().out == "ACCEPT (bounded: none)\n"
    # the open leaf c9 and its companion c2 differ only by the annotation
    assert parse_proof(Path(cyc).read_text()).backlinks == {"c9": "c2"}
    _drop_annotation(cyc, "c9")
    assert main(["check-proof", cyc]) == 0
    assert capsys.readouterr().out == "ACCEPT (bounded: none)\n"


def _axiom_certificate(**changes):
    triple = {"pre": "true", "prog": "skip", "post": "true"}
    node = {"rule": "Axiom", "triple": triple, "children": []}
    doc = {"system": "prhl", "root": "n1", "nodes": {"n1": node}}
    for key, value in changes.items():
        (triple if key in triple else node if key in (*node, "fresh") else doc)[key] = value
    return json.dumps(doc)


def test_check_proof_root_of_wrong_type(tmp_path, capsys):
    # the certificate as built is accepted; only the changed field is bad
    assert main(["check-proof", write(tmp_path, "ok.json", _axiom_certificate())]) == 0
    capsys.readouterr()
    assert main(["check-proof", write(tmp_path, "c.json", _axiom_certificate(root=[1]))]) == 3
    assert capsys.readouterr().err == "error: root [1] is not a node id\n"


def test_check_proof_rule_of_wrong_type(tmp_path, capsys):
    assert main(["check-proof", write(tmp_path, "c.json", _axiom_certificate(rule=["Axiom"]))]) == 3
    assert capsys.readouterr().err == "error: unknown rule ['Axiom'] at node 'n1'\n"


def test_check_proof_triple_field_of_wrong_type(tmp_path, capsys):
    for pre in (1, 1.5, True, None):
        assert main(["check-proof", write(tmp_path, "c.json", _axiom_certificate(pre=pre))]) == 3
        assert capsys.readouterr().err == (
            "error: malformed triple at node 'n1': pre is neither text nor the position of an assertion term\n"
        )


@pytest.mark.parametrize(
    "text, err",
    [
        ('{"system": "prhl",', "error: malformed JSON: "),
        ("[]", "error: malformed certificate: not an object\n"),
        (_axiom_certificate(nodes={}), "error: malformed certificate: no nodes\n"),
        (_axiom_certificate(nodes={"n1": 1}), "error: malformed node 'n1'\n"),
        (_axiom_certificate(children="n2"), "error: malformed children at node 'n1'\n"),
        (_axiom_certificate(children=[1]), "error: malformed children at node 'n1'\n"),
        (_axiom_certificate(fresh=1), "error: malformed fresh variable at node 'n1'\n"),
        (_axiom_certificate(system="cprhl", backlinks=[]), "error: malformed backlinks\n"),
    ],
)
def test_check_proof_malformed_certificate(text, err, tmp_path, capsys):
    assert main(["check-proof", write(tmp_path, "c.json", text)]) == 3
    got = capsys.readouterr().err
    assert got.startswith(err) if err.endswith(": ") else got == err


# --- prove / transform ---------------------------------------------------------------


def test_prove_writes_checkable_certificate(tmp_path, capsys):
    t = write(tmp_path, "line.triple", "pre: x = 2\nprog: x := x + 1; x := x * 2\npost: x = 6\n")
    cert = str(tmp_path / "line.json")
    assert main(["prove", t, "-o", cert]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "status: proved"
    assert f"certificate: {cert}" in out
    assert main(["check-proof", cert]) == 0
    capsys.readouterr()
    # and the transform of that certificate is accepted too
    cyc = str(tmp_path / "line.cyclic.json")
    assert main(["transform", cert, "-o", cyc]) == 0
    assert "ACCEPT" in capsys.readouterr().out
    assert parse_proof((tmp_path / "line.cyclic.json").read_text()).backlinks == {}


def test_identical_cons_side_is_not_flagged(tmp_path, capsys):
    # the post is bound-relative, so only asking post |= post would flag it
    t = write(tmp_path, "same.triple", "pre: true\nprog: x := x + 1\npost: forall y. x <= x + y\n")
    cert = str(tmp_path / "same.json")
    assert main(["prove", t, "-o", cert]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "status: proved"
    assert main(["check-proof", cert]) == 0
    assert main(["transform", cert]) == 0
    assert capsys.readouterr().out == "ACCEPT (bounded: none)\nACCEPT (bounded: none)\n"


def test_prove_refuted(capsys):
    code = main(["prove", "corpus/ex4.triple", "--loop-mode", "invariant-annotations",
                 "--domain-max", "12", "--step-bound", "1000"])
    assert code == 1
    out = capsys.readouterr().out
    assert "status: refuted" in out
    assert "witness: {i: 5, x: 10} -> {i: 5, x: 10}" in out


def test_prove_invariant_mode_needs_annotation(capsys):
    assert main(["prove", "corpus/ex3.triple", "--loop-mode", "invariant-annotations"]) == 3
    assert "loop has no invariant annotation" in capsys.readouterr().err


def test_prove_beta_bounded(tmp_path, capsys):
    t = write(
        tmp_path, "b.triple", "pre: x <= 1\nprog: while x = 0 do { x := x + 1 }\npost: x = 1\n"
    )
    assert main(["prove", t, "--domain-max", "6", "--quant-bound", "4", "--step-bound", "2000"]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "status: proved-bounded"
    assert "(bounded: quantifier-bounded)" in out


def test_prove_beta_ex3_answers_within_seconds(capsys):
    # the beta invariant's sequence entries are pinned and its index is
    # guarded, so only k, m and n range over 0..quant_bound
    assert main(["prove", "corpus/ex3.triple", "--domain-max", "3", "--quant-bound", "8"]) == 2
    assert capsys.readouterr().out.splitlines()[0] == "status: proved-bounded"
    start = time.perf_counter()
    assert main(["prove", "corpus/ex3.triple", "--domain-max", "3", "--quant-bound", "16"]) == 2
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().out.splitlines()[0] == "status: unknown"


def test_transform_rejects_cyclic_input(tmp_path, capsys):
    # the corpus's hand-written cyclic certificate and one that transform wrote
    t = write(tmp_path, "line.triple", "pre: x = 2\nprog: x := x + 1\npost: x = 3\n")
    cert, cyc = str(tmp_path / "line.json"), str(tmp_path / "line.cyclic.json")
    assert main(["prove", t, "-o", cert]) == 0
    assert main(["transform", cert, "-o", cyc]) == 0
    capsys.readouterr()
    for path in ("corpus/ex4_literal.cprhl.json", cyc):
        assert main(["transform", path]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: transform expects an ordinary (prhl) certificate\n"
        assert captured.out == ""


@pytest.mark.parametrize("cmd", ["prove", "transform"])
def test_failed_serialization_leaves_the_certificate_as_it_was(cmd, tmp_path, capsys, monkeypatch):
    cert = str(tmp_path / "ex3.json")
    assert main(["prove", "corpus/ex3_annotated.triple", "--loop-mode", "invariant-annotations", "-o", cert]) == 0
    before = (tmp_path / "ex3.json").read_bytes()
    capsys.readouterr()

    def too_long(proof):
        raise PrintCapExceeded(f"print-size-cap: the text of a term passes {PRINT_CAP} bytes")

    monkeypatch.setattr(cli, "serialize_proof", too_long)
    args = ["corpus/ex3_annotated.triple", "--loop-mode", "invariant-annotations"] if cmd == "prove" else [cert]
    assert main([cmd, *args, "-o", cert]) == 2
    assert capsys.readouterr().err.startswith("undecided: print-size-cap")
    assert (tmp_path / "ex3.json").read_bytes() == before


def choice_chain(k: int) -> PrhlProof:
    """A prhl proof of [| true |] (x := x + 1 + skip); ... [| true |]
    with k choices and every assertion true."""
    true, unit = pa("true"), parse_program("x := x + 1 + skip")
    step = PrhlNode("Or", Triple(true, unit, true), (
        PrhlNode("Assign", Triple(true, unit.left, true)),
        PrhlNode("Axiom", Triple(true, unit.right, true)),
    ))
    proof = step
    for i in range(2, k + 1):
        proof = PrhlNode("Seq", Triple(true, seq_of(*[unit] * i), true), (step, proof))
    return proof.to_proof()


def test_transform_stops_at_the_cyclic_size_cap(tmp_path, capsys):
    # each choice walks its continuation once per arm: k choices give
    # 3 * 2^k - 2 nodes here, where no Cons step joins an arm
    cert, cyc = tmp_path / "chain.json", tmp_path / "chain.cyclic.json"
    cert.write_text(serialize_proof(choice_chain(8)))
    assert main(["transform", str(cert), "-o", str(cyc)]) == 0
    assert len(parse_proof(cyc.read_text()).nodes) == 3 * 2**8 - 2
    assert check_prhl(choice_chain(20)).accepted
    cert.write_text(serialize_proof(choice_chain(20)))
    cyc.unlink()
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["transform", str(cert), "-o", str(cyc)]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.err == f"undecided: cyclic-size-cap: the cyclic pre-proof passes {CYCLIC_CAP} nodes\n"
    assert captured.out == "" and not cyc.exists()


def test_long_program_certifies_without_deep_recursion(tmp_path, capsys):
    # 300 statements under a recursion limit 100 frames above this test's
    # own depth: a pass that recursed once per statement would stop
    t = write(tmp_path, "swap.triple", "pre: true\nprog: " + "; ".join(["t := x; x := y; y := t"] * 100)
              + "\npost: x + y >= 0\n")
    cert, cyc = str(tmp_path / "swap.json"), str(tmp_path / "swap.cyclic.json")
    steps = [["prove", t, "-o", cert], ["check-proof", cert], ["transform", cert, "-o", cyc], ["check-proof", cyc]]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        codes = [main([*step, "--domain-max", "2"]) for step in steps]
    finally:
        sys.setrecursionlimit(limit)
    assert codes == [0, 0, 0, 0], capsys.readouterr().err
    assert len(parse_proof(Path(cert).read_text()).nodes) == 300 + 299 + 1


def _choices(tmp_path, k):
    prog = "; ".join(["(x := x + 1 + skip)"] * k)
    return write(tmp_path, "choices.triple", f"pre: true\nprog: {prog}\npost: true\n")


def test_prove_choices_in_a_row_is_linear(tmp_path, capsys, monkeypatch):
    # each choice's pre joins its arms' pres, so k choices in a row make a
    # term of 2^k paths but only k distinct nodes: its leaves are compiled
    # once per question, not once per path
    compiled = []
    real = assertions._compile_assertion
    monkeypatch.setattr(assertions, "_compile_assertion", lambda *args: compiled.append(args[0]) or real(*args))
    k = 40
    assert main(["prove", _choices(tmp_path, k), "--domain-max", "2", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "proved"
    assert len(compiled) <= 3 * k  # 2k + 1: one atom per question


def test_prove_writes_20_choices_in_a_row_small(tmp_path, capsys):
    # the pres of k choices in a row share their terms, a DAG of 2^k
    # paths; the certificate writes each distinct term once
    cert = tmp_path / "choices.json"
    assert main(["prove", _choices(tmp_path, 20), "--domain-max", "2", "-o", str(cert)]) == 0
    assert cert.stat().st_size < 1 << 20
    capsys.readouterr()
    assert main(["check-proof", str(cert), "--domain-max", "2"]) == 0
    assert capsys.readouterr().out == "ACCEPT (bounded: none)\n"


def test_prove_choices_machine_golden(tmp_path, capsys):
    assert main(["prove", _choices(tmp_path, 12), "--domain-max", "2", "--format", "machine"]) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "golden" / "prove_12_choices_machine.json").read_text()


# --- wp / beta-encode -------------------------------------------------------------------


def test_wp_exact(tmp_path, capsys):
    t = write(tmp_path, "w.triple", "pre: true\nprog: x := x + 1; x := x * 2\npost: x = 6\n")
    assert main(["wp", t]) == 0
    assert capsys.readouterr().out == "(x + 1) * 2 = 6\n"


def test_wp_long_program(tmp_path, capsys):
    # 1000 swaps through t, 3000 statements: an even number leaves x and
    # y where they were, and t ends holding the y it started with
    swaps = "; ".join("t := x; x := y; y := t" for _ in range(1000))
    t = write(tmp_path, "swaps.triple", f"pre: true\nprog: {swaps}\npost: x = 1 && y = 2 && t = 3\n")
    assert main(["wp", t]) == 0
    assert capsys.readouterr().out == "x = 1 && y = 2 && y = 3\n"


def test_wp_unroll_notes(tmp_path, capsys):
    t = write(
        tmp_path, "wu.triple", "pre: true\nprog: while x = 0 do { x := x + 1 }\npost: x = 1\n"
    )
    assert main(["wp", t, "--loop-mode", "unroll", "--unroll-depth", "2"]) == 2
    assert "note: loop unrolled 2 times; under-approximate" in capsys.readouterr().out
    assert main(["wp", t, "--loop-mode", "invariant"]) == 3
    assert "loop has no invariant annotation" in capsys.readouterr().err


WP_GOLDEN = json.loads((Path(__file__).parent / "golden" / "wp_unroll_machine.json").read_text())
# a loop like the deep benchmark's: the choice in its body doubles the
# printed formula at every unroll level
CHOICE_LOOP = "pre: true\nprog: while i < 8 do { (x := x + 2 + skip); i := i + 1 }\npost: 3 < x\n"


@pytest.mark.parametrize("case", sorted(WP_GOLDEN))
def test_wp_unroll_machine_golden(case, tmp_path, capsys):
    if case.startswith("choice-loop depth "):
        path, depth = write(tmp_path, "choice.triple", CHOICE_LOOP), case.split()[-1]
    else:
        path, depth = f"corpus/{case}", "8"
    code = main(["wp", path, "--loop-mode", "unroll", "--unroll-depth", depth, "--format", "machine"])
    out = capsys.readouterr().out.encode()
    want = WP_GOLDEN[case]
    if "stdout" in want:
        assert (code, out.decode()) == (want["exit"], want["stdout"])
    else:
        assert (code, len(out), hashlib.sha256(out).hexdigest()) == (want["exit"], want["bytes"], want["sha256"])


def test_wp_unroll_text_past_the_print_cap(tmp_path, capsys):
    # the text doubles per level: depth 15 prints 9.0 MB, depth 16 would pass 16 MiB
    path = write(tmp_path, "choice.triple", CHOICE_LOOP)
    assert main(["wp", path, "--loop-mode", "unroll", "--unroll-depth", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"undecided: print-size-cap: the text of a term passes {PRINT_CAP} bytes\n"
    assert captured.out == ""
    assert main(["wp", path, "--loop-mode", "unroll", "--unroll-depth", "15"]) == 2
    assert len(capsys.readouterr().out) == 8978463


def test_beta_encode(capsys):
    assert main(["beta-encode", "1,0"]) == 0
    assert capsys.readouterr().out == "n=3 m=1\n"
    assert main(["beta-encode", ""]) == 0
    assert capsys.readouterr().out == "n=0 m=0\n"
    assert main(["beta-encode", "1,-2"]) == 3
    assert "naturals" in capsys.readouterr().err
    # an empty item would shift every later index, so it is refused
    for bad in ("1,,2", ",1", "1,", "1, ,2"):
        assert main(["beta-encode", bad]) == 3
        captured = capsys.readouterr()
        assert "empty" in captured.err and captured.out == ""


# --- argument handling -------------------------------------------------------------------


def test_usage_errors_exit_3(capsys):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    assert main(["check-triple"]) == 3
    assert main(["check-triple", "corpus/ex3.triple", "--logic", "bogus"]) == 3
    capsys.readouterr()


def test_negative_bounds_rejected(capsys):
    assert main(["check-triple", "corpus/ex3.triple", "--domain-max", "-1"]) == 3
    assert "negative" in capsys.readouterr().err


def test_negative_unroll_depth_rejected(capsys):
    assert main(["wp", "corpus/ex3.triple", "--loop-mode", "unroll", "--unroll-depth", "-3"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: unroll_depth must be non-negative\n"
    assert captured.out == ""


def test_missing_file_is_reported(capsys):
    assert main(["check-triple", "corpus/zzz.triple"]) == 3
    assert "error:" in capsys.readouterr().err


# --- one parser per process ---------------------------------------------------------


def test_main_builds_the_parser_once(prog_file, capsys):
    cli._build_parser.cache_clear()
    for argv in (["run", prog_file], ["run", prog_file, "--state", "x=1"], ["nope"], ["beta-encode", "1,2"]):
        main(argv)
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_reused_parser_answers_as_a_fresh_process(prog_file, capsys):
    # a failed parse midway through --state, between two good ones, leaves
    # nothing behind: each call prints what it prints in a process of its own
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv in (
        ["run", prog_file, "--state", "x=1"],
        ["run", prog_file, "--state", "x=5", "--format", "bogus"],
        ["run", prog_file],
    ):
        code = main(argv)
        got = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "prhl.cli", *argv], capture_output=True, text=True, env=env)
        assert (code, got.out, got.err) == (alone.returncode, alone.stdout, alone.stderr)
    assert code == 0 and got.out == "{x: 0}\n{x: 1}\n"
