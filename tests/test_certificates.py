"""Certificate data model, JSON round-trips, and structural validation."""

import functools
import json
import random
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BudgetedOracle, PrhlNode, gen_assertion, gen_prog, render, serialize_proof_text, subterms, to_tree
from prhl import certificates, syntax
from prhl.certificates import (
    CPRHL_ARITY,
    PRHL_ARITY,
    CertificateError,
    CyclicPreProof,
    PrhlProof,
    ProofNode,
    Triple,
    parse_proof,
    proof_graph,
    serialize_proof,
)
from prhl.assertions import BoundedOracle
from prhl.checker import check_cprhl, check_prhl
from prhl.cli import main
from prhl.prover import ProveRequest, prove_prhl, transform_to_cyclic
from prhl.semantics import Bounds
from prhl.syntax import SORTS, Empty, ParseError, print_program
from prhl.wp import WprRequest, wpr_formula
from prhl.syntax import parse_assertion as pa, parse_program as pp


CORPUS = ["corpus/ex3_prhl.json", "corpus/ex4_literal.cprhl.json"]


def triple(pre="true", prog="skip", post="true"):
    return Triple(pa(pre), pp(prog), pa(post))


def test_arities():
    assert PRHL_ARITY == {"Axiom": 0, "Assign": 0, "Seq": 2, "Cons": 1, "Or": 2, "While": 1}
    assert CPRHL_ARITY["OpenLeaf"] == 0
    assert CPRHL_ARITY["While"] == 2
    assert CPRHL_ARITY["AssignSubst"] == 1


def test_triple_render():
    t = triple("x = 2", "x := x + 1", "x = 6")
    assert render(t) == "[| x = 2 |] x := x + 1 [| x = 6 |]"


def test_tree_flattening_preorder():
    # the prover names its nodes in preorder, as PrhlNode.to_proof does
    leaf1 = PrhlNode("Assign", triple("x + 1 = 2", "x := x + 1", "x = 2"))
    leaf2 = PrhlNode("Assign", triple("x = 2", "x := x", "x = 2"))
    root = PrhlNode("Seq", triple("x + 1 = 2", "x := x + 1; x := x", "x = 2"), (leaf1, leaf2))
    proof = prove_prhl(ProveRequest(root.triple)).proof
    assert proof.root == "n1"
    assert list(proof.nodes) == ["n1", "n2", "n3"]
    assert proof.nodes["n1"].children == ("n2", "n3")
    assert proof == root.to_proof()
    assert to_tree(proof) == root


def test_serialize_is_deterministic_and_round_trips():
    leaf = PrhlNode("Assign", triple("x + 1 = 2", "x := x + 1", "x = 2"))
    root = PrhlNode("Cons", triple("x = 1", "x := x + 1", "x = 2"), (leaf,))
    text = serialize_proof(root.to_proof())
    back = parse_proof(text)
    assert isinstance(back, PrhlProof)
    assert back == root.to_proof() == parse_proof(serialize_proof_text(back))
    assert serialize_proof(back) == text


def cyclic_doc():
    """Minimal well-formed cyclic certificate: guarded loop over a body."""
    t_while = triple("true", "while x = 0 do { x := 1 }", "x = 1")
    t_exit = triple("!(x = 0) -> true", "skip", "x = 1")
    t_loop = triple("x = 0 -> true", "x := 1; while x = 0 do { x := 1 }", "x = 1")
    nodes = {
        "c1": ProofNode("While", t_while, ("c2", "c3")),
        "c2": ProofNode("Cons", t_exit, ("c4",)),
        "c3": ProofNode("AssignSubst", t_loop, ("c5",)),
        "c4": ProofNode("Axiom", triple("x = 1", "skip", "x = 1"), ()),
        "c5": ProofNode("OpenLeaf", t_while, ()),
    }
    return CyclicPreProof("c1", nodes, {"c5": "c1"})


def test_cyclic_round_trip():
    proof = cyclic_doc()
    text = serialize_proof(proof)
    back = parse_proof(text)
    assert isinstance(back, CyclicPreProof)
    assert back == proof == parse_proof(serialize_proof_text(proof))
    assert serialize_proof(back) == text


def test_corpus_certificates_parse():
    with open("corpus/ex3_prhl.json") as fh:
        p = parse_proof(fh.read())
    assert isinstance(p, PrhlProof) and len(p.nodes) == 6
    with open("corpus/ex4_literal.cprhl.json") as fh:
        c = parse_proof(fh.read())
    assert isinstance(c, CyclicPreProof) and len(c.nodes) == 9


def _ex3(cyclic: bool):
    """corpus/ex3_prhl.json as read, or its cyclic transform."""
    with open("corpus/ex3_prhl.json") as fh:
        proof = parse_proof(fh.read())
    return transform_to_cyclic(proof, Empty(), proof.nodes[proof.root].triple.post) if cyclic else proof


def _spy(monkeypatch, names):
    calls = []
    for name in names:
        real = getattr(certificates, name)
        monkeypatch.setattr(certificates, name, lambda x, real=real, name=name: calls.append((name, x)) or real(x))
    return calls


@pytest.mark.parametrize("cyclic", [False, True], ids=["prhl", "cprhl"])
def test_each_distinct_term_is_written_once_and_built_once(monkeypatch, cyclic):
    proof = _ex3(cyclic)
    text = serialize_proof(proof)
    doc = json.loads(text)
    roots = [getattr(n.triple, k) for n in proof.nodes.values() for k in ("pre", "prog", "post")]
    distinct = {t for r in roots for t in subterms(r)}
    assert len(roots) > len(set(roots))  # triples repeat terms, so sharing shows
    assert len(doc["terms"]) == len(distinct)
    assert len({json.dumps(e) for e in doc["terms"]}) == len(distinct)
    # every node field names an earlier entry: the table is in postorder
    for i, entry in enumerate(doc["terms"]):
        sorts = SORTS[getattr(syntax, entry[0])]
        assert all(v < i for v, sort in zip(entry[1:], sorts) if not isinstance(sort, str) and v is not None)

    calls = []
    for name in ("_field", "normal_assertion", "seq_of", "parse_assertion", "parse_program"):
        real = getattr(certificates, name)
        monkeypatch.setattr(certificates, name, lambda *a, real=real, name=name: calls.append((name, a[-2:])) or real(*a))
    back = parse_proof(text)
    # each entry's fields are checked once, each distinct root is read
    # once as the parser would, and no text is parsed
    assert sum(name == "_field" for name, _ in calls) == sum(len(e) - 1 for e in doc["terms"])
    reads = [a for name, a in calls if name != "_field"]
    assert len(reads) == len(set(reads)) == len(set(roots))
    assert {name for name, _ in calls} <= {"_field", "normal_assertion", "seq_of"}
    monkeypatch.undo()
    assert back.nodes == proof.nodes and type(back) is type(proof)
    # the nodes a parse of every field's printed text gives
    assert parse_proof(serialize_proof_text(proof)).nodes == back.nodes
    assert serialize_proof(back) == text


@pytest.mark.parametrize("cyclic", [False, True], ids=["prhl", "cprhl"])
def test_each_distinct_text_is_parsed_once(monkeypatch, cyclic):
    # the corpus file is hand-written in the text layout
    text = serialize_proof_text(_ex3(cyclic)) if cyclic else Path("corpus/ex3_prhl.json").read_text()
    fields = [
        (("parse_program" if k == "prog" else "parse_assertion"), v)
        for n in json.loads(text)["nodes"].values()
        for k, v in sorted(n["triple"].items())
    ]
    parses = _spy(monkeypatch, ["parse_assertion", "parse_program"])
    proof = parse_proof(text)
    assert len(fields) > len(set(fields))  # texts repeat, so sharing shows
    assert sorted(parses) == sorted(set(fields))
    for nid, raw in json.loads(text)["nodes"].items():
        t = raw["triple"]
        assert proof.nodes[nid].triple == Triple(pa(t["pre"]), pp(t["prog"]), pa(t["post"]))


def test_a_repeated_unparseable_text_is_reported_at_its_first_node():
    with pytest.raises(ParseError) as pe:
        pp("x :=")

    def both(d):
        d["nodes"]["c2"]["triple"]["prog"] = "x :="
        d["nodes"]["c4"]["triple"]["prog"] = "x :="

    with pytest.raises(CertificateError) as e:
        parse_proof(mutate(both))
    assert str(e.value) == f"unparseable triple at node 'c2': {pe.value}"


def test_proof_graph_edge_count():
    proof = cyclic_doc()
    succ = proof_graph(proof)
    edges = sum(len(v) for v in succ.values())
    kids = sum(len(n.children) for n in proof.nodes.values())
    assert edges == kids + len(proof.backlinks)
    assert succ["c5"] == ("c1",)


def mutate(edit):
    doc = json.loads(serialize_proof(cyclic_doc()))
    edit(doc)
    return json.dumps(doc)


def expect_reject(edit, needle):
    with pytest.raises(CertificateError) as e:
        parse_proof(mutate(edit))
    assert needle in str(e.value)


def test_parse_rejects_duplicate_ids():
    text = serialize_proof(cyclic_doc())
    dup = text.replace('"c4":{', '"c5":{', 1)
    assert dup != text
    with pytest.raises(CertificateError) as e:
        parse_proof(dup)
    assert "duplicate id" in str(e.value)


def test_parse_rejects_bad_shapes():
    expect_reject(lambda d: d.update(system="xyz"), "unknown system")
    expect_reject(lambda d: d.update(root="zz"), "not a node id")
    expect_reject(lambda d: d["nodes"]["c1"].update(rule="Frob"), "unknown rule")
    expect_reject(lambda d: d["nodes"]["c4"].update(rule="While"), "takes 2 premises")
    expect_reject(lambda d: d["nodes"]["c2"]["children"].__setitem__(0, "zz"), "dangling child")
    expect_reject(lambda d: d["nodes"]["c3"]["children"].__setitem__(0, "c4"), "two parents")
    expect_reject(lambda d: d["nodes"]["c1"]["triple"].pop("pre"), "malformed triple")
    expect_reject(lambda d: d["nodes"]["c1"]["triple"].update(prog="x :="), "unparseable triple")
    expect_reject(lambda d: d["nodes"]["c1"]["triple"].update(prog="x := " + "1" * 5000), "unparseable triple at node 'c1'")
    expect_reject(lambda d: d["nodes"]["c2"]["triple"].update(pre="(" * 2000 + "x = 1" + ")" * 2000), "nesting too deep")


def _json_paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _json_paths(v, path + (k,))


_FIELD_VALUES = st.sampled_from(
    [None, 0, -1, 1.5, True, "", "n1", "c1", "x :=", "x := " + "9" * 5000, "(" * 2000 + "x = 1", [], ["n2"], {}]
)


_FIELD_VALUES = st.sampled_from(
    [None, 0, -1, 1.5, True, "", "n1", "c1", "x :=", "x := " + "9" * 5000, "(" * 2000 + "x = 1", [], ["n2"], {},
     3, 10**6, "while", "x y", "Frob", "+", ["Var", "x"], ["Not", 0]]
)
B = Bounds(domain_max=2, step_bound=50, quant_bound=4)


def _check_and_transform(proof) -> None:
    """Both checkers and transform take whatever ``parse_proof`` returns."""
    if isinstance(proof, CyclicPreProof):
        check_cprhl(proof, BoundedOracle(B))
    else:
        check_prhl(proof, BoundedOracle(B))
        check_cprhl(transform_to_cyclic(proof, Empty(), proof.nodes[proof.root].triple.post), BoundedOracle(B))


@given(st.sampled_from(CORPUS), st.booleans(), st.randoms(use_true_random=False), _FIELD_VALUES)
@settings(max_examples=300, deadline=None)
def test_mutated_corpus_certificates_fail_only_as_certificates(path, terms, rng, value):
    # a field replaced, or a few characters dropped, doubled or swapped,
    # in the text layout or the term layout: the only way out of reading
    # is a CertificateError, and what reads is checked and transformed
    with open(path) as fh:
        text = fh.read()
    if terms:
        text = serialize_proof(parse_proof(text))
    if terms and rng.random() < 0.4:
        text = json.dumps(_repoint(json.loads(text), rng))
    elif rng.random() < 0.5:
        doc = json.loads(text)
        *up, last = rng.choice(list(_json_paths(doc))[1:])
        holder = doc
        for k in up:
            holder = holder[k]
        holder[last] = value
        text = json.dumps(doc)
    else:
        chars = list(text)
        for _ in range(rng.randrange(1, 4)):
            i, j = rng.randrange(len(chars)), rng.randrange(len(chars))
            edit = rng.randrange(3)
            if edit == 0:
                del chars[i]
            elif edit == 1:
                chars.insert(i, chars[i])
            else:
                chars[i], chars[j] = chars[j], chars[i]
        text = "".join(chars)
    try:
        proof = parse_proof(text)
    except CertificateError:
        return
    _check_and_transform(proof)


def _repoint(doc: dict, rng) -> dict:
    """``doc`` with a few term fields or triple fields pointed at other
    terms of their sort, so that it still reads but may not check."""
    terms = doc["terms"]
    kind = [getattr(syntax, e[0]) for e in terms]
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(terms) + 1)
        if i == len(terms):  # a triple field
            triple = rng.choice(list(doc["nodes"].values()))["triple"]
            key = rng.choice(["pre", "prog", "post"])
            slots = [(triple, key, syntax.Prog if key == "prog" else syntax.Assertion, len(terms))]
        else:
            slots = [(terms[i], j, sort, i) for j, sort in enumerate(SORTS[kind[i]], 1) if not isinstance(sort, str)]
        if slots:
            holder, key, sort, below = rng.choice(slots)
            holder[key] = rng.choice([k for k in range(below) if issubclass(kind[k], sort)] or [holder[key]])
    return doc


def _deep(d, base: list, wrap, field: str = "pre", n: int = 5000) -> None:
    """Point ``field`` of node n1 at ``n`` entries, each ``wrap`` of the one
    before it, over ``base``."""
    terms = d["terms"]
    terms.append(base)
    for _ in range(n):
        terms.append(wrap(len(terms) - 1))
    d["nodes"]["n1"]["triple"][field] = len(terms) - 1


def _set(i: int, entry):
    return lambda d: d["terms"].__setitem__(i, entry)


# mutations of the term layout of corpus/ex4_literal.cprhl.json and a
# part of the reason each must name; its table starts 0 x, 1 0, 2 x = 0,
# 3 i, 4 i = 0, 5 x = 0 && i = 0, 6 Bool 5, ... 9 !(5 <= i), 10 x + i,
# 11 x := x + i, ... 14 i := i + 1, ... 16 the loop
EARLIER = "is not an earlier term of its sort"
TERM_MUTATIONS = {
    "index out of range": (_set(2, ["Eq", 0, 999]), EARLIER),
    "negative index": (_set(2, ["Eq", 0, -1]), EARLIER),
    "forward index": (_set(2, ["Eq", 0, 3]), EARLIER),
    "self index": (_set(2, ["Eq", 0, 2]), EARLIER),
    "expression where a guard goes": (_set(5, ["BAnd", 2, 3]), EARLIER),
    "assertion where a guard goes": (_set(9, ["BNot", 6]), EARLIER),
    "guard where an annotation goes": (_set(16, ["While", 9, 15, 9]), EARLIER),
    "text where a term goes": (_set(2, ["Eq", "x", 1]), EARLIER),
    "bool where a term goes": (_set(2, ["Eq", True, 1]), EARLIER),
    "triple names a term of the wrong sort": (lambda d: d["nodes"]["n1"]["triple"].update(prog=6), "neither text nor"),
    "triple names a term out of range": (lambda d: d["nodes"]["n1"]["triple"].update(pre=len(d["terms"])), "neither text nor"),
    "too many fields": (_set(2, ["Eq", 0, 1, 1]), "Eq takes 2 fields, term 2 has 3"),
    "too few fields": (_set(10, ["BinOp", 0, 3]), "BinOp takes 3 fields, term 10 has 2"),
    "unknown constructor": (_set(2, ["Neq", 0, 1]), "unknown constructor 'Neq'"),
    "constructor that is no name": (_set(2, [7, 0, 1]), "unknown constructor 7"),
    "bool Const": (_set(1, ["Const", True]), "True is not a natural number"),
    "negative Const": (_set(1, ["Const", -1]), "-1 is not a natural number"),
    "float Const": (_set(1, ["Const", 0.0]), "0.0 is not a natural number"),
    "keyword name": (_set(0, ["Var", "while"]), "'while' is not a name"),
    "keyword assigned": (_set(11, ["Assign", "true", 10]), "'true' is not a name"),
    "name with a space": (_set(0, ["Var", "x y"]), "is not a name"),
    "name of no letters": (_set(0, ["Var", "1x"]), "is not a name"),
    "name the lexer does not read": (_set(0, ["Var", "é"]), "is not a name"),
    "bad operator": (_set(10, ["BinOp", "^", 0, 3]), "'^' is not an operator"),
    "entry that is a dict": (_set(2, {"Eq": [0, 1]}), "malformed term 2: not a non-empty list"),
    "entry that is text": (_set(2, "x = 0"), "malformed term 2: not a non-empty list"),
    "empty entry": (_set(2, []), "malformed term 2: not a non-empty list"),
    "table that is no list": (lambda d: d.update(terms={"0": ["Var", "x"]}), "malformed terms: not a list"),
    "5,000 nested !": (lambda d: _deep(d, ["Bool", 5], lambda k: ["Not", k]), "nests deeper than 1000 levels"),
    "5,000 nested exists": (lambda d: _deep(d, ["Bool", 5], lambda k: ["Exists", "y", k]), "nests deeper"),
    "5,000 nested negated guards": (lambda d: _deep(d, ["BNot", 9], lambda k: ["BNot", k]), "nests deeper"),
    "5,000 nested sums": (lambda d: _deep(d, ["Var", "x"], lambda k: ["BinOp", "+", k, 1]), "nests deeper"),
    "5,000 nested loops": (lambda d: _deep(d, ["Empty"], lambda k: ["While", 9, k, None], "prog"), "nests deeper"),
}


def _ex4_terms() -> dict:
    with open("corpus/ex4_literal.cprhl.json") as fh:
        return json.loads(serialize_proof(parse_proof(fh.read())))


@pytest.mark.parametrize("name", sorted(TERM_MUTATIONS))
def test_term_table_mutations_are_certificate_errors(name, tmp_path, capsys):
    doc = _ex4_terms()
    edit, reason = TERM_MUTATIONS[name]
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(CertificateError) as e:
        parse_proof(text)
    assert reason in str(e.value)
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["check-proof", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_long_numeral_in_the_term_table():
    # 5,000 digits pass the interpreter's limit on converting a numeral,
    # where it has one, as the text parser's "numeral too long" does
    text = json.dumps(_ex4_terms()).replace("[\"Const\", 0]", "[\"Const\", " + "9" * 5000 + "]", 1)
    assert text.count("9" * 5000) == 1
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(CertificateError, match="malformed JSON"):
            parse_proof(text)
    else:
        _check_and_transform(parse_proof(text))


def _shared(head: list, n: int = 60, binder: bool = False) -> dict:
    """An Axiom over a term of ``n`` shared ``head`` nodes, whose tree has
    2^n paths, over ``x = 0`` (under ``exists y.`` with ``binder``)."""
    terms = [["Empty"], ["Var", "x"], ["Const", 0], ["Eq", 1, 2]]
    if head[0] != "BAnd":
        terms.append(["Bool", 3])
    if binder:
        terms.append(["Exists", "y", 4])
    for _ in range(n):
        terms.append([*head, len(terms) - 1, len(terms) - 1])
    if head[0] == "BAnd":
        terms.append(["Bool", len(terms) - 1])
    top = len(terms) - 1
    node = {"rule": "Axiom", "triple": {"pre": top, "prog": 0, "post": top}, "children": []}
    return {"system": "prhl", "root": "n1", "terms": terms, "nodes": {"n1": node}}


@pytest.mark.parametrize("head", [["And"], ["Or"], ["BAnd"]], ids=lambda h: h[0])
def test_a_term_of_2_to_the_60_paths_reads_at_once(head):
    start = time.perf_counter()
    proof = parse_proof(json.dumps(_shared(head)))
    assert check_prhl(proof, BoundedOracle(B)).accepted
    assert time.perf_counter() - start < 1


def test_a_term_binding_2_to_the_60_variables_is_refused():
    # renaming the binders apart would give each path its own name
    start = time.perf_counter()
    with pytest.raises(CertificateError, match=f"binds more than {certificates.BINDER_CAP} variables as a tree"):
        parse_proof(json.dumps(_shared(["And"], binder=True)))
    assert time.perf_counter() - start < 1


def _same_either_way(proof, oracle=lambda: BoundedOracle(B)) -> None:
    """Reading ``proof`` in the term layout gives the nodes and the check
    report that reading it in the text layout gives."""
    terms, text = parse_proof(serialize_proof(proof)), parse_proof(serialize_proof_text(proof))
    assert terms == text
    check = check_cprhl if isinstance(proof, CyclicPreProof) else check_prhl
    assert check(terms, oracle()) == check(text, oracle())


@pytest.mark.parametrize("path", CORPUS)
def test_corpus_reads_the_same_in_either_layout(path):
    with open(path) as fh:
        proof = parse_proof(fh.read())
    _same_either_way(proof)
    if isinstance(proof, PrhlProof):
        _same_either_way(transform_to_cyclic(proof, Empty(), proof.nodes[proof.root].triple.post))


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["criterion 5", "sweep", "quantified"]))
@settings(max_examples=150, deadline=None)
def test_random_proofs_read_the_same_in_either_layout(seed, shape):
    # criterion 5's loop-free programs under their weakest pre-formulas,
    # the soundness sweep's programs with loops, and quantified triples
    # whose binders the reader renames apart; beta-encoded loop formulas
    # go unasked, as in the sweep
    oracle = functools.partial(BudgetedOracle, B, 4)
    rng = random.Random(seed)
    names = ["x", "y"]
    prog = gen_prog(rng, names, 3, const_max=3, loops=shape != "criterion 5")
    post = gen_assertion(rng, names, 2, const_max=3, quant=0.3 if shape == "quantified" else 0.0)
    if shape == "criterion 5" or "while " not in print_program(prog) and rng.random() < 0.5:
        pre = wpr_formula(WprRequest(prog, post)).formula
    else:
        pre = gen_assertion(rng, names, 2, const_max=3, quant=0.3 if shape == "quantified" else 0.0)
    res = prove_prhl(ProveRequest(Triple(pre, prog, post), "beta", B), oracle())
    if res.proof is not None:
        _same_either_way(res.proof, oracle)
        _same_either_way(transform_to_cyclic(res.proof, Empty(), post), oracle)


def test_text_fields_read_beside_term_fields():
    # a term-layout certificate, hand-edited: one field given as text
    doc = _ex4_terms()
    want = parse_proof(json.dumps(doc))
    doc["nodes"]["n1"]["triple"]["pre"] = "x = 0 && i = 0"
    assert parse_proof(json.dumps(doc)) == want


def test_parse_rejects_unreachable_nodes():
    def cut(d):
        d["nodes"]["c3"]["children"] = []
        d["nodes"]["c3"]["rule"] = "OpenLeaf"
        del d["backlinks"]["c5"]

    expect_reject(cut, "unreachable")


def test_parse_rejects_bad_backlinks():
    expect_reject(lambda d: d["backlinks"].update(c5="zz"), "dangling backlink")
    expect_reject(lambda d: d["backlinks"].update(zz="c1"), "unknown node")
    expect_reject(lambda d: d["backlinks"].update(c4="c1"), "not an open leaf")
    expect_reject(lambda d: d["backlinks"].update(c5="c4"), "inner node")
    # companion with a different triple
    def relabel(d):
        d["backlinks"]["c5"] = "c3"

    expect_reject(relabel, "structurally different")


def test_prhl_certificates_cannot_carry_backlinks():
    leaf = PrhlNode("Axiom", triple())
    doc = json.loads(serialize_proof(leaf.to_proof()))
    doc["backlinks"] = {"n1": "n1"}
    with pytest.raises(CertificateError) as e:
        parse_proof(json.dumps(doc))
    assert "no backlinks" in str(e.value)


def test_root_cannot_be_a_child():
    t = triple()
    doc = {
        "system": "prhl",
        "root": "n1",
        "nodes": {
            "n1": {"rule": "Cons", "triple": {"pre": "true", "prog": "skip", "post": "true"}, "children": ["n1"]},
        },
    }
    with pytest.raises(CertificateError) as e:
        parse_proof(json.dumps(doc))
    assert "root cannot be a child" in str(e.value)
