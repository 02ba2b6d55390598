"""Certificate data model, JSON round-trips, and structural validation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PrhlNode, render, to_tree
from prhl import certificates
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
from prhl.prover import ProveRequest, prove_prhl, transform_to_cyclic
from prhl.syntax import Empty, ParseError
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
    assert back == root.to_proof()
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
    assert back == proof
    assert serialize_proof(back) == text


def test_corpus_certificates_parse():
    with open("corpus/ex3_prhl.json") as fh:
        p = parse_proof(fh.read())
    assert isinstance(p, PrhlProof) and len(p.nodes) == 6
    with open("corpus/ex4_literal.cprhl.json") as fh:
        c = parse_proof(fh.read())
    assert isinstance(c, CyclicPreProof) and len(c.nodes) == 9


def _ex3_text(cyclic: bool) -> str:
    """corpus/ex3_prhl.json, or the text of its cyclic transform."""
    with open("corpus/ex3_prhl.json") as fh:
        text = fh.read()
    if not cyclic:
        return text
    proof = parse_proof(text)
    return serialize_proof(transform_to_cyclic(proof, Empty(), proof.nodes[proof.root].triple.post))


def _spy(monkeypatch, names):
    calls = []
    for name in names:
        real = getattr(certificates, name)
        monkeypatch.setattr(certificates, name, lambda x, real=real, name=name: calls.append((name, x)) or real(x))
    return calls


@pytest.mark.parametrize("cyclic", [False, True], ids=["prhl", "cprhl"])
def test_each_distinct_text_is_parsed_once_and_each_node_printed_once(monkeypatch, cyclic):
    text = _ex3_text(cyclic)
    fields = [
        (("parse_program" if k == "prog" else "parse_assertion"), v)
        for n in json.loads(text)["nodes"].values()
        for k, v in sorted(n["triple"].items())
    ]
    parses = _spy(monkeypatch, ["parse_assertion", "parse_program"])
    proof = parse_proof(text)
    assert len(fields) > len(set(fields))  # texts repeat, so sharing shows
    assert sorted(parses) == sorted(set(fields))
    # the nodes a reparse of every field would give
    for nid, raw in json.loads(text)["nodes"].items():
        t = raw["triple"]
        assert proof.nodes[nid].triple == Triple(pa(t["pre"]), pp(t["prog"]), pa(t["post"]))

    prints = _spy(monkeypatch, ["print_assertion", "print_program"])
    out = serialize_proof(proof)
    terms = [(("print_program" if k == "prog" else "print_assertion"), getattr(n.triple, k))
             for n in proof.nodes.values() for k in ("pre", "prog", "post")]
    assert len(prints) == len(set(prints)) == len(set(terms))
    assert set(prints) == set(terms)
    monkeypatch.undo()
    # parse -> serialize round-trips byte for byte
    assert serialize_proof(parse_proof(out)) == out
    if cyclic:  # a text serialize_proof wrote
        assert out == text


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
    dup = text.replace('"c4": {', '"c5": {', 1)
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


@given(st.sampled_from(CORPUS), st.randoms(use_true_random=False), _FIELD_VALUES)
@settings(max_examples=300, deadline=None)
def test_mutated_corpus_certificates_fail_only_as_certificates(path, rng, value):
    # a field replaced, or a few characters dropped, doubled or swapped:
    # the only way out is a CertificateError
    with open(path) as fh:
        text = fh.read()
    if rng.random() < 0.5:
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
        parse_proof(text)
    except CertificateError:
        pass


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
