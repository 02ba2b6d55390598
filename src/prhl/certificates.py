"""Proof certificate representation and JSON (de)serialization.

Two certificate systems share one file format, selected by "system":

* ``prhl``: finite derivation trees over the rules Axiom, Assign, Seq,
  Cons, Or, While.
* ``cprhl``: cyclic pre-proofs over Axiom, Cons, AssignSubst,
  AssignFresh, Or, While, OpenLeaf.  The nodes and child edges must form
  a tree; a partial ``backlinks`` map sends open leaves to structurally
  identical inner nodes (their companions), closing the cycles.

The JSON layout::

    {
      "system": "prhl" | "cprhl",
      "root": "n1",
      "nodes": {
        "n1": {
          "rule": "While",
          "triple": {"pre": "...", "prog": "...", "post": "..."},
          "children": ["n2"],
          "fresh": "x_p1"          # AssignSubst/AssignFresh only, optional
        },
        ...
      },
      "backlinks": {"n9": "n1"}    # cprhl only
    }

Triples are stored as concrete syntax and parsed back through the
canonicalizing parser, so serialization round-trips up to normal form.
Cons premises do not restate the entailments being used; the checker
recomputes the side conditions from the two triples.

In memory both systems are this id-keyed node table (``PrhlProof``,
``CyclicPreProof``), which no code walks by recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .syntax import (
    Assertion,
    ParseError,
    Prog,
    erase_invariants,
    parse_assertion,
    parse_program,
    print_assertion,
    print_program,
)

PRHL_ARITY = {"Axiom": 0, "Assign": 0, "Seq": 2, "Cons": 1, "Or": 2, "While": 1}
CPRHL_ARITY = {
    "Axiom": 0,
    "OpenLeaf": 0,
    "Cons": 1,
    "AssignSubst": 1,
    "AssignFresh": 1,
    "Or": 2,
    "While": 2,
}


class CertificateError(Exception):
    """Malformed certificate: bad JSON shape, unknown rule, arity or id
    problems, or an ill-placed backlink."""


@dataclass(frozen=True)
class Triple:
    pre: Assertion
    prog: Prog
    post: Assertion


@dataclass(frozen=True)
class ProofNode:
    """One node of an id-keyed proof graph."""

    rule: str
    triple: Triple
    children: tuple[str, ...]
    fresh: str | None = None


@dataclass
class PrhlProof:
    root: str
    nodes: dict[str, ProofNode]


@dataclass
class CyclicPreProof:
    root: str
    nodes: dict[str, ProofNode]
    backlinks: dict[str, str]


# --- serialization ----------------------------------------------------------


def _once(memo: dict, f, x):
    """``f(x)``, computed once per distinct ``(f, x)`` kept in ``memo``."""
    if (f, x) not in memo:
        memo[f, x] = f(x)
    return memo[f, x]


def _triple_json(t: Triple, printed: dict) -> dict:
    return {
        "pre": _once(printed, print_assertion, t.pre),
        "prog": _once(printed, print_program, t.prog),
        "post": _once(printed, print_assertion, t.post),
    }


def serialize_proof(proof: PrhlProof | CyclicPreProof) -> str:
    """The certificate's JSON text; each distinct node is printed once."""
    printed: dict = {}
    doc: dict = {
        "system": "cprhl" if isinstance(proof, CyclicPreProof) else "prhl",
        "root": proof.root,
        "nodes": {
            nid: {
                "rule": n.rule,
                "triple": _triple_json(n.triple, printed),
                "children": list(n.children),
                **({"fresh": n.fresh} if n.fresh is not None else {}),
            }
            for nid, n in proof.nodes.items()
        },
    }
    if isinstance(proof, CyclicPreProof):
        doc["backlinks"] = dict(sorted(proof.backlinks.items()))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _reject_duplicate_keys(pairs):
    seen = {}
    for k, v in pairs:
        if k in seen:
            raise CertificateError(f"duplicate id {k!r}")
        seen[k] = v
    return seen


def _parse_triple(obj, nid: str, parsed: dict) -> Triple:
    if not isinstance(obj, dict) or set(obj) != {"pre", "prog", "post"}:
        raise CertificateError(f"malformed triple at node {nid!r}")
    if not all(isinstance(v, str) for v in obj.values()):
        raise CertificateError(f"malformed triple at node {nid!r}: a field is not a string")
    try:
        return Triple(
            _once(parsed, parse_assertion, obj["pre"]),
            _once(parsed, parse_program, obj["prog"]),
            _once(parsed, parse_assertion, obj["post"]),
        )
    except ParseError as e:
        raise CertificateError(f"unparseable triple at node {nid!r}: {e}") from e


def parse_proof(text: str) -> PrhlProof | CyclicPreProof:
    """Parse and validate a certificate.

    Validation covers JSON shape, known rules and arities, child-id
    resolution, tree-ness (each node one parent, all reachable from the
    root), and backlink sanity: sources must be open leaves, targets must
    exist, be inner nodes, and carry a structurally identical triple.

    Each distinct field text is parsed once: nodes are interned and a
    program is parsed with no names to avoid, so a parse depends on its
    text alone.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as e:
        raise CertificateError(f"malformed JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CertificateError("malformed certificate: not an object")
    system = doc.get("system")
    if system not in ("prhl", "cprhl"):
        raise CertificateError(f"unknown system {system!r}")
    arity = PRHL_ARITY if system == "prhl" else CPRHL_ARITY
    raw_nodes = doc.get("nodes")
    root = doc.get("root")
    if not isinstance(raw_nodes, dict) or not raw_nodes:
        raise CertificateError("malformed certificate: no nodes")
    if not isinstance(root, str) or root not in raw_nodes:
        raise CertificateError(f"root {root!r} is not a node id")

    nodes: dict[str, ProofNode] = {}
    parsed: dict = {}
    for nid, raw in raw_nodes.items():
        if not isinstance(raw, dict):
            raise CertificateError(f"malformed node {nid!r}")
        rule = raw.get("rule")
        if not isinstance(rule, str) or rule not in arity:
            raise CertificateError(f"unknown rule {rule!r} at node {nid!r}")
        children = raw.get("children", [])
        if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
            raise CertificateError(f"malformed children at node {nid!r}")
        if len(children) != arity[rule]:
            raise CertificateError(
                f"rule {rule} takes {arity[rule]} premises, node {nid!r} has {len(children)}"
            )
        fresh = raw.get("fresh")
        if fresh is not None and not isinstance(fresh, str):
            raise CertificateError(f"malformed fresh variable at node {nid!r}")
        nodes[nid] = ProofNode(rule, _parse_triple(raw.get("triple"), nid, parsed), tuple(children), fresh)

    # tree shape: children resolve, unique parents, all reachable
    parents: dict[str, str] = {}
    for nid, n in nodes.items():
        for c in n.children:
            if c not in nodes:
                raise CertificateError(f"dangling child {c!r} at node {nid!r}")
            if c in parents:
                raise CertificateError(f"node {c!r} has two parents")
            if c == root:
                raise CertificateError("root cannot be a child")
            parents[c] = nid
    reachable = {root}
    stack = [root]
    while stack:
        for c in nodes[stack.pop()].children:
            if c not in reachable:
                reachable.add(c)
                stack.append(c)
    unreachable = set(nodes) - reachable
    if unreachable:
        raise CertificateError(f"unreachable nodes: {sorted(unreachable)}")

    if system == "prhl":
        if "backlinks" in doc and doc["backlinks"]:
            raise CertificateError("prhl proofs have no backlinks")
        return PrhlProof(root, nodes)

    raw_links = doc.get("backlinks", {})
    if not isinstance(raw_links, dict):
        raise CertificateError("malformed backlinks")
    backlinks: dict[str, str] = {}
    for src, dst in raw_links.items():
        if src not in nodes:
            raise CertificateError(f"backlink from unknown node {src!r}")
        if not isinstance(dst, str) or dst not in nodes:
            raise CertificateError(f"dangling backlink target {dst!r}")
        if nodes[src].rule != "OpenLeaf":
            raise CertificateError(f"backlink source {src!r} is not an open leaf")
        if not nodes[dst].children:
            raise CertificateError("companion must be inner node")
        s, d = nodes[src].triple, nodes[dst].triple
        if (s.pre, erase_invariants(s.prog), s.post) != (d.pre, erase_invariants(d.prog), d.post):
            raise CertificateError(
                f"backlink {src!r} -> {dst!r} joins structurally different triples"
            )
        backlinks[src] = dst
    return CyclicPreProof(root, nodes, backlinks)


def proof_graph(proof: CyclicPreProof) -> dict[str, tuple[str, ...]]:
    """Successor map: child edges plus backlink edges."""
    succ = {nid: list(n.children) for nid, n in proof.nodes.items()}
    for src, dst in proof.backlinks.items():
        succ[src].append(dst)
    return {nid: tuple(out) for nid, out in succ.items()}
