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
      "terms": [["Var", "x"], ["Const", 1], ["Eq", 0, 1], ["Bool", 2], ...],
      "nodes": {
        "n1": {
          "rule": "While",
          "triple": {"pre": 3, "prog": 9, "post": 3},
          "children": ["n2"],
          "fresh": "x_p1"          # AssignSubst/AssignFresh only, optional
        },
        ...
      },
      "backlinks": {"n9": "n1"}    # cprhl only
    }

Terms are shared on disk as in memory (hash-consing, Filliâtre &
Conchon 2006; the Alethe proof format shares terms likewise, Schurr et
al. 2021): each distinct term is one entry of ``terms``, its
constructor's name and its fields in order, a term field being the
position of an earlier entry (``null`` for a loop with no annotation).
The writer numbers terms in postorder; the reader builds each entry
once, in table order, after checking the sort of every field.  A triple
field is the position of its term or, in older and hand-written
certificates, its concrete syntax, parsed once per distinct text.  Either
way it reads as the parser reads its printed text.  Cons premises do
not restate the entailments being used; the checker recomputes the side
conditions from the two triples.

In memory both systems are this id-keyed node table (``PrhlProof``,
``CyclicPreProof``), which no code walks by recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .syntax import (
    PRINT_CAP,
    SORTS,
    Assertion,
    Exists,
    Forall,
    ParseError,
    Prog,
    Seq,
    While,
    canon,
    erase_invariants,
    is_name,
    normal_assertion,
    parse_assertion,
    parse_program,
    seq_of,
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

# the deepest a term of a table may nest, a program's ``;`` spine aside:
# the walkers that read a term recurse, and the text parser reads 250 to
# 500 levels of any nesting but a chain of one operator
DEPTH_CAP = 1000
# the most binders a term may hold counted as a tree, since renaming them
# apart gives each its own name: no term whose text fits ``PRINT_CAP``
# holds more, as ``exists x. `` alone is 10 bytes
BINDER_CAP = PRINT_CAP // 10
_CTORS = {cls.__name__: cls for cls in SORTS}


def _once(memo: dict, f, x):
    """``f(x)``, computed once per distinct ``(f, x)`` kept in ``memo``."""
    if (f, x) not in memo:
        memo[f, x] = f(x)
    return memo[f, x]


def _number(t, index: dict, terms: list) -> int:
    """The position of ``t`` in ``terms``, after numbering it and the terms
    below it that ``index`` lacks in postorder, with an explicit stack."""
    stack = [t]
    while stack:
        u = stack[-1]
        if u not in index:
            todo = [k for k in u.kids() if k not in index]
            if todo:
                stack += reversed(todo)
                continue
            sorts = SORTS[type(u)]
            index[u] = len(terms)
            terms.append([type(u).__name__, *(
                v if isinstance(s, str) or v is None else index[v]
                for v, s in zip((getattr(u, f) for f in u.__match_args__), sorts)
            )])
        stack.pop()
    return index[t]


def serialize_proof(proof: PrhlProof | CyclicPreProof) -> str:
    """The certificate's JSON text: each distinct term is written once, in
    a table the triples name by position."""
    index: dict = {}
    terms: list = []
    nodes = {  # in the order of the text, so that equal proofs number their terms alike
        nid: {
            "rule": n.rule,
            "triple": {k: _number(getattr(n.triple, k), index, terms) for k in ("pre", "prog", "post")},
            "children": list(n.children),
            **({"fresh": n.fresh} if n.fresh is not None else {}),
        }
        for nid, n in sorted(proof.nodes.items())
    }
    system = "cprhl" if isinstance(proof, CyclicPreProof) else "prhl"
    doc: dict = {"system": system, "root": proof.root, "terms": terms, "nodes": nodes}
    if isinstance(proof, CyclicPreProof):
        doc["backlinks"] = dict(sorted(proof.backlinks.items()))
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def _reject_duplicate_keys(pairs):
    seen = {}
    for k, v in pairs:
        if k in seen:
            raise CertificateError(f"duplicate id {k!r}")
        seen[k] = v
    return seen


_WHAT = {"name": "a name", "op": "an operator", "nat": "a natural number"}


def _field(i: int, v, sort, built: list):
    """Field ``v`` of term ``i`` read as its sort in ``SORTS``; a node field
    is the position of an earlier term."""
    if sort == "name":
        ok = isinstance(v, str) and is_name(v)
    elif sort == "op":
        ok = v in ("+", "-", "*", "/", "%")
    elif sort == "nat":
        ok = type(v) is int and v >= 0
    elif ok := isinstance(node := built[v] if type(v) is int and 0 <= v < i else v, sort):
        v = node
    if not ok:
        raise CertificateError(f"malformed term {i}: {v!r} is not {_WHAT.get(sort, 'an earlier term of its sort')}")
    return v


def _terms(raw) -> list:
    """The nodes of a ``terms`` table, each built once from earlier ones
    after its fields' sorts are checked, with no recursion."""
    if not isinstance(raw, list):
        raise CertificateError("malformed terms: not a list")
    built: list = []
    depth: list[int] = []  # as the walkers recurse: not along a program's spine
    binders: list[int] = []  # counted as a tree
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or not entry:
            raise CertificateError(f"malformed term {i}: not a non-empty list")
        cls = _CTORS.get(entry[0]) if isinstance(entry[0], str) else None
        if cls is None:
            raise CertificateError(f"unknown constructor {entry[0]!r} at term {i}")
        sorts = SORTS[cls]
        if len(entry) != len(sorts) + 1:
            raise CertificateError(f"{cls.__name__} takes {len(sorts)} fields, term {i} has {len(entry) - 1}")
        args = [_field(i, v, sort, built) for v, sort in zip(entry[1:], sorts)]
        kids = [v for v, sort in zip(entry[1:], sorts) if not isinstance(sort, str) and v is not None]
        d = [depth[k] for k in kids]
        depth.append(max(d[0] + 1, d[1]) if cls is Seq else 1 + max(d, default=0))
        binders.append(min(BINDER_CAP + 1, (cls is Exists or cls is Forall) + sum(binders[k] for k in kids)))
        if depth[i] > DEPTH_CAP:
            raise CertificateError(f"term {i} nests deeper than {DEPTH_CAP} levels")
        if binders[i] > BINDER_CAP:
            raise CertificateError(f"term {i} binds more than {BINDER_CAP} variables as a tree")
        try:
            built.append(cls(*args[:2], canon(args[2])) if cls is While and args[2] is not None else cls(*args))
        except RecursionError:  # canon, as the parser packs an annotation
            raise CertificateError(f"term {i} nests too deep") from None
    return built


def _parse_triple(obj, nid: str, built: list, parsed: dict) -> Triple:
    """A node's triple: each field the position of its term in ``built``,
    read as the parser reads its text, or the text itself."""
    if not isinstance(obj, dict) or set(obj) != {"pre", "prog", "post"}:
        raise CertificateError(f"malformed triple at node {nid!r}")
    out = []
    for key, sort in (("pre", Assertion), ("prog", Prog), ("post", Assertion)):
        v = obj[key]
        if isinstance(v, str):
            read, x = (parse_program if sort is Prog else parse_assertion), v
        elif type(v) is int and 0 <= v < len(built) and isinstance(built[v], sort):
            read, x = (seq_of if sort is Prog else normal_assertion), built[v]
        else:
            kind = "a program" if sort is Prog else "an assertion"
            raise CertificateError(f"malformed triple at node {nid!r}: {key} is neither text nor the position of {kind} term")
        try:
            out.append(_once(parsed, read, x))
        except ParseError as e:
            raise CertificateError(f"unparseable triple at node {nid!r}: {e}") from e
        except RecursionError:  # the walkers that put a term read from the table in normal form
            raise CertificateError(f"term {v} at node {nid!r} nests too deep") from None
    return Triple(*out)


def parse_proof(text: str) -> PrhlProof | CyclicPreProof:
    """Parse and validate a certificate.

    Validation covers JSON shape, known rules and arities, child-id
    resolution, tree-ness (each node one parent, all reachable from the
    root), and backlink sanity: sources must be open leaves, targets must
    exist, be inner nodes, and carry a structurally identical triple.

    Each term of the table is built once, and each distinct field text
    is parsed once: nodes are interned and a program is parsed with no
    names to avoid, so a parse depends on its text alone.  A term nesting
    deeper than ``DEPTH_CAP`` or binding more than ``BINDER_CAP`` variables
    as a tree is refused.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except (ValueError, RecursionError) as e:  # a numeral past the digit limit, or nesting
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

    built = _terms(doc.get("terms", []))
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
        nodes[nid] = ProofNode(rule, _parse_triple(raw.get("triple"), nid, built, parsed), tuple(children), fresh)

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
    bare: dict = {}
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
        if (s.pre, erase_invariants(s.prog, bare), s.post) != (d.pre, erase_invariants(d.prog, bare), d.post):
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
