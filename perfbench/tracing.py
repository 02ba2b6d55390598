"""Outside-in spans around the public functions of each prhl module.

Nothing in src/ changes: ``Tracer.install`` replaces a function in the
namespaces of the modules that import it (``prhl.cli.run_all``,
``prhl.semantics.seq_of``, ...), so a span covers one call across a
module boundary.  Recursion inside a module goes through the defining
module's own binding, which stays unwrapped, except where a
metric needs the module's own calls: ``run_all`` and ``global_soundness``
(called from their own modules) and ``eval_assertion`` (reached through
the defining module at call time; only outermost calls get spans).

A span records name, start, end, parent span, query id and counts taken
from the result.  Spans stay in memory until the run ends.  Self time is
a span's duration minus that of its direct children; time the tracer
spends counting sits in "bench" spans, which no layer is charged for.
"""

from __future__ import annotations

import json
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

from prhl import assertions, certificates, checker, cli, prover, semantics, syntax, wp

MODULES = (cli, syntax, semantics, assertions, wp, prover, certificates, checker)
LAYERS = tuple(m.__name__.split(".")[-1] for m in MODULES)


def tree_nodes(term) -> int:
    """Size of a term as a tree (shared subterms counted per use)."""
    n, stack = 0, [term]
    while stack:
        t = stack.pop()
        n += 1
        stack.extend(v for f in fields(t) if is_dataclass(v := getattr(t, f.name)))
    return n


# span name, defining module, function, wrap the defining module's own
# binding too, counts taken from the result
TARGETS = (
    ("cli.main", cli, "main", True, None),
    ("syntax.parse", syntax, "parse_program", False, None),
    ("syntax.parse", syntax, "parse_assertion", False, None),
    ("syntax.print", syntax, "print_assertion", False, lambda r: {"syntax.print.bytes": len(r)}),
    ("syntax.print", syntax, "print_program", False, lambda r: {"syntax.print.bytes": len(r)}),
    ("syntax.canon", syntax, "canon", False, None),
    ("syntax.subst", syntax, "subst", False, None),
    ("syntax.normalize_program", syntax, "normalize_program", False, None),
    ("syntax.seq_of", syntax, "seq_of", False, None),
    ("semantics.run_all", semantics, "run_all", True,
     lambda r: {"semantics.run_all.finals": len(r.finals), "semantics.run_all.exhausted": int(r.exhausted)}),
    ("semantics.check_triple", semantics, "check_triple", False, None),
    ("assertions.eval_assertion", assertions, "eval_assertion", True, None),
    ("wp.wpr_formula", wp, "wpr_formula", False, lambda r: {"wp.wpr_formula.nodes": tree_nodes(r.formula)}),
    ("prover.prove_prhl", prover, "prove_prhl", False, lambda r: {"prover.sides": len(r.sides)}),
    ("prover.transform_to_cyclic", prover, "transform_to_cyclic", False, lambda r: {"prover.cyclic_nodes": len(r.nodes)}),
    ("checker.check_prhl", checker, "check_prhl", False, lambda r: {"checker.nodes": len(r.nodes)}),
    ("checker.check_cprhl", checker, "check_cprhl", False, lambda r: {"checker.nodes": len(r.nodes)}),
    ("checker.global_soundness", checker, "global_soundness", True, None),
    ("certificates.parse_proof", certificates, "parse_proof", False, None),
    ("certificates.serialize_proof", certificates, "serialize_proof", False, lambda r: {"certificates.bytes": len(r)}),
)
OUTERMOST_ONLY = {"assertions.eval_assertion"}
ORACLE = "assertions.oracle"  # BoundedOracle.entails, wrapped on the class

# every per-layer metric, in report order: (name, unit, better)
_S, _C = "s", "count"
METRICS = (
    ("semantics.run_all.calls", _C, "lower"),
    ("semantics.run_all.self_s", _S, "lower"),
    ("semantics.run_all.finals", _C, "lower"),
    ("semantics.run_all.exhausted", _C, "lower"),
    ("semantics.stores_per_query", _C, "lower"),
    ("semantics.check_triple.self_s", _S, "lower"),
    ("syntax.seq_of.calls", _C, "lower"),
    ("syntax.seq_of.self_s", _S, "lower"),
    ("assertions.eval_assertion.calls", _C, "lower"),
    ("assertions.eval_assertion.self_s", _S, "lower"),
    ("assertions.oracle.calls", _C, "lower"),
    ("assertions.oracle.self_s", _S, "lower"),
    ("assertions.oracle.repeat_ratio", "ratio", "lower"),
    ("assertions.oracle.decided_ratio", "ratio", "higher"),
    ("syntax.canon.calls", _C, "lower"),
    ("syntax.canon.self_s", _S, "lower"),
    ("syntax.subst.calls", _C, "lower"),
    ("syntax.subst.self_s", _S, "lower"),
    ("syntax.normalize_program.calls", _C, "lower"),
    ("syntax.normalize_program.self_s", _S, "lower"),
    ("wp.wpr_formula.calls", _C, "lower"),
    ("wp.wpr_formula.self_s", _S, "lower"),
    ("wp.wpr_formula.nodes", _C, "lower"),
    ("prover.prove_prhl.self_s", _S, "lower"),
    ("prover.sides", _C, "lower"),
    ("prover.transform_to_cyclic.self_s", _S, "lower"),
    ("prover.cyclic_nodes", _C, "lower"),
    ("checker.check_prhl.self_s", _S, "lower"),
    ("checker.check_cprhl.self_s", _S, "lower"),
    ("checker.nodes", _C, "lower"),
    ("checker.global_soundness.self_s", _S, "lower"),
    ("certificates.parse_proof.self_s", _S, "lower"),
    ("certificates.serialize_proof.self_s", _S, "lower"),
    ("certificates.bytes", "bytes", "lower"),
    ("syntax.parse.self_s", _S, "lower"),
    ("syntax.print.self_s", _S, "lower"),
    ("syntax.print.bytes", "bytes", "lower"),
    ("cli.self_s", _S, "lower"),
    *((f"{layer}.share", "ratio", "lower") for layer in LAYERS),
    ("trace.spans", _C, "lower"),
    ("trace.overhead", "ratio", "lower"),
)
# metrics that must repeat exactly across two runs of the same inputs
EXACT = tuple(name for name, unit, _ in METRICS if unit in (_C, "bytes")) + (
    "assertions.oracle.repeat_ratio",
    "assertions.oracle.decided_ratio",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, query, counts)
        self.stack: list[int] = []
        self.query = -1
        self.asked: set[tuple[str, str]] = set()  # oracle questions of this query
        self.inside: set[str] = set()
        self.patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for name, defining, fname, own, counter in TARGETS:
            orig = getattr(defining, fname)
            wrapper = self._wrap(name, orig, counter, name in OUTERMOST_ONLY)
            for mod in MODULES:
                if getattr(mod, fname, None) is orig and (own or mod is not defining):
                    self._patch(mod, fname, wrapper)
        cls = assertions.BoundedOracle
        self._patch(cls, "entails", self._wrap(ORACLE, cls.entails, None, False, oracle=True))

    def _patch(self, owner, attr, new) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.patches):
            setattr(owner, attr, old)
        self.patches.clear()

    def reset(self) -> None:
        self.spans.clear()

    def begin_query(self, index: int) -> None:
        self.query = index
        self.asked = set()

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, counter, outermost, oracle=False):
        spans, stack, inside, clock = self.spans, self.stack, self.inside, time.perf_counter

        def wrapper(*args, **kwargs):
            if outermost and name in inside:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if outermost:
                inside.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if outermost:
                    inside.discard(name)
                spans[idx] = (name, start, end, parent, self.query, None)
            if counter is not None or oracle:
                b0 = clock()
                counts = self._oracle_counts(args, result) if oracle else counter(result)
                spans[idx] = (name, start, end, parent, self.query, counts)
                spans.append(("bench", b0, clock(), parent, self.query, None))
            return result

        return wrapper

    def _oracle_counts(self, args, verdict) -> dict:
        _, hyp, concl = args
        key = (syntax.print_assertion(hyp), syntax.print_assertion(concl))
        repeat = key in self.asked
        self.asked.add(key)
        decided = verdict.is_invalid or (verdict.is_valid and not verdict.flags)
        return {"oracle.repeats": int(repeat), "oracle.decided": int(decided)}

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict:
        """Every per-layer metric except trace.overhead, which needs the
        untraced run."""
        # a span a query timeout cut before it opened reads as empty
        spans = [s or ("bench", 0.0, 0.0, -1, -1, None) for s in self.spans]
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        stores_in_triples = 0
        for i, (name, start, end, parent, _, got) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            for k, v in (got or {}).items():
                counts[k] = counts.get(k, 0) + v
            if name == "semantics.run_all" and parent >= 0 and spans[parent][0] == "semantics.check_triple":
                stores_in_triples += 1
        out: dict[str, float] = {}
        for name, unit, _ in METRICS:
            stem = name.rsplit(".", 1)[0]
            if name.endswith(".calls"):
                out[name] = calls.get(stem, 0)
            elif name.endswith(".self_s"):
                out[name] = self_s.get("cli.main" if stem == "cli" else stem, 0.0)
            elif name in counts:
                out[name] = counts[name]
            elif unit != "ratio":
                out[name] = counts.get(name, 0)
        oracle_calls = calls.get(ORACLE, 0)
        out["assertions.oracle.repeat_ratio"] = counts.get("oracle.repeats", 0) / oracle_calls if oracle_calls else 0.0
        out["assertions.oracle.decided_ratio"] = counts.get("oracle.decided", 0) / oracle_calls if oracle_calls else 0.0
        checks = calls.get("semantics.check_triple", 0)
        out["semantics.stores_per_query"] = stores_in_triples / checks if checks else 0
        charged = {layer: 0.0 for layer in LAYERS}
        for name, s in self_s.items():
            if name != "bench":
                charged[name.split(".")[0]] += s
        total = sum(charged.values())
        for layer in LAYERS:
            out[f"{layer}.share"] = charged[layer] / total if total else 0.0
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "query", "counts"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
