"""Command-line front end tying the library together.

Subcommands: run a program, decide a triple under one of the four triple
readings, check a proof certificate (system auto-detected), build an
ordinary proof, rewrite it into a cyclic one, print a weakest
pre-condition, and encode a number sequence for the beta predicate.

Exit codes: 0 valid/accepted, 1 invalid/rejected (witness printed),
2 undecided or bound-relative, 3 usage, parse or internal errors.
Bounds come from flags, falling back to PRHL_DOMAIN_MAX /
PRHL_STEP_BOUND / PRHL_QUANT_BOUND, then to the built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .assertions import BoundedOracle
from .certificates import (
    CertificateError,
    CyclicPreProof,
    PrhlProof,
    Triple,
    parse_proof,
    serialize_proof,
)
from .checker import CheckReport, check_cprhl, check_prhl
from .prover import LOOP_MODES, CyclicCapExceeded, ProveRequest, prove_prhl, transform_to_cyclic
from .semantics import (
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
)
from .syntax import (
    Empty,
    ParseError,
    PrintCapExceeded,
    free_vars,
    parse_assertion,
    parse_program,
    print_assertion,
    prog_vars,
)
from .wp import MissingInvariantError, SearchExhausted, WprRequest, encode_sequence, wpr_formula

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 3, not argparse's 2
        self.exit(3, f"{self.prog}: error: {message}\n")


def _bounds_of(args: argparse.Namespace) -> Bounds:
    """Each ``Bounds`` field from its flag, else from PRHL_<FIELD>, else
    the field's default."""
    vals = {}
    for f in fields(Bounds):
        given = getattr(args, f.name)
        if given is None:
            raw = os.environ.get(f"PRHL_{f.name.upper()}")
            given = int(raw) if raw is not None else f.default
        if given < 0:
            raise ValueError(f"{f.name} must be non-negative")
        vals[f.name] = given
    return Bounds(**vals)


def read_triple_file(path: str) -> Triple:
    """Triple corpus format: pre: / prog: / post: sections, each taking
    the rest of its line plus any following lines."""
    sections: dict[str, list[str]] = {}
    current: str | None = None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            head, colon, rest = line.partition(":")
            if colon and head.strip() in ("pre", "prog", "post"):
                key = head.strip()
                if key in sections:
                    raise ValueError(f"{path}: duplicate section {key!r}")
                sections[key] = [rest]
                current = key
            elif current is not None:
                sections[current].append(line)
            elif line.strip() and not line.lstrip().startswith("#"):
                raise ValueError(f"{path}: content before the first section: {line.strip()!r}")
    missing = [k for k in ("pre", "prog", "post") if k not in sections]
    if missing:
        raise ValueError(f"{path}: missing section(s) {', '.join(missing)}")
    pre, post = (parse_assertion("\n".join(sections[k])) for k in ("pre", "post"))
    # the flag of an `if` must not capture a variable of the pre or post
    prog = parse_program("\n".join(sections["prog"]), free_vars(pre) | free_vars(post))
    return Triple(pre, prog, post)


def _json_out(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _state_json(s: State, names) -> dict:
    shown = sorted(set(names) | set(s.as_dict()))
    return {k: s.get(k) for k in shown}


def _witness_json(w, names):
    if w is None:
        return None
    if isinstance(w, State):
        return _state_json(w, names)
    return [_state_json(s, names) for s in w]


def _witness_text(w, names) -> str:
    if isinstance(w, State):
        return format_state(w, names)
    return " -> ".join(format_state(s, names) for s in w)


def _verdict_json(v: Verdict, names) -> dict:
    return {
        "kind": v.kind,
        "witness": _witness_json(v.witness, names),
        "reason": v.reason,
        "flags": list(v.flags),
    }


# --- report rendering -------------------------------------------------------


def emit_report(report: CheckReport, fmt: str = "text") -> str:
    """Deterministic rendering of a certificate check."""
    if fmt == "machine":
        return _json_out(
            {
                "system": report.system,
                "accepted": report.accepted,
                "bounds": asdict(report.bounds),
                "bounded": list(report.bounded_flags),
                "global": {"status": report.global_status, "ids": list(report.global_ids)},
                "nodes": {
                    nid: {
                        "status": r.status,
                        "detail": r.detail,
                        "bounded": list(r.bounded),
                        "verdict": None if r.verdict is None else _verdict_json(r.verdict, ()),
                    }
                    for nid, r in report.nodes.items()
                },
            }
        )
    if report.accepted:
        listed = ", ".join(report.bounded_flags) if report.bounded_flags else "none"
        return f"ACCEPT (bounded: {listed})\n"
    lines = ["REJECT"]
    for nid in sorted(report.nodes, key=lambda n: (len(n), n)):
        r = report.nodes[nid]
        if not r.ok:
            lines.append(f"  {nid} {r.status}: {r.detail}")
    if report.global_status == "ok":
        lines.append("  global: ok")
    else:
        lines.append(f"  global: {report.global_status} ({', '.join(report.global_ids)})")
    return "\n".join(lines) + "\n"


def _report_exit(report: CheckReport) -> int:
    if not report.accepted:
        return 1
    return 2 if report.bounded else 0


# --- subcommands ------------------------------------------------------------


# what cut a run, in its note
_CUT = {
    STEP_DEPTH: "step budget exhausted",
    WORK_CAP: "work cap on explored configurations reached",
    VALUE_WIDTH: f"a value outgrew {VALUE_BIT_CAP} bits",
}


def _cmd_run(args) -> int:
    bounds = _bounds_of(args)
    with open(args.file, encoding="utf-8") as fh:
        prog = parse_program(fh.read())
    store: dict[str, int] = {}
    for item in args.state or ():
        name, eq, val = item.partition("=")
        if not eq or not name.isidentifier():
            raise ValueError(f"bad --state binding {item!r}, expected name=value")
        store[name] = int(val)
    s0 = State(store)
    names = sorted(set(prog_vars(prog)) | set(store))
    res = run_all(compile_program(prog, names), s0, bounds.step_bound)
    finals = sorted(res.finals, key=lambda s: s.sort_key())
    if args.format == "machine":
        sys.stdout.write(
            _json_out(
                {
                    "finals": [
                        {"state": _state_json(f, names), "steps": res.finals[f]} for f in finals
                    ],
                    "truncated": res.truncated,
                    "exhausted": res.exhausted,
                }
            )
        )
    else:
        for f in finals:
            print(format_state(f, names))
        if not finals:
            print("(no terminating run)")
        if res.exhausted:
            print(f"note: {_CUT[res.cause]}; the list may be incomplete")
        elif res.truncated:
            print("note: non-terminating cycles pruned; the list is exact")
    return 2 if res.exhausted else 0


def _cmd_check_triple(args) -> int:
    bounds = _bounds_of(args)
    t = read_triple_file(args.file)
    v = check_triple(args.logic, t.pre, t.prog, t.post, bounds)
    names = relevant_vars(t.pre, t.prog, t.post)
    if args.format == "machine":
        sys.stdout.write(_json_out({"logic": args.logic, "bounds": asdict(bounds), "verdict": _verdict_json(v, names)}))
    elif v.is_valid:
        suffix = f" (bounded: {', '.join(v.flags)})" if v.flags else ""
        print(f"VALID{suffix}")
    elif v.is_invalid:
        print(f"INVALID witness: {_witness_text(v.witness, names)}")
    else:
        print(f"UNKNOWN ({v.reason})")
    if v.is_invalid:
        return 1
    if v.is_valid and not v.flags:
        return 0
    return 2


def _cmd_check_proof(args) -> int:
    bounds = _bounds_of(args)
    with open(args.file, encoding="utf-8") as fh:
        proof = parse_proof(fh.read())
    oracle = BoundedOracle(bounds)
    if isinstance(proof, CyclicPreProof):
        report = check_cprhl(proof, oracle, bounds, strict_fig4_assign=args.strict_fig4_assign)
    else:
        report = check_prhl(proof, oracle, bounds)
    sys.stdout.write(emit_report(report, args.format))
    return _report_exit(report)


def _cmd_prove(args) -> int:
    bounds = _bounds_of(args)
    t = read_triple_file(args.file)
    res = prove_prhl(ProveRequest(t, args.loop_mode, bounds), BoundedOracle(bounds))
    names = relevant_vars(t.pre, t.prog, t.post)
    cert_path = None
    if res.proof is not None and args.output:
        # the text is made before the file is opened: a failure leaves it as it was
        Path(args.output).write_text(serialize_proof(res.proof), encoding="utf-8")
        cert_path = args.output
    if args.format == "machine":
        sys.stdout.write(
            _json_out(
                {
                    "status": res.status,
                    "verdict": None if res.verdict is None else _verdict_json(res.verdict, names),
                    "sides": [
                        {"where": s.where, "verdict": _verdict_json(s.verdict, ())}
                        for s in res.sides
                    ],
                    "notes": list(res.notes),
                    "certificate": cert_path,
                }
            )
        )
    else:
        print(f"status: {res.status}")
        if res.status == "refuted":
            print(f"  witness: {_witness_text(res.verdict.witness, names)}")
        for s in res.sides:
            flags = f" (bounded: {', '.join(s.verdict.flags)})" if s.verdict.flags else ""
            print(f"  {s.where}: {s.verdict.kind}{flags}")
        for note in res.notes:
            print(f"  note: {note}")
        if cert_path:
            print(f"  certificate: {cert_path}")
    if res.status == "proved":
        return 0
    if res.status in ("proved-bounded", "unknown"):
        return 2
    return 1


def _cmd_transform(args) -> int:
    bounds = _bounds_of(args)
    with open(args.file, encoding="utf-8") as fh:
        proof = parse_proof(fh.read())
    if not isinstance(proof, PrhlProof):
        raise CertificateError("transform expects an ordinary (prhl) certificate")
    cyc = transform_to_cyclic(proof, Empty(), proof.nodes[proof.root].triple.post)
    if args.output:
        Path(args.output).write_text(serialize_proof(cyc), encoding="utf-8")
    report = check_cprhl(cyc, BoundedOracle(bounds), bounds, strict_fig4_assign=args.strict_fig4_assign)
    sys.stdout.write(emit_report(report, args.format))
    return _report_exit(report)


def _cmd_wp(args) -> int:
    _bounds_of(args)  # bad bound flags are rejected here too
    if args.unroll_depth < 0:
        raise ValueError("unroll_depth must be non-negative")
    t = read_triple_file(args.file)
    res = wpr_formula(WprRequest(t.prog, t.post, args.loop_mode, args.unroll_depth))
    if args.format == "machine":
        sys.stdout.write(
            _json_out(
                {
                    "formula": print_assertion(res.formula),
                    "exact": res.exact,
                    "loop_mode": res.loop_mode,
                    "notes": list(res.notes),
                }
            )
        )
    else:
        print(print_assertion(res.formula))
        for note in res.notes:
            print(f"note: {note}")
    return 0 if res.exact else 2


def _cmd_beta_encode(args) -> int:
    raw = args.values.strip()
    items = raw.split(",") if raw else []
    # item i's modulus depends on i: a dropped item would shift the rest
    if any(not v.strip() for v in items):
        raise ValueError("sequence items must not be empty")
    values = [int(v) for v in items]
    if any(v < 0 for v in values):
        raise ValueError("sequence values must be naturals")
    try:
        n, m = encode_sequence(values)
    except SearchExhausted as exc:
        print(f"no encoding found within the search budget: {exc}")
        return 2
    print(f"n={n} m={m}")
    return 0


# --- argument wiring --------------------------------------------------------


@functools.cache  # built on the first call, reused by the rest
def _build_parser() -> _Parser:
    top = _Parser(prog="prhl", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--domain-max", dest="domain_max", type=int, default=None)
        p.add_argument("--step-bound", dest="step_bound", type=int, default=None)
        p.add_argument("--quant-bound", dest="quant_bound", type=int, default=None)
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("run", help="execute a program file, list final stores")
    p.add_argument("file")
    p.add_argument("--state", action="append", metavar="NAME=VALUE")
    common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("check-triple", help="decide a triple file semantically")
    p.add_argument("file")
    p.add_argument("--logic", choices=LOGICS, default="partial-reverse")
    common(p)
    p.set_defaults(fn=_cmd_check_triple)

    p = sub.add_parser("check-proof", help="check a certificate (system auto-detected)")
    p.add_argument("file")
    p.add_argument("--strict-fig4-assign", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_check_proof)

    p = sub.add_parser("prove", help="build an ordinary proof for a triple file")
    p.add_argument("file")
    p.add_argument("--loop-mode", choices=LOOP_MODES, default="beta")
    p.add_argument("-o", "--output", metavar="CERT")
    common(p)
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("transform", help="rewrite an ordinary certificate into a cyclic one")
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="CERT")
    p.add_argument("--strict-fig4-assign", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("wp", help="print the weakest pre-condition of prog/post in a triple file")
    p.add_argument("file")
    p.add_argument("--loop-mode", choices=("beta", "invariant", "unroll"), default="beta")
    p.add_argument("--unroll-depth", type=int, default=8)
    common(p)
    p.set_defaults(fn=_cmd_wp)

    p = sub.add_parser("beta-encode", help="encode a comma-separated sequence as n,m")
    p.add_argument("values")
    common(p)
    p.set_defaults(fn=_cmd_beta_encode)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (PrintCapExceeded, CyclicCapExceeded) as exc:  # a bound hit, not a fault of the input
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except (CertificateError, MissingInvariantError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash must never read as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
