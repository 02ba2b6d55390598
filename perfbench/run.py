"""Benchmark of the prhl command line, end to end and layer by layer.

    python3 perfbench/run.py --workload decide|certify|deep --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ and nowhere else.  Inputs are generated from the seed
into perfbench/.work/ and removed afterwards.  Before anything is timed,
the README quick-start commands must give their documented results.

--trace 0 prints the end-to-end metrics: query latency (median and
tail), queries per second, decided and passed ratios from a closed-loop
worker process that runs whole passes over the queries for about S
seconds of query time; setup_s from fresh interpreters; peak_rss_mb of
the worker.  Times are given at a reference machine speed: the speed of
a shared host can change by 1.9x within seconds, so each query's or
spawn's time is multiplied by REFERENCE_PROBE_S over the speed probes
measured around and during it (see worker.py).  The times as measured
are on the detail line.
--trace 1 prints the per-layer metrics: untraced, traced, traced and
untraced passes over the first TRACE_QUERIES queries of the list, each
in a fresh worker.  The two traced passes must agree on every count, and
the tracing overhead is the traced passes' mean time over the untraced
ones'.  Spans are written to perfbench/.out/.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Detail (sample counts, tail percentile, failure
causes) is printed on the line before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 6  # spawns on each side of the workload
SETUP_COMMAND = ("beta-encode", "1,0,2")
# a run must end within 180 s; workers are stopped when this much is used
RUN_BUDGET_S = 170.0
# a traced run makes four passes over the first this many queries of the
# list (lists interleave their kinds, so any prefix has nearly their mix);
# four passes over all 48 certify chains would not fit in the budget
TRACE_QUERIES = 24


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def child_env() -> dict:
    """The checkout's src/ only, and none of the PRHL_* bound defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRHL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# --- smoke guard ------------------------------------------------------------


def smoke_guard(workdir: Path) -> str | None:
    """README quick-start commands against their documented results.
    Returns the first mismatch, or None."""
    from worker import run_query

    corpus = ROOT / "corpus"
    demo = workdir / "demo.while"
    demo.write_text("x := x + 1; (skip + x := 0)\n")
    cert, cyclic = str(workdir / "ex3.json"), str(workdir / "ex3.cyclic.json")

    def beta_ok(out):
        parts = dict(p.split("=") for p in out.split())
        n, m = int(parts["n"]), int(parts["m"])
        return all(n % (1 + (1 + i) * m) == v for i, v in enumerate((1, 0, 2)))

    cases = [
        (["run", str(demo), "--state", "x=3"], [0], lambda o: set(o.split("\n")) == {"{x: 0}", "{x: 4}", ""}),
        (["check-triple", str(corpus / "ex3.triple")], [0], lambda o: o == "VALID\n"),
        (["check-triple", str(corpus / "ex4.triple"), "--domain-max", "12", "--step-bound", "1000"], [1],
         lambda o: o.startswith("INVALID witness: ")),
        ([["prove", str(corpus / "ex3_annotated.triple"), "--loop-mode", "invariant-annotations", "-o", cert],
          ["check-proof", cert], ["transform", cert, "-o", cyclic], ["check-proof", cyclic]], [0, 0, 0, 0],
         lambda o: o.startswith("ACCEPT")),
        (["wp", str(corpus / "ex3.triple"), "--loop-mode", "unroll", "--unroll-depth", "3"], [2], lambda o: o.strip() != ""),
        (["beta-encode", "1,0,2"], [0], beta_ok),
    ]
    for steps, exits, good in cases:
        steps = steps if isinstance(steps[0], list) else [steps]
        status, answer = run_query(steps)
        codes = [code for code, _ in answer]
        if status != "ok" or codes != exits or not good(answer[-1][1]):
            return f"`prhl {' '.join(steps[-1])}`: {status}, exits {codes}, expected {exits}"
    return None


# --- measuring --------------------------------------------------------------


def measure_setup(repeats: int, warm_up: bool) -> list[tuple[float, float]]:
    """Wall time from spawning a fresh `python -m prhl.cli` to its answer,
    at the reference speed and as measured.  The warm-up spawn may still
    be compiling bytecode and is not kept."""
    from worker import REFERENCE_PROBE_S, speed_probe

    argv = [sys.executable, "-m", "prhl.cli", *SETUP_COMMAND]
    times = []
    before = speed_probe()
    for _ in range(repeats + warm_up):
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or not done.stdout.startswith("n="):
            raise RuntimeError(f"setup command failed: {done.stderr.strip()[-200:]}")
        after = speed_probe()
        times.append((elapsed * REFERENCE_PROBE_S * 2 / (before + after), elapsed))
        before = after
    return times[warm_up:]


def spawn_worker(queries_file: Path, out: Path, mode: str, seconds: float, trace: int, deadline: float) -> dict:
    argv = [sys.executable, str(WORKER), str(queries_file), str(out),
            "--mode", mode, "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise RuntimeError(f"worker still running after {exc.timeout:.0f} s") from exc
    if done.returncode != 0:
        raise RuntimeError(f"worker failed: {done.stderr.strip()[-500:]}")
    return json.loads(out.read_text())


def judge(queries, outdir: Path) -> dict[tuple[str, str], str | None]:
    """Check every distinct answer the workers wrote: (qid, digest) ->
    None when correct, else the reason."""
    by_id = {q.qid: q for q in queries}
    verdicts = {}
    # reading an unroll formula builds some 10^5 closures, which the cyclic
    # collector would walk again and again (three times the reading time)
    gc.disable()
    try:
        for path in sorted(outdir.glob("answer-*.json")):
            doc = json.loads(path.read_text())
            digest = path.stem.rsplit("-", 1)[1]
            try:
                verdicts[(doc["qid"], digest)] = by_id[doc["qid"]].check([tuple(a) for a in doc["answer"]])
            except Exception as exc:  # a malformed answer is a wrong answer
                verdicts[(doc["qid"], digest)] = f"check raised {type(exc).__name__}: {exc}"
    finally:
        gc.enable()
    return verdicts


def outcome(records, verdicts, limit: float) -> list[dict]:
    """Per-query results: latency at the reference speed (failed queries
    count at the time limit), the same as measured, failure cause,
    decided."""
    from worker import REFERENCE_PROBE_S

    rows = []
    for qid, latency, status, digest, exits, probe_s in records:
        wrong = verdicts.get((qid, digest)) if status == "ok" else None
        cause = status if status != "ok" else ("wrong answer" if wrong else None)
        scaled = latency * REFERENCE_PROBE_S / probe_s
        rows.append({
            "qid": qid,
            "latency": limit if cause else scaled,
            "raw_latency": limit if cause else latency,
            "busy": scaled,
            "probe_s": probe_s,
            "cause": cause,
            "wrong": wrong,
            "decided": status == "ok" and all(c in (0, 1) for c in exits),
        })
    return rows


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples
    beyond it, and that percentile."""
    xs = sorted(latencies)
    idx = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs)


# --- main -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("decide", "certify", "deep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "prhl" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        return fail(f"no prhl checkout around {HERE}: src/prhl/ and tests/oracles.py are needed")
    for k in [k for k in os.environ if k.startswith("PRHL_")]:
        del os.environ[k]
    sys.path.insert(0, str(SRC))
    import prhl

    if Path(prhl.__file__).resolve().parent != SRC / "prhl":
        return fail(f"imported prhl from {prhl.__file__}, not from {SRC}")

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, workdir, time.monotonic() + RUN_BUDGET_S)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, deadline: float) -> int:
    import workloads
    from worker import QUERY_LIMIT_S as limit

    broken = smoke_guard(workdir)
    if broken:
        return fail(f"smoke guard: {broken}")
    queries = workloads.build(args.workload, args.seed, workdir)
    if args.trace:
        queries = queries[:TRACE_QUERIES]
    qfile = workdir / "queries.json"
    qfile.write_text(json.dumps([{"qid": q.qid, "steps": q.steps} for q in queries]))

    detail: dict = {"workload": args.workload, "seed": args.seed, "distinct_queries": len(queries)}
    if args.trace:
        # plain, traced, traced, plain: the machine's drift cancels out of
        # the overhead instead of landing on one side of it
        plain = [spawn_worker(qfile, workdir / "plain1.json", "pass", 0, 0, deadline)]
        traced = [spawn_worker(qfile, workdir / f"traced{i}.json", "pass", 0, 1, deadline) for i in (1, 2)]
        plain.append(spawn_worker(qfile, workdir / "plain2.json", "pass", 0, 0, deadline))
        import tracing

        first, second = (t["trace"] for t in traced)
        differ = {k: (first[k], second[k]) for k in tracing.EXACT if first[k] != second[k]}
        if differ:
            return fail(f"counts differ between two traced runs of the same inputs: {differ}")
        spans_dir = HERE / ".out"
        spans_dir.mkdir(exist_ok=True)
        shutil.copy(workdir / "traced1.spans.jsonl", spans_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        verdicts = judge(queries, workdir)
        rows = outcome(traced[0]["records"], verdicts, limit)
        all_rows = [row for res in plain + traced for row in outcome(res["records"], verdicts, limit)]
        untraced_s = sum(r["busy"] for res in plain for r in outcome(res["records"], verdicts, limit)) / len(plain)
        traced_s = sum(r["busy"] for res in traced for r in outcome(res["records"], verdicts, limit)) / len(traced)
        values = dict(first)
        values["trace.overhead"] = traced_s / untraced_s - 1.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracing.METRICS}
        detail.update(untraced_pass_s=untraced_s, traced_pass_s=traced_s)
    else:
        # half the spawns before the workload and half after, so that
        # setup_s samples the machine at both ends of the run
        setup = measure_setup(SETUP_REPEATS, warm_up=True)
        res = spawn_worker(qfile, workdir / "timed.json", "timed", args.seconds, 0, deadline)
        setup += measure_setup(SETUP_REPEATS, warm_up=False)
        verdicts = judge(queries, workdir)
        rows = all_rows = outcome(res["records"], verdicts, limit)
        lat = [r["latency"] for r in rows]
        raw = [r["raw_latency"] for r in rows]
        tail_s, tail_pct = tail(lat)
        failed = sum(1 for r in rows if r["cause"])
        values = {
            "query_s.p50": (statistics.median(lat), "s"),
            "query_s.tail": (tail_s, "s"),
            "queries_per_s": ((len(rows) - failed) / sum(r["busy"] for r in rows), "1/s"),
            "decided_ratio": (sum(r["decided"] for r in rows) / len(rows), "ratio"),
            "passed_ratio": (1.0 - failed / len(rows), "ratio"),
            "setup_s": (statistics.median(t for t, _ in setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        detail.update(tail_percentile=tail_pct, wall_s=res["wall_s"], setup_samples=len(setup),
                      measured_setup_s=statistics.median(t for _, t in setup),
                      probe_s_median=statistics.median(r["probe_s"] for r in rows),
                      measured_query_s_p50=statistics.median(raw), measured_query_s_tail=tail(raw)[0],
                      measured_queries_per_s=(len(rows) - failed) / res["wall_s"])

    causes = Counter(r["cause"] for r in rows if r["cause"])
    failed = sum(causes.values())
    wrong = sorted({f"{r['qid']}: {r['wrong']}" for r in all_rows if r["wrong"]})
    detail.update(samples=len(rows), failed_ratio=failed / len(rows), failures=causes, wrong_answers=wrong)
    print(json.dumps(detail))
    print(json.dumps({"correct": not wrong, "attempted": len(rows), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
