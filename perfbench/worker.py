"""Runs one workload's queries in a fresh process, as the batch user does.

    python3 perfbench/worker.py QUERIES.json OUT.json --mode timed|pass --seconds S --trace 0|1

One client, closed loop: each query is one or more in-process calls to
``prhl.cli.main(argv)`` with stdout and stderr captured, and the next
query starts when the previous one has answered.  ``timed`` runs whole
passes over the list, so every run has the list's exact mix: as many as
take S seconds of query time at the reference speed, going by the first
pass, and MIN_QUERIES at least.  The count does not follow the host's
speed, so runs of one program on one seed have the same sample count
and the same tail percentile.  ``pass`` runs the list once (used for
traced runs, whose counts must repeat exactly).  A speed probe, a fixed
piece of pure-Python work that does not touch the program, runs
between every two queries, and each record
carries the mean of the probes just before and just after its query and
(in ``timed`` mode) of those taken inside it every 0.04 s of CPU time:
the machine's speed at the time, which run.py divides out.  Answers
are not judged here: each distinct answer is written beside OUT.json
and checked by run.py, so checking costs neither time nor memory in the
measured process.  The process's peak RSS is reported as the workload's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

# a query still running after this long is stopped and counts as failed
QUERY_LIMIT_S = 30.0
# speed_probe() on a 2-vCPU Intel Xeon host at its faster speed; times
# are reported as if every probe around them had taken this
REFERENCE_PROBE_S = 0.0022
# process CPU seconds between two speed probes inside a query
PROBE_EVERY_S = 0.04
# each list puts a quarter of its queries in its top cost tier, so 48
# queries give the tail (ten samples beyond it) a top-tier sample
MIN_QUERIES = 48


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    in the program under test swallows it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _probe_tree(depth: int, key: int = 1) -> tuple:
    if depth == 0:
        return (key,)
    return (key, _probe_tree(depth - 1, 2 * key), _probe_tree(depth - 1, 2 * key + 1))


def _walk(t: tuple) -> int:
    return t[0] if len(t) == 1 else _walk(t[1]) + _walk(t[2])


PROBE_TREE = _probe_tree(13)  # 16383 nodes, about 1 MB


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python work in two parts: a
    tight loop of dict, tuple and string work, and a recursive walk over
    a 16383-node tuple tree (calls and pointer chasing) that takes three
    times as long.  A slow phase of a shared host slowed the loop 1.7x
    to 2x and the walk 1.3x to 1.45x, and the program's queries, which
    walk large terms and sets of stores, 1.35x to 1.6x: the mix slows
    by about as much as they do, the loop alone by too much.  It shares
    no code with prhl, so a change to the program cannot change it."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(1500):
        key = (i & 63, i % 5)
        table[key] = table.get(key, 0) + i
        acc += len(str(i))
    acc += len(frozenset(table.items()))
    _walk(PROBE_TREE)
    return time.perf_counter() - t0


class InQueryProbes:
    """Speed probes taken inside a query from a profiling-timer signal,
    so that a long query's speed is sampled while it runs and not only at
    its ends.  The time they take is kept apart and left out of the
    query's latency.  With ``every`` = 0 none are taken."""

    def __init__(self, every: float):
        self.every = every
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGPROF, self._on_timer)

    def _on_timer(self, signum, frame):
        t0 = time.perf_counter()
        try:
            self.samples.append(speed_probe())
        except RecursionError:  # the query is at the stack limit: skip this one
            pass
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        if self.every:
            signal.setitimer(signal.ITIMER_PROF, self.every, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


def run_query(steps: list[list[str]]) -> tuple[str, list[tuple[int, str]]]:
    """Run the CLI steps in order while each exits 0 or 2.  Returns a
    status ("ok", or why the query failed) and (exit, stdout) per step."""
    from prhl import cli

    answer: list[tuple[int, str]] = []
    for argv in steps:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except QueryTimeout:
            return "timeout", answer
        except Exception as exc:  # the CLI must answer, never raise
            return f"raised {type(exc).__name__}", answer
        if "Traceback" in err.getvalue():
            return "traceback", answer
        if code == 3:
            return "exit 3", answer
        answer.append((code, out.getvalue()))
        if code not in (0, 2):
            break
    return "ok", answer


class Recorder:
    """Per-execution records; each new distinct answer of a query goes
    to its own file at once, so answers are not held in memory."""

    def __init__(self, out_dir: Path, tag: str):
        self.out_dir, self.tag = out_dir, tag
        self.records: list[list] = []
        self.seen: set[tuple[str, str]] = set()
        self.bench_s = 0.0  # time spent here, left out of the wall clock

    def add(self, qid: str, latency: float, status: str, answer, probe_s: float) -> None:
        t0 = time.perf_counter()
        digest = hashlib.sha1(json.dumps(answer).encode()).hexdigest()[:16] if status == "ok" else ""
        if digest and (qid, digest) not in self.seen:
            self.seen.add((qid, digest))
            path = self.out_dir / f"answer-{self.tag}-{qid}-{digest}.json"
            path.write_text(json.dumps({"qid": qid, "answer": answer}))
        self.records.append([qid, latency, status, digest, [code for code, _ in answer], probe_s])
        self.bench_s += time.perf_counter() - t0


def timed_query(steps, probes: InQueryProbes, tracer=None, qindex=0):
    if tracer is not None:
        tracer.begin_query(qindex)
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    probes.start()
    t0 = time.perf_counter()
    try:
        status, answer = run_query(steps)
        latency = time.perf_counter() - t0
        probes.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:  # fired between the query's end and the disarm
        status, answer, latency = "timeout", [], time.perf_counter() - t0
        probes.stop()
    return latency - probes.spent, status, answer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("queries")
    ap.add_argument("out")
    ap.add_argument("--mode", choices=("timed", "pass"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    queries = json.loads(Path(args.queries).read_text())
    out = Path(args.out)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    # traced runs ("pass") take probes between queries only, so that no
    # probe time lands in a span
    probes = InQueryProbes(PROBE_EVERY_S if args.mode == "timed" else 0.0)
    rec = Recorder(out.parent, out.stem)

    timed_query(queries[0]["steps"], probes)  # warm-up: lazy imports, first-call costs
    if tracer is not None:
        tracer.reset()
    before = speed_probe()
    start = time.perf_counter()
    passes = 1
    i = 0
    while i < passes * len(queries):
        q = queries[i % len(queries)]
        latency, status, answer = timed_query(q["steps"], probes, tracer, i)
        after = speed_probe()
        rec.bench_s += after + probes.spent
        speed = [before, *probes.samples, after]
        probe_s = sum(speed) / len(speed)
        rec.add(q["qid"], latency, status, answer, probe_s)
        before = after
        i += 1
        if i == len(queries) and args.mode == "timed":
            pass_s = sum(r[1] * REFERENCE_PROBE_S / r[5] for r in rec.records)
            passes = max(-(-MIN_QUERIES // len(queries)), round(args.seconds / pass_s))
    wall = time.perf_counter() - start - rec.bench_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"records": rec.records, "wall_s": wall, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(out.with_suffix(".spans.jsonl"))
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
