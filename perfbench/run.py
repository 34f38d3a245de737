"""stabhom benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload laws_sweep --seed 1 --seconds 16 --trace 0

Imports stabhom from the src/ directory next to perfbench/ and fails (exit
2, no result line) when that source tree is missing.  Set-up is repeated
at least SETUP_MIN_REPS times and for at least SETUP_MIN_S seconds, and its
median reported.  The timed phase then issues the workload's queries back
to back for a whole number of rounds: as many as take --seconds at
reference speed at this version of stabhom (``Plan.rounds``), so every run
of a workload measures the same mix and the same number of queries.  Every
answer is checked after the phase, and a query that raises, runs past
QUERY_CEILING_S or fails its check counts as failed.

The end-to-end times are read at reference machine speed: while set-up and
queries run, speed.Sampler times a fixed probe every few milliseconds, and
each set-up or query time (probes excluded) is divided by the machine's
slowdown around it.  The wall-clock figures are printed too, as wall.*.

--trace 0 prints the end-to-end metrics.  --trace 1 measures the rounds
that take TRACE_S at reference speed, so that its per-layer totals depend
on the seed alone and not on how fast the program runs: it runs them
untraced, sets up again under the tracer, replays the same queries, and
prints the per-layer metrics, including trace.overhead (traced query time /
untraced query time).  --seconds does not apply there.  Spans
go to perfbench/out/ as JSON lines.  The last line of standard output is
always the JSON result.
"""
import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import speed
import tracer as tracing  # this directory is on sys.path as the script's own

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 15
QUERY_CEILING_S = 30.0
TAIL_MIN_ABOVE = 10
TRACE_S = 10.0


class QueryTimeout(BaseException):
    """Raised by the alarm in a query that passed the ceiling.  A
    BaseException, so the library's own ``except Exception`` cannot
    swallow it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def tail(durations):
    """(value, percentile, samples above) for the highest whole percentile
    whose nearest-rank value still has TAIL_MIN_ABOVE samples above it."""
    n = len(durations)
    ranked = sorted(durations)
    if n <= TAIL_MIN_ABOVE:
        return ranked[-1], 100, 0
    p = 99
    while p > 1 and math.ceil(p * n / 100) > n - TAIL_MIN_ABOVE:
        p -= 1
    rank = math.ceil(p * n / 100)
    return ranked[rank - 1], p, n - rank


def timed_phase(plan, count, tracer=None):
    """Run queries 0 .. count-1.  Returns a list of
    (query, answer, duration, error, start), times from perf_counter."""
    records = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for k in range(count):
            q = plan.query(k)
            err = None
            raw = None
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, QUERY_CEILING_S)
                try:
                    raw = q.run() if tracer is None else tracer.span(tracing.QUERY_SPAN, q.run)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except QueryTimeout:
                err = f"exceeded the {QUERY_CEILING_S:g} s ceiling"
            except Exception as exc:  # a raising query is a counted failure
                err = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if err is None and q.finish is not None:
                raw = q.finish(raw)
            records.append((q, raw, dt, err, t0))
            if tracer is not None:
                tracer.query_id = k + 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records


def check_all(records):
    """Number of failed queries; prints the first few failures to stderr."""
    failed = 0
    for q, answer, _, err, _ in records:
        ok = False
        if err is None:
            try:
                ok = bool(q.check(answer))
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"failed: {q.label}: {err or 'wrong answer'}", file=sys.stderr)
    return failed


def timed_setup(setup, seed):
    """(plan, [(start, duration)]) of repeated set-ups."""
    spans = []
    plan = None
    while len(spans) < SETUP_MAX_REPS and (
        len(spans) < SETUP_MIN_REPS or sum(d for _, d in spans) < SETUP_MIN_S
    ):
        plan = None  # release the previous plan before building the next
        t0 = time.perf_counter()
        plan = setup(seed)
        spans.append((t0, time.perf_counter() - t0))
    return plan, spans


def timing_metrics(durations, setups):
    value, pct, above = tail(durations)
    metrics = {
        "queries_per_s": (len(durations) / sum(durations), "1/s"),
        "query_p50_s": (statistics.median(durations), "s"),
        "query_tail_s": (value, "s"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, f"p{pct} of {len(durations)} queries, {above} above"


def end_to_end(workloads, workload, seed, seconds):
    with speed.Sampler() as sampler:
        plan, setup_spans = timed_setup(workloads.SETUPS[workload], seed)
        records = timed_phase(plan, plan.rounds(seconds) * plan.round_size)
    failed = check_all(records)
    scaled, tail_note = timing_metrics(
        [sampler.scaled(r[4], r[4] + r[2]) for r in records],
        [sampler.scaled(t0, t0 + d) for t0, d in setup_spans],
    )
    wall, _ = timing_metrics([r[2] for r in records], [d for _, d in setup_spans])
    metrics = dict(scaled)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["failed_fraction"] = (failed / len(records), "ratio")
    metrics["machine.slowdown"] = (sampler.slowdown(), "ratio")
    metrics.update({f"wall.{name}": value for name, value in wall.items()})
    notes = {
        "query_tail_s": tail_note,
        "setup_s": f"median of {len(setup_spans)} set-ups",
        "machine.slowdown": f"median of {len(sampler.costs)} probes / {speed.REF_S:g} s",
    }
    return records, failed, metrics, notes


def per_layer(workloads, workload, seed, seconds):
    from stabhom.cli.laws import LAWS

    setup = workloads.SETUPS[workload]
    plan = setup(seed)
    count = plan.rounds(TRACE_S) * plan.round_size
    plain = timed_phase(plan, count=count)
    del plan
    tr = tracing.Tracer()
    with tr:
        plan = setup(seed)
        tr.query_id = 0
        traced = timed_phase(plan, count=count, tracer=tr)
    del plan
    records = plain + traced
    failed = check_all(records)
    metrics = tracing.layer_metrics(tr, sorted(LAWS))
    overhead = sum(r[2] for r in traced) / sum(r[2] for r in plain)
    metrics["trace.overhead"] = (overhead, "ratio")
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"trace-{workload}.jsonl")
    tr.write_jsonl(path)
    notes = {"trace.overhead": f"{len(traced)} queries, spans in {os.path.relpath(path, ROOT)}"}
    return records, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stabhom", "__init__.py")):
        print(f"error: no stabhom source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    loaded = os.path.realpath(workloads.stable.__file__)
    if loaded != os.path.realpath(os.path.join(SRC, "stabhom", "stable.py")):
        print(f"error: stabhom was imported from {loaded}", file=sys.stderr)
        return 2
    if args.workload not in workloads.SETUPS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.SETUPS)}", file=sys.stderr)
        return 2
    run = per_layer if args.trace else end_to_end
    records, failed, metrics, notes = run(workloads, args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} = {value:.6g} {unit}{note}")
    # failed_fraction is printed above; the result line carries it as
    # failed / attempted, since it is 0 whenever the program is correct.
    metrics.pop("failed_fraction", None)
    for name in [n for n in metrics if tracing.printed_only(n) or n.startswith(("wall.", "machine."))]:
        metrics.pop(name)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
