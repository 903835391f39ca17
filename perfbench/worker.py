"""One workload run in a fresh interpreter; prints one JSON object as its last line.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        [--setup-only] [--seconds S] [--trace FILE | --counts-only]
        [--deadline UNIX_TIME]

`--setup-only` stops after import and input generation and reports the time
they took.  Otherwise every query runs once in a full pass; the repeatable
ones (see below) run again until each has its samples, and then in further
rounds until `--seconds` have been measured.  Each sample is put at the
reference speed of `speed.py`, and a query's time is the median of its
samples.  `--seconds 0` makes one pass, no repeats and raw times.  With `--trace`
a single traced pass runs and its spans are written to FILE; with
`--counts-only` a single pass counts calls without timing them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from functools import partial  # noqa: E402

QUERY_LIMIT_S = 120.0
# A query whose first run returned within FAST_S is sampled FAST_REPEATS
# times, in passes at least FAST_SPACING_S apart that are interleaved with the
# full pass; one that returned within REPEAT_MAX_S is sampled twice, the second
# time in a round after the full pass; a heavier one keeps its single sample.
FAST_S = 0.05
FAST_REPEATS = 3
FAST_SPACING_S = 2.0
REPEAT_MAX_S = 0.4
SETUP_CALIBRATIONS = 15


class QueryTimeout(BaseException):
    """Raised inside a query that ran past its time limit."""


def _alarm(_signum, _frame):
    raise QueryTimeout()


def run_query(q, deadline, tracer=None, qid=0, sampler=None):
    """(seconds, answer, error or None, (start, end)) for one timed run of the
    query.  With a sampler, a calibration may run just before the query, and
    the time of those made inside it is left out of its seconds."""
    limit = min(QUERY_LIMIT_S, deadline - time.time())
    if limit <= 0:
        now = time.perf_counter()
        return 0.0, None, "timeout", (now, now)
    if sampler:
        sampler.maybe_tick()
    spent = sampler.spent if sampler else 0.0
    ctx = tracer.begin_query(qid) if tracer else None
    result = err = None
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        result = q.run()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        err = "timeout"
    except Exception as exc:  # an unexpected exception is a failed query
        signal.setitimer(signal.ITIMER_REAL, 0)
        err = f"exception {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer:
        tracer.end_query(ctx, q.label)
    elapsed = t1 - t0 - ((sampler.spent if sampler else 0.0) - spent)
    return elapsed, result, err, (t0, t1)


def run_pass(queries, deadline, answers, tracer=None, only=None, between=None, sampler=None,
             stop_at=float("inf")):
    """Run each query (of `only`, if given) once, starting none after the
    perf_counter reads `stop_at`: {query index: [seconds, error, (start, end)]}.

    The first answer of each query is kept in `answers` for the oracle; every
    later answer must equal it.  `between` is called before each query."""
    out = {}
    for qid, q in enumerate(queries):
        if only is not None and qid not in only:
            continue
        if time.perf_counter() >= stop_at:
            break
        if between is not None:
            between()
        elapsed, result, err, span = run_query(q, deadline, tracer, qid, sampler)
        if err is None and answers.setdefault(qid, result) != result:
            err = "wrong: the answer differs from the query's first answer"
        out[qid] = [elapsed, err, span]
    return out


def check_answers(queries, answers, errors):
    """Run each query's oracle on its first answer."""
    for qid, result in answers.items():
        try:
            err = queries[qid].check(result)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        if err and not errors[qid]:
            errors[qid] = "wrong: " + err


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="0 makes a single pass with no repeats")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="trace the pass and write its spans to this file")
    ap.add_argument("--counts-only", action="store_true",
                    help="trace the pass with counters only: no times, no spans")
    ap.add_argument("--deadline", type=float, default=float("inf"))
    ap.add_argument("--until", type=float, default=float("inf"),
                    help="start no query of the pass after this many seconds")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import mvla
    import mvla.cli  # noqa: F401  (the CLI queries call it in process)
    import workloads
    queries = workloads.build(args.workload, mvla, args.seed)
    setup_s = time.perf_counter() - _T0
    import speed
    out = {"setup_s": setup_s, "queries": len(queries)}
    if args.setup_only:
        out["calibration_s"] = speed.median_calibration(SETUP_CALIBRATIONS)
        print(json.dumps(out))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if args.trace or args.counts_only:
        import tracer as tracing
        tracer = tracing.Tracer(timed=not args.counts_only)
        tracer.install()
    repeat = bool(args.seconds) and tracer is None
    sampler = speed.Sampler() if repeat else None
    samples = [[] for _ in queries]   # raw seconds
    spans = [[] for _ in queries]     # (start, end) of each sample
    errors = [None] * len(queries)
    answers = {}

    def record(times):
        for qid, (elapsed, err, span) in times.items():
            samples[qid].append(elapsed)
            spans[qid].append(span)
            errors[qid] = errors[qid] or err

    def timed_pass(only=None, between=None):
        record(run_pass(queries, args.deadline, answers, tracer, only, between, sampler,
                        stop_at=first + args.until))

    def fast_pass(spaced=False):
        """Re-run the fast queries that lack repeats; with `spaced`, only if
        FAST_SPACING_S have gone by since the last such pass."""
        if spaced and time.perf_counter() - last_fast[0] < FAST_SPACING_S:
            return False
        todo = {qid for qid, s in enumerate(samples) if s and s[0] < FAST_S
                and len(s) < FAST_REPEATS and not errors[qid]}
        if todo:
            timed_pass(only=todo)
        last_fast[0] = time.perf_counter()
        return bool(todo)

    def fits(qids):
        return time.time() + 1.5 * sum(samples[qid][0] for qid in qids) + 5 < args.deadline

    first = time.perf_counter()
    last_fast = [first]
    if repeat:
        sampler.start()
    timed_pass(between=partial(fast_pass, spaced=True) if repeat else None)
    if repeat:
        while fast_pass():
            pass
        again = {qid for qid, s in enumerate(samples)
                 if s[0] < REPEAT_MAX_S and not errors[qid]}
        mid = {qid for qid in again if samples[qid][0] >= FAST_S}
        if fits(mid):
            timed_pass(only=mid)
        # then rounds of every repeatable query until --seconds are measured
        while time.perf_counter() - first < args.seconds and fits(again):
            timed_pass(only=again)
        sampler.stop()
        out["calibrations"] = len(sampler.samples)
        out["raw_wall_s"] = sum(statistics.median(s) for s in samples)
        # each sample at the reference speed of the calibrations around it
        samples = [[t * speed.REFERENCE_S / sampler.around(*span) for t, span in zip(s, sp)]
                   for s, sp in zip(samples, spans)]
    ran = sum(1 for s in samples if s)   # the queries before --until
    times = [statistics.median(s) for s in samples[:ran]]
    # read before the oracles run, so their memory does not count
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_answers(queries, answers, errors)
    out["samples"] = sum(map(len, samples))
    out["wall_s"] = sum(times)
    out["queries"] = [[q.cls, q.label, t, err] for q, t, err in zip(queries, times, errors)]
    if tracer:
        out["trace"] = tracer.summary()
    if args.trace:
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
