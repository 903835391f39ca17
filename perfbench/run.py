"""mvla verdict benchmark.

    python3 perfbench/run.py --workload {extension,vspace,linsys,all}
        --seed N [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the library is imported from the
checkout's `src/`.  Every workload run starts in fresh interpreters, because
a CLI user pays the cold cost (import, structure construction, first-touch
caches) on every call.

With `--trace 0` it prints the end-to-end metrics of the workload; with
`--trace 1` the per-layer metrics from a traced run.  Either way the last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  A wrong answer or an unexpected exception makes the exit code 1;
a checkout without the library gives exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("extension", "vspace", "linsys")
SETUP_REPEATS = 3        # before and after the workload run each
RUN_BUDGET_S = 165.0     # every run must end within 180 s
HASH_SEEDS = ("1", "2")  # the traced counters are repeated under both
UNTRACED_S = 30.0        # the untraced pass of a traced run starts no query after this


# -- child processes ----------------------------------------------------------------------


def _worker(workload, seed, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed), *map(str, extra)]


def _spawn(cmd, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)


def _collect(procs, deadline):
    """Wait for every process; the JSON each printed last, in order."""
    outs, failure = [], None
    for proc in procs:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline + 10 - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            failure = failure or "a workload process overran the run budget"
        if proc.returncode != 0 and failure is None:
            failure = f"workload process exited {proc.returncode}: {err.strip()[-2000:]}"
        outs.append(out)
    if failure:
        raise RuntimeError(failure)
    return [json.loads(out.strip().splitlines()[-1]) for out in outs]


def _run_children(cmds_and_seeds, deadline):
    procs = []
    try:
        for cmd, hash_seed in cmds_and_seeds:
            procs.append(_spawn(cmd, hash_seed))
        return _collect(procs, deadline)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# -- statistics ---------------------------------------------------------------------------


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _tally(runs):
    rows = [row for r in runs for row in r["queries"]]
    errors = [row for row in rows if row[3]]
    kinds = {k: sum(1 for r in errors if r[3].startswith(k))
             for k in ("wrong", "exception", "timeout")}
    return rows, errors, kinds


def _report_errors(errors):
    for cls, label, _, err in errors[:20]:
        print(f"  FAILED {cls} {label}: {err}")


def _shares(res):
    by_cls = {}
    for cls, _, t, _ in res["queries"]:
        n, total = by_cls.get(cls, (0, 0.0))
        by_cls[cls] = (n + 1, total + t)
    for cls, (n, t) in by_cls.items():
        print(f"  class {cls:<12} {n:4d} queries  {t:9.4f} s  {100 * t / res['wall_s']:5.1f}% of wall_s")
    for cls, label, t, _ in sorted(res["queries"], key=lambda r: -r[2])[:5]:
        print(f"  slow  {cls:<12} {t:9.4f} s  {label}")


def _setup_times(workload, seed, count, deadline):
    """Set-up times of fresh interpreters, each at the reference speed of its own
    calibration."""
    out = []
    for _ in range(count):
        (res,) = _run_children([(_worker(workload, seed, "--setup-only"), None)], deadline)
        out.append(res["setup_s"] * speed.REFERENCE_S / res["calibration_s"])
    return out


def end_to_end(workload, seed, seconds):
    deadline = time.time() + RUN_BUDGET_S
    # The first fresh interpreter also fills the bytecode cache and is not
    # measured.  Set-up is timed before and after the workload run, and the
    # median is reported.
    _setup_times(workload, seed, 1, deadline)
    setups = _setup_times(workload, seed, SETUP_REPEATS, deadline)
    (res,) = _run_children([(_worker(workload, seed, "--seconds", seconds,
                                     "--deadline", deadline), None)], deadline)
    setups += _setup_times(workload, seed, SETUP_REPEATS, deadline)
    rows, errors, kinds = _tally([res])
    times = sorted(row[2] for row in rows)
    n = len(times)
    p90 = nearest_rank(times, 0.9)
    metrics = {
        "wall_s": (res["wall_s"], "s"),
        "query_p50_ms": (1000 * nearest_rank(times, 0.5), "ms"),
        "query_p90_ms": (1000 * p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(f"{workload} seed={seed}: {n} queries, {res['samples']} samples, "
          f"{res['calibrations']} calibrations; raw wall_s {res['raw_wall_s']:.4f} s")
    notes = {"wall_s": "(sum of the query times)", "query_p50_ms": f"(n={n})",
             "query_p90_ms": f"(n={n}, {sum(t > p90 for t in times)} beyond)",
             "setup_s": f"(median of {len(setups)} fresh interpreters)"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.4f} {unit:<5} {notes.get(name, '')}")
    print(f"  {'error_ratio':<14} {len(errors) / n:12.4f} ratio ({len(errors)} of {n}: "
          f"{kinds['wrong']} wrong, {kinds['exception']} exceptions, "
          f"{kinds['timeout']} over the time limit)")
    _shares(res)
    _report_errors(errors)
    correct = kinds["wrong"] == 0 and kinds["exception"] == 0
    return correct, n, len(errors), metrics


def per_layer(workload, seed):
    deadline = time.time() + RUN_BUDGET_S
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    spans = trace_dir / f"trace-{workload}-seed{seed}.json"
    # The untraced pass, the traced pass and a recount of the traced counters
    # under another hash seed run side by side: the overhead ratio then
    # compares two passes that shared the machine alike.  The untraced pass
    # starts no query after UNTRACED_S, which keeps three passes on two cores
    # inside the run budget; the ratio is taken over the queries it ran.
    plain, *traced = _run_children(
        [(_worker(workload, seed, "--deadline", deadline, "--until", UNTRACED_S), None),
         (_worker(workload, seed, "--deadline", deadline, "--trace", spans), HASH_SEEDS[0]),
         (_worker(workload, seed, "--deadline", deadline, "--counts-only"), HASH_SEEDS[1])],
        deadline)
    ran = plain["queries"]
    first, second = (t["trace"] for t in traced)
    mismatched = sorted(k for k in set(first["counts"]) | set(second["counts"])
                        if first["counts"].get(k) != second["counts"].get(k))
    c = first["counts"]

    def calls(*keys):
        return sum(c.get("calls." + k, 0) for k in keys)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {f"{layer}.self_s": (first["self_s"][layer], "s") for layer in LAYERS}
    metrics.update({
        "polys.irreducible_s": (first["group_s"]["polys.irreducible_s"], "s"),
        "polys.box_members": (c.get("polys.box_members", 0), "count"),
        "polys.pmul_calls": (calls("polys.pmul"), "count"),
        "polys.padd_calls": (calls("polys.padd"), "count"),
        "extensions.quotient_s": (first["group_s"]["extensions.quotient_s"], "s"),
        "extensions.quotient_tried": (c.get("extensions.quotient_tried", 0), "count"),
        "extensions.quotient_accept_ratio": (ratio(c.get("extensions.quotient_accepted", 0),
                                                   c.get("extensions.quotient_tried", 0)),
                                             "ratio"),
        "axioms.instances_checked": (c.get("axioms.instances_checked", 0), "count"),
        "vspaces.build_s": (first["group_s"]["vspaces.build_s"], "s"),
        "vspaces.verify_s": (first["group_s"]["vspaces.verify_s"], "s"),
        "vspaces.instances_checked": (c.get("vspaces.instances_checked", 0), "count"),
        "linsys.scaled_branches": (c.get("linsys.scaled_branches", 0), "count"),
        "linsys.backsub_candidates": (c.get("linsys.iter_back_substitution.yields", 0),
                                      "count"),
        "linsys.candidate_tests": (calls("linsys.classify_candidate"), "count"),
        "linsys.candidate_yield": (ratio(c.get("linsys.candidate_hits", 0),
                                         calls("linsys.classify_candidate")), "ratio"),
        "linsys.outcomes": (c.get("linsys.outcomes", 0), "count"),
        "linsys.fallback_ratio": (ratio(c.get("linsys.fallback_outcomes", 0),
                                        c.get("linsys.outcomes", 0)), "ratio"),
        "matrices.box_members": (c.get("matrices.box_members", 0), "count"),
        "matrices.inverse_pair_tests": (calls("matrices.is_inverse_pair"), "count"),
        "matrices.inverse_hit_ratio": (ratio(c.get("matrices.inverse_hits", 0),
                                             calls("matrices.is_inverse_pair")), "ratio"),
        "structures.mask_ops": (calls("structures.Structure.add_masks",
                                      "structures.Structure.mul_masks"), "count"),
        "structures.set_conversions": (calls("structures.Structure.mask_of",
                                             "structures.Structure.set_of",
                                             "structures.Structure.canon"), "count"),
        "bench.self_s": (first["self_s"]["bench"], "s"),
        "trace.overhead_ratio": (ratio(sum(row[2] for row in traced[0]["queries"][:len(ran)]),
                                       sum(row[2] for row in ran)), "ratio"),
        "trace.spans": (first["spans"], "count"),
        "trace.counter_mismatches": (len(mismatched), "count"),
    })
    rows, errors, kinds = _tally([plain] + traced)
    print(f"{workload} seed={seed}: traced pass under PYTHONHASHSEED={HASH_SEEDS[0]}, "
          f"counters repeated under {HASH_SEEDS[1]}; spans in {spans.relative_to(ROOT)}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<34} {value:14.4f} {unit}")
    if mismatched:
        print("  counters that differ between the two traced passes: " + ", ".join(mismatched))
    print(f"  {len(errors)} failed of {len(rows)} queries over the three passes")
    _report_errors(errors)
    correct = kinds["wrong"] == 0 and kinds["exception"] == 0 and not mismatched
    return correct, len(rows), len(errors), metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mvla" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mvla sources under {ROOT / 'src'}\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            ok, n, bad, got = per_layer(name, args.seed) if args.trace else \
                end_to_end(name, args.seed, args.seconds)
        except RuntimeError as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 2
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
