"""Record a checkout's benchmark rows into one BENCH_<pr>.json file.

    python3 tools/record_bench.py --pr N [--root DIR] [--parent DIR]

`--root` is the source checkout to measure (default: the one holding this
script); the file is written to `<root>/BENCH_<N>.json`.  Each row source is a
probe, `run(checkout) -> {row name: (layer, unit, value, work units)}`, and one
run of a probe may yield many rows.  Each probe runs in fresh interpreters from
the checkout's own files:

- the three `perfbench/run.py` workloads at SEED, untraced (the end-to-end rows,
  WORKLOAD_PAIRS runs) and traced (the per-layer rows);
- the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`), one
  wall time per run, TIER1_REPEATS runs; its work units are the counts of the
  summary line;
- the slow CLI verbs (VERBS); work units: the exit code and a digest of stdout;
- the cold checks (COLD_CODE), in microseconds per call: `builtin()` with and
  without `structure_is` on the fresh structure, and `structure_is` on a mutant
  that fails at its first witness; work units: the checks' `checked` counts;
- the timed calls (TIMED_CALLS), each a library call or batch timed around the
  call, which prints its seconds and its work units (counted, where the call
  does not return them, in a second, untimed pass);
- `src_lines`, the line count of `src/mvla/*.py`, once.

The other probes run REPEATS times.  A row holds the median and quartiles (`q1`,
`q3`) of its values, its unit, the number of runs, the work units of the first
run and `work_stable`, whether every run gave the same work units.  Work units
are deterministic counts, so two recordings can tell a speedup from noise.

`--parent DIR` names a second checkout, the parent of the change being recorded.
Each probe then runs as often on it, in pairs whose first side switches from
pair to pair (PAIR_ORDER), so drift of the host reads on both sides alike.  Each
row adds the parent's median, quartiles and first work units (`parent_median`,
`parent_q1`, `parent_q3`, `parent_work`), the number of pairs in which both sides
gave a value (`pairs`), and how many of them root read lower (`root_lower`) or
the same (`ties`).  A probe that fails on the parent gives `parent_median: null`
and the error's tail as `parent_work`; a probe that fails on root stops the
recording.  The file records the pair order and each checkout's identity: its
`git describe`, or for a copy that is not a git checkout the sha256 of its
`src/mvla/*.py`.

No child writes bytecode, and each reads it only from one directory made for
the recording, which one child first fills with the standard library's
bytecode: each child compiles the project's own modules afresh, so a checkout's
leftover `__pycache__` cannot read as a faster start.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("extension", "vspace", "linsys")
REPEATS = 3
TIER1_REPEATS = 1
WORKLOAD_PAIRS = 10  # untraced workload runs: the fewest pairs a claimed gain rests on
SEED = 1
# With --parent, pair i runs the sides in the order PAIR_ORDER[i % 2].
PAIR_ORDER = (("root", "parent"), ("parent", "root"))

# The slow CLI verbs: (row name, argv after `mvla`).
VERBS = (
    ("irreducible H3 1+2X^2", ["irreducible", "--structure", "builtin:H3", "--poly", "1,0,2"]),
    ("quotient H3 1+2X^2", ["quotient", "builtin:H3", "--poly", "1,0,2"]),
    ("closed H3 n<=2 m<=3", ["closed", "--structure", "builtin:H3", "--max-n", "2",
                             "--max-m", "3"]),
    ("vspace H3^4", ["vspace", "--structure", "builtin:H3", "--space", "fn", "--n", "4"]),
    ("verify H7 superfield", ["verify", "builtin:H7", "--kind", "superfield"]),
)


# The cold checks: (row name, builtin() arguments), and the kinds checked.
COLD_STRUCTURES = (("H3", ("Hp", 3)), ("H5", ("Hp", 5)), ("H7", ("Hp", 7)), ("Q2", ("Q2",)),
                   ("F5", ("Fp", 5)))
COLD_KINDS = ("superfield", "multifield", "superdomain")
# (row name, builtin() arguments, kind) of each cold check
COLD_CHECKS = (tuple((name, args, kind) for kind in COLD_KINDS for name, args in COLD_STRUCTURES)
               + (("H5", ("Hp", 5), "hyperfield"),))
COLD_CALLS = 300
# H5 with 2.2 = {1, 4} in place of {4}: every superfield law before M3-mult passes
COLD_MUTANT = ("H5 2.2={1,4}", ("Hp", 5), ("prod", 2, 2, {1, 4}))
COLD_CODE = """
import json, statistics, sys, time
from mvla import builtin, structure_is, verify_axioms
out = {}
for name, args, kind in CHECKS:
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        structure_is(builtin(*args), kind)
        times.append(time.perf_counter() - t0)
    out["cold check " + name + " " + kind] = (statistics.median(times) * 1e6,
                                              verify_axioms(builtin(*args), kind).checked)
for name, args in STRUCTURES:
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        S = builtin(*args)
        times.append(time.perf_counter() - t0)
    out["builtin " + name] = (statistics.median(times) * 1e6, len(S))
name, args, entry = MUTANT
times = []
for _ in range(CALLS):
    S = builtin(*args).with_entry(*entry)
    t0 = time.perf_counter()
    structure_is(S, "superfield")
    times.append(time.perf_counter() - t0)
rep = verify_axioms(S, "superfield", witness_limit=1)
out["cold check " + name + " superfield"] = (statistics.median(times) * 1e6,
                                             [rep.checked, list(rep.witnesses[0][:1])])
print(json.dumps(out))
"""

# Run once per recording, with the bytecode prefix of every later child: imports what
# the children import and compiles into the prefix the standard library modules among
# them (site-packages and the checkout are left out).
WARM_CODE = """
import os, py_compile, sys, sysconfig
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import mvla.cli, pytest, random, run, worker, workloads
paths = sysconfig.get_paths()
skip = tuple(p + os.sep for p in (paths["purelib"], paths["platlib"], ROOT))
for module in list(sys.modules.values()):
    path = getattr(module, "__file__", None) or ""
    if path.endswith(".py") and path.startswith(paths["stdlib"]) and not path.startswith(skip):
        py_compile.compile(path, doraise=True)
"""

# The irreducibility scan of COEFFS over builtin(*ARGS), which its rows set first.
IRREDUCIBLE_CODE = """
import json, time
from mvla import Poly, builtin
from mvla.polys import _irreducible
f, slices = Poly(builtin(*ARGS), COEFFS), {}
t0 = time.perf_counter()
irreducible = _irreducible(f, slices).irreducible
print(json.dumps([time.perf_counter() - t0, {"irreducible": irreducible, "slices": len(slices)}]))
"""

# The same scan over a field, which divides instead of building slices: the division
# steps it charges are counted in a second, untimed pass.
FIELD_IRREDUCIBLE_CODE = """
import json, time
import mvla.polys as polys
from mvla import Poly, builtin
f = Poly(builtin(*ARGS), COEFFS)
t0 = time.perf_counter()
irreducible = polys._irreducible(f, {}).irreducible
dt = time.perf_counter() - t0
charge, steps = polys.charge, [0]
polys.charge = lambda work, what: (steps.append(work), charge(work, what))[1]
polys._irreducible(f, {})
print(json.dumps([dt, {"irreducible": irreducible, "division steps": steps[-1]}]))
"""

# The quotient search over builtin(*ARGS) at DEGREE, which its rows set first: the
# quotients it builds, all rejected but the one found, are counted in a second, untimed
# pass.
QUOTIENT_SEARCH_CODE = """
import json, time
import mvla.extensions as ext
from mvla import builtin
F = builtin(*ARGS)
t0 = time.perf_counter()
found = ext.find_quotient_superfield(F, DEGREE) is not None
dt = time.perf_counter() - t0
tables, built = ext._quotient_tables, []
ext._quotient_tables = lambda F, p: (built.append(p), tables(F, p))[1]
ext.find_quotient_superfield(F, DEGREE)
print(json.dumps([dt, {"found": found, "rejected": len(built) - found}]))
"""

# M3 on the sum table of fn_space(builtin(*ARGS), N), which its rows set first.
M3_CODE = """
import json, time
from mvla import builtin, fn_space
from mvla.axioms import _Collector, _View, _containment, _scan_assoc
V = fn_space(builtin(*ARGS), N)
view, col = _View(V.vectors, V.zero_i, None, V.neg, V.sum, None, False, V.act), _Collector()
t0 = time.perf_counter()
_scan_assoc(view, col, "sum", "M3", _containment)
print(json.dumps([time.perf_counter() - t0, {"checked": col.checked,
                                             "witnesses": len(col.witnesses)}]))
"""

# The views of F3[X]/(1+X^2) whose weak distributivity one weak-dist row times.
WEAK_CALLS = 100

# The rows timed around one call in a fresh interpreter: (layer, row name, code).
# Each code prints [seconds, work units].
TIMED_CALLS = (
    ("polys", "irreducible H5 1+2X^2", 'ARGS, COEFFS = ("Hp", 5), (1, 0, 2)' + IRREDUCIBLE_CODE),
    ("polys", "irreducible F2 1+X+X^4",
     'ARGS, COEFFS = ("Fp", 2), (1, 1, 0, 0, 1)' + FIELD_IRREDUCIBLE_CODE),
    ("polys", "irreducible F3 1+X^2",
     'ARGS, COEFFS = ("Fp", 3), (1, 0, 1)' + FIELD_IRREDUCIBLE_CODE),
    ("extensions", "quotient search H5 deg 2",
     'ARGS, DEGREE = ("Hp", 5), 2' + QUOTIENT_SEARCH_CODE),
    ("extensions", "quotient search H3 deg 3",
     'ARGS, DEGREE = ("Hp", 3), 3' + QUOTIENT_SEARCH_CODE),
    ("axioms", "M3 H3^4 sum", 'ARGS, N = ("Hp", 3), 4' + M3_CODE),
    ("axioms", "M3 K^5 sum", 'ARGS, N = ("K",), 5' + M3_CODE),
    ("axioms", "action H3^4", """
import json, time
from mvla import builtin, fn_space
from mvla.axioms import _GROUP, _Collector, _View, _scan_action, _scan_kind
V = fn_space(builtin("Hp", 3), 4)
view, col = _View(V.vectors, V.zero_i, None, V.neg, V.sum, None, False, V.act), _Collector()
_scan_kind(view, _GROUP, _Collector())
t0 = time.perf_counter()
_scan_action(view, V.scalars, col, False)
print(json.dumps([time.perf_counter() - t0, {"checked": col.checked,
                                             "witnesses": len(col.witnesses)}]))
"""),
    ("axioms", "weak-dist F3[X]/(1+X^2)", """
import json, time
from mvla import Poly, builtin, quotient_pair
from mvla.axioms import _Collector, _View, _scan_weak_dist
F = builtin("Fp", 3)
K = quotient_pair(F, Poly(F, (1, 0, 1)))[0]
views, cols = [_View.of_structure(K) for _ in range(WEAK_CALLS)], []
t0 = time.perf_counter()
for view in views:
    cols.append(_Collector())
    _scan_weak_dist(view, cols[-1])
dt = (time.perf_counter() - t0) / WEAK_CALLS
print(json.dumps([dt, {"checked": cols[0].checked, "witnesses": len(cols[0].witnesses)}]))
""".replace("WEAK_CALLS", str(WEAK_CALLS))),
    ("axioms", "verify F43 hyperfield", """
import json, time
from mvla import builtin, verify_axioms
S = builtin("Fp", 43)
t0 = time.perf_counter()
rep = verify_axioms(S, "hyperfield")
print(json.dumps([time.perf_counter() - t0, {"checked": rep.checked, "verdict": rep.verdict}]))
"""),
    ("vspaces", "verify H3^5", """
import json, time
from mvla import builtin, fn_space, verify_vspace
V = fn_space(builtin("Hp", 3), 5)
t0 = time.perf_counter()
rep = verify_vspace(V)
print(json.dumps([time.perf_counter() - t0, {"checked": rep.checked, "verdict": rep.verdict}]))
"""),
    ("vspaces", "dimension H3^2 and F3^2", """
import json, math, time
from mvla import builtin, dimension, fn_space, is_linearly_closed
runs = [(fn_space(F, 2), is_linearly_closed(F, 2, 3)) for F in (builtin("Hp", 3), builtin("Fp", 3))]
t0 = time.perf_counter()
dims = [dimension(V, closure) for V, closure in runs]
print(json.dumps([time.perf_counter() - t0, {
    "dimensions": dims,
    "rechecked": [math.comb(len(V.vectors), d + 1) for (V, _), d in zip(runs, dims)]}]))
"""),
    ("vspaces", "independence H5^2 triples", """
import itertools, json, time
from mvla import builtin, fn_space, is_linearly_independent
V = fn_space(builtin("Hp", 5), 2)
triples = list(itertools.combinations([v for v in V.vectors if v != V.vzero], 3))
t0 = time.perf_counter()
dependent = sum(not is_linearly_independent(V, vs)[0] for vs in triples)
print(json.dumps([time.perf_counter() - t0, {"triples": len(triples), "dependent": dependent}]))
"""),
    ("vspaces", "span planes", """
import json, random, time
from mvla import builtin, fn_space, vspaces
rng, runs = random.Random(1), []
for args in (("Hp", 3), ("Q2",), ("Fp", 3)):
    S = builtin(*args)
    nonzero = [v for v in fn_space(S, 2).vectors if v != (S.zero, S.zero)]
    runs += [(fn_space(S, 2), rng.sample(nonzero, 1 + i % 2)) for i in range(20)]
t0 = time.perf_counter()
passed = sum(vspaces.span(V, gens)[1].passed for V, gens in runs)
dt, predicate, evaluations = time.perf_counter() - t0, vspaces._subspace_witness, []
def counted(V, W):
    evaluations.append(W)
    return predicate(V, W)
vspaces._subspace_witness = counted
for V, gens in runs:
    vspaces.span(V, gens)
print(json.dumps([dt, {"spans": len(runs), "passed": passed,
                       "predicate_evaluations": len(evaluations)}]))
"""),
    ("matrices", "inverse upper-triangular 3x3 batch", """
import json, random, time
from mvla import Matrix, builtin, find_inverse, structure_is
rng, batch = random.Random(1), []
for args in (("Hp", 3), ("Hp", 5), ("Hp", 7), ("Q2",), ("Fp", 5)):
    S = builtin(*args)
    structure_is(S, "superfield")  # the cold check is not timed
    nonzero = [e for e in S.elements if e != S.zero]
    for _ in range(40):
        batch.append(Matrix.from_rows(S, [[rng.choice(nonzero) if i == j else
                                          rng.choice(S.elements) if j > i else S.zero
                                          for j in range(3)] for i in range(3)]))
t0 = time.perf_counter()
inverted = sum(find_inverse(A) is not None for A in batch)
print(json.dumps([time.perf_counter() - t0, {"matrices": len(batch), "inverted": inverted}]))
"""),
    ("linsys", "solve batch H3/H5/H7/Q2/F5", """
import json, random, time
from mvla import LinearSystem, Matrix, builtin, linsys, solve_weak, structure_is
rng, batch = random.Random(1), []
for args in (("Hp", 3), ("Hp", 5), ("Hp", 7), ("Q2",), ("Fp", 5)):
    for rows, cols in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for _ in range(40):
            S = builtin(*args)
            structure_is(S, "superfield")  # the cold check is not timed
            A = Matrix.from_indices(S, rows, cols, [rng.randrange(len(S))
                                                    for _ in range(rows * cols)])
            batch.append(LinearSystem.of(A, [rng.sample(S.elements, rng.randrange(1, 3))
                                             for _ in range(rows)]))
t0 = time.perf_counter()
outs = [solve_weak(s) for s in batch]
dt, counts = time.perf_counter() - t0, {"scaled_systems": 0, "candidates_classified": 0}
scale, classify = linsys.iter_scaled_systems, linsys.classify_candidate
def counted_scale(sys):
    for scaled in scale(sys):
        counts["scaled_systems"] += 1
        yield scaled
def counted_classify(sys, d):
    counts["candidates_classified"] += 1
    return classify(sys, d)
linsys.iter_scaled_systems, linsys.classify_candidate = counted_scale, counted_classify
assert [solve_weak(s) for s in batch] == outs
print(json.dumps([dt, {"solves": len(outs), **counts,
                       "fallbacks": sum(o.note != "" for o in outs)}]))
"""),
    ("matrices", "det 3x3 batch H3/Q2", """
import json, math, random, time
from mvla import Matrix, builtin, det
rng, batch = random.Random(1), []
for args in (("Hp", 3), ("Q2",)):
    for _ in range(250):
        S = builtin(*args)
        batch.append(Matrix.from_rows(S, [[rng.choice(S.elements) for _ in range(3)]
                                          for _ in range(3)]))
t0 = time.perf_counter()
dets = [det(A) for A in batch]
print(json.dumps([time.perf_counter() - t0, {"terms": len(batch) * math.factorial(3),
                                             "distinct": len(set(dets))}]))
"""),
    ("ideals", "all_ideals H5/H7/K/Q2", """
import json, time
from mvla import all_ideals, builtin
batch = [builtin(*args) for _ in range(100) for args in (("Hp", 5), ("Hp", 7), ("K",), ("Q2",))]
t0 = time.perf_counter()
found = [all_ideals(S) for S in batch]
print(json.dumps([time.perf_counter() - t0, {"candidates": sum(2 ** (len(S) - 1) for S in batch),
                                             "ideals": sum(map(len, found))}]))
"""),
    ("linsys", "kernel scan 3x4 H5/H7/F5", """
import json, random, time
from mvla import Matrix, builtin, find_nontrivial_kernel, structure_is
rng, batch = random.Random(1), []
for args in (("Hp", 5), ("Hp", 7), ("Fp", 5)):
    S = builtin(*args)
    structure_is(S, "superfield")  # the cold check is not timed
    batch += [Matrix.from_indices(S, 3, 4, [rng.randrange(len(S)) for _ in range(12)])
              for _ in range(40)]
t0 = time.perf_counter()
outs = [find_nontrivial_kernel(A) for A in batch]
dt = time.perf_counter() - t0
print(json.dumps([dt, {"scans": sum(o.note == "exhaustive" for o in outs),
                       "kernels": sum(o.status == "solved" for o in outs)}]))
"""),
    ("linsys", "kernel route wide H5 3x9/K 3x23", """
import json, random, time
from mvla import Matrix, builtin, find_nontrivial_kernel, structure_is
rng, batch = random.Random(1), []
for args, rows, cols in ((("Hp", 5), 3, 9), (("K",), 3, 23)):
    S = builtin(*args)
    structure_is(S, "superfield")  # the cold check is not timed
    batch += [Matrix.from_indices(S, rows, cols, [rng.randrange(len(S))
                                                  for _ in range(rows * cols)])
              for _ in range(40)]
t0 = time.perf_counter()
outs = [find_nontrivial_kernel(A) for A in batch]
dt = time.perf_counter() - t0
print(json.dumps([dt, {"route": sum(o.note == "constructive" for o in outs),
                       "scans": sum(o.note == "exhaustive" for o in outs),
                       "kernels": sum(o.status == "solved" for o in outs)}]))
"""),
)


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"{cpu}; {os.cpu_count()} cores; {platform.system()} {platform.machine()}"


def identity(checkout):
    """`git describe` of a git checkout; for a copy, the sha256 of its src/mvla/*.py."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True).stdout.strip()
    if git("rev-parse", "--show-toplevel") == str(checkout):
        return git("describe", "--always", "--dirty")
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "mvla").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()


def _env(root, cache):
    """A child's environment: root's src first on the path, and the recording's
    bytecode prefix.  No child writes bytecode, and each reads it only under cache,
    which holds the standard library's alone: a checkout's leftover
    src/mvla/__pycache__ would otherwise read as a faster start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = cache
    return env


def _timed(cmd, root, cache):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(root, cache), capture_output=True, text=True)
    return time.perf_counter() - t0, proc


def _last_json(proc, what):
    """What a child printed last, as JSON; RuntimeError with its stderr's tail if none."""
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{what} printed no result; exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}") from None


def warm_stdlib(root, cache):
    """Fill the empty directory cache with the standard library's bytecode (WARM_CODE)."""
    _, proc = _timed([sys.executable, "-c", f"ROOT = {str(root)!r}" + WARM_CODE], root, cache)
    if proc.returncode != 0:
        raise RuntimeError(f"warming the bytecode prefix exited {proc.returncode}: "
                           f"{proc.stderr[-300:]}")


# -- probes: run(checkout) -> {row name: (layer, unit, value, work units)} ----------------


def workload_probe(workload, traced, cache, checkout):
    _, proc = _timed([sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
                      workload, "--seed", str(SEED), "--trace", str(int(traced))], checkout, cache)
    out = _last_json(proc, f"{workload} (trace {int(traced)})")
    rows = {}
    for name, metric in out["metrics"].items():
        if traced:
            layer = name.split(".", 1)[0]
            work = {k: v["value"] for k, v in out["metrics"].items()
                    if k.startswith(layer + ".") and v["unit"] == "count"}
        else:
            layer, work = "end_to_end", {"queries": out["attempted"], "failed": out["failed"],
                                         "correct": out["correct"]}
        rows[f"{workload}.{name}"] = (layer, metric["unit"], metric["value"], work)
    return rows


def summary_counts(summary):
    """The counts of a pytest summary line, by outcome."""
    return {k: int(n) for n, k in re.findall(
        r"(\d+) (passed|failed|xfailed|xpassed|skipped|deselected|error)", summary)}


def tier1_probe(cache, checkout):
    dt, proc = _timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors"], checkout, cache)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"tier-1 wall time": ("tests", "s", dt, summary_counts(summary))}


def verb_probe(name, argv, cache, checkout):
    code = f"import sys; from mvla.cli import main; sys.exit(main({argv!r}))"
    dt, proc = _timed([sys.executable, "-c", code], checkout, cache)
    return {f"mvla {name}": ("verb", "s", dt, {
        "exit": proc.returncode, "stdout_lines": len(proc.stdout.splitlines()),
        "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()[:16]})}


def cold_probe(cache, checkout):
    code = (f"CHECKS, STRUCTURES, CALLS, MUTANT = {COLD_CHECKS!r}, {COLD_STRUCTURES!r}, "
            f"{COLD_CALLS}, {COLD_MUTANT!r}" + COLD_CODE)
    _, proc = _timed([sys.executable, "-c", code], checkout, cache)
    return {key: ("axioms", "us", us, {"checked": work}) if key.startswith("cold") else
            ("structures", "us", us, {"elements": work})
            for key, (us, work) in _last_json(proc, "cold checks").items()}


def timed_call_probe(layer, name, code, cache, checkout):
    _, proc = _timed([sys.executable, "-c", code], checkout, cache)
    dt, work = _last_json(proc, name)
    return {name: (layer, "s", dt, work)}


def src_lines_probe(checkout):
    lines = sum(path.read_bytes().count(b"\n")
                for path in sorted((checkout / "src" / "mvla").glob("*.py")))
    return {"src_lines": ("repo", "lines", lines, {"lines": lines})}


def probes(cache):
    """Every probe as (label, runs, run), in recording order."""
    return ([(f"workload {w} trace={int(t)}", REPEATS if t else WORKLOAD_PAIRS,
              functools.partial(workload_probe, w, t, cache))
             for w in WORKLOADS for t in (False, True)]
            + [("tier-1", TIER1_REPEATS, functools.partial(tier1_probe, cache))]
            + [(f"mvla {name}", REPEATS, functools.partial(verb_probe, name, argv, cache))
               for name, argv in VERBS]
            + [("cold checks", REPEATS, functools.partial(cold_probe, cache))]
            + [(name, REPEATS, functools.partial(timed_call_probe, layer, name, code, cache))
               for layer, name, code in TIMED_CALLS]
            + [("src_lines", 1, src_lines_probe)])


# -- the runner -------------------------------------------------------------------------


def _quartiles(values):
    """(q1, median, q3) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def _row(name, ours, theirs):
    """The row name of root's runs ours, and, with a parent, of its runs theirs (an
    error's text where a run failed), paired by index."""
    layer, unit = ours[0][name][:2]
    values, works = [run[name][2] for run in ours], [run[name][3] for run in ours]
    q1, median, q3 = _quartiles(values)
    row = {"layer": layer, "name": name, "median": median, "q1": q1, "q3": q3, "unit": unit,
           "repeats": len(values), "work": works[0],
           "work_stable": all(w == works[0] for w in works)}
    if not theirs:
        return row
    got = [run.get(name) if isinstance(run, dict) else None for run in theirs]
    pairs = [(v, g[2]) for v, g in zip(values, got) if g is not None]
    if pairs:
        p1, pmedian, p3 = _quartiles([p for _, p in pairs])
        pwork = next(g for g in got if g is not None)[3]
    else:
        p1 = pmedian = p3 = None
        pwork = {"error": next((run for run in theirs if isinstance(run, str)),
                               "the parent gives no such row")}
    return {**row, "parent_median": pmedian, "parent_q1": p1, "parent_q3": p3,
            "parent_work": pwork, "pairs": len(pairs), "root_lower": sum(v < p for v, p in pairs),
            "ties": sum(v == p for v, p in pairs)}


def record(table, root, parent=None):
    """Run each probe (label, runs, run) of table runs times on root and, with a parent,
    as often on the parent, pair i in the order PAIR_ORDER[i % 2]; the rows of its runs.
    A run that fails on the parent leaves its error's text in place of its rows."""
    rows = []
    for label, runs, run in table:
        print(label, file=sys.stderr, flush=True)
        ours, theirs = [], []
        for i in range(runs):
            for side in PAIR_ORDER[i % 2] if parent else ("root",):
                if side == "root":
                    ours.append(run(root))
                    continue
                try:
                    theirs.append(run(parent))
                except RuntimeError as exc:
                    theirs.append(str(exc))
        rows += [_row(name, ours, theirs) for name in ours[0]]
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--parent", type=Path, default=None,
                    help="a parent checkout: every row alternates its runs with it")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    parent = args.parent.resolve() if args.parent else None
    with tempfile.TemporaryDirectory(prefix="record-bench-pycache-") as cache:
        print("standard library bytecode", file=sys.stderr, flush=True)
        warm_stdlib(root, cache)
        rows = record(probes(cache), root, parent)
    head = {"machine": machine(), "python": platform.python_version()}
    pair = {"parent_commit": identity(parent), "pair_order": PAIR_ORDER} if parent else {}
    doc = {"pr": args.pr, "commit": identity(root), **pair, "seed": SEED, **head,
           "rows": [{**head, **row} for row in rows]}
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(rows)} rows written to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
