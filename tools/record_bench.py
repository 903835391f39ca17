"""Record a checkout's benchmark rows into one BENCH_<pr>.json file.

    python3 tools/record_bench.py --pr N [--root DIR] [--parent DIR]

`--root` is the source checkout to measure (default: the one holding this
script), so the same recorder can measure an older checkout of the project.
The file is written to `<root>/BENCH_<N>.json`. Everything runs from that
checkout's own files:

- the three `perfbench/run.py` workloads, untraced (end-to-end metrics) and
  traced (per-layer metrics), REPEATS runs each at SEED;
- the tier-1 test suite (`python -m pytest -q --continue-on-collection-errors`
  with `src` on the path), timed as one wall time per run, TIER1_REPEATS runs;
- the slow CLI verbs, each run REPEATS times in a fresh interpreter;
- the cold structure check every library entry point pays: `builtin()` and
  `structure_is` on a fresh structure, for each of COLD_STRUCTURES under each of
  COLD_KINDS, COLD_CALLS calls in each of REPEATS fresh interpreters; the row is
  the median in microseconds, and its work units are `verify_axioms(...).checked`;
  the same for `builtin("Hp", 5)` as a hyperfield (exact distributivity's
  whole-table test); beside them `builtin()` alone for each of COLD_STRUCTURES
  (work units: the carrier size), and `structure_is(S, "superfield")` alone on
  a fresh COLD_MUTANT, built before the clock starts, which fails at its first
  M3-mult witness (work units: the `checked` count and first witness of its
  report with witness limit 1);
- the irreducibility scans of 1+2X^2 over `builtin("Hp", 5)`, of 1+X+X^4 over
  `builtin("Fp", 2)` (the shape of the `extension` workload's slowest
  irreducibility queries) and of 1+X^2 over `builtin("Fp", 3)` (the shape of its
  F3 quadratics), `polys._irreducible` timed around the call in each of REPEATS
  fresh interpreters; the work units of each are the verdict and, over H5, the
  number of ideal slices its table holds afterwards, over the fields F2 and F3
  the division steps it charges, counted in a second, untimed pass;
- the quotient searches `find_quotient_superfield(builtin("Hp", 5), 2)` (80
  rejected quadratics) and `find_quotient_superfield(builtin("Hp", 3), 3)` (36
  rejected cubics), each timed around the call in each of REPEATS fresh
  interpreters; the work units of each say whether it found a quotient and how
  many candidates it rejected, counted in a second, untimed pass;
- M3 on the sum tables of `fn_space(builtin("Hp", 3), 4)` (81 vectors, two
  lanes of the rotation test) and of `fn_space(builtin("K"), 5)` (32 vectors,
  one lane), the private `axioms._scan_assoc` timed around the call; MV0-MV3 on
  `fn_space(builtin("Hp", 3), 4)`, the private `axioms._scan_action` timed
  around the call on the view that the vector multigroup scan (untimed) has
  just checked, as in `verify_vspace`; and `verify_vspace` on
  `fn_space(builtin("Hp", 3), 5)` (243 vectors); each in REPEATS fresh
  interpreters; the work units of each are the instances it counted as
  `checked`;
- weak distributivity on the 9-element quotient F3[X]/(1+X^2), the private
  `axioms._scan_weak_dist` timed over WEAK_CALLS views of it built before the
  clock starts (the row is the time of one call), and `verify_axioms` on
  `builtin("Fp", 43)` as a hyperfield (both distributivity laws slab by slab),
  timed around the call; each in REPEATS fresh interpreters; the work units of
  each are the instances it counted as `checked`;
- `dimension` on `fn_space(builtin("Hp", 3), 2)` and `fn_space(builtin("Fp", 3),
  2)` under their `is_linearly_closed(F, 2, 3)` certificates (built before the
  clock starts), and `is_linearly_independent` on every triple of nonzero vectors
  of `fn_space(builtin("Hp", 5), 2)`, each timed around the calls in REPEATS
  fresh interpreters; the work units are the dimensions and the subsets of size
  dimension + 1 that `dimension` rechecks, and the number of dependent triples;
- `span` on 60 plane spans in the shape of the `vspace` workload's: 20 each
  over `fn_space(F, 2)` for F = H3, Q2 and F3, of 1 and 2 nonzero generators in
  turn from one seeded draw, each on a fresh plane built before the clock
  starts, timed around the spans in each of REPEATS fresh interpreters; the
  work units are the spans, how many certificates passed, and the
  subspace-predicate evaluations, counted in a second, untimed pass;
- `find_inverse` over one seeded batch of 200 upper-triangular 3x3 matrices
  with a nonzero diagonal, 40 each over H3, H5, H7, Q2 and F5 (the shape of the
  `linsys` workload's inverse queries), timed around the batch in each of
  REPEATS fresh interpreters; its work units count the matrices inverted;
- `solve_weak` over one seeded batch of 800 systems in the shape of the `linsys`
  workload's solves: 40 each over H3, H5, H7, Q2 and F5 and in each of the shapes
  2x2, 2x3, 3x3 and 3x4, right sides of 1 or 2 elements, each system over a fresh
  structure whose `structure_is(S, "superfield")` check runs before the clock
  starts; timed around the batch in each of REPEATS fresh interpreters; its work
  units are the solves, the scaled systems yielded and the candidates classified
  (both counted in a second, untimed pass), and the solves that ran the exhaustive
  fallback;
- `det` over one seeded batch of 500 3x3 matrices, 250 each over H3 and Q2 with
  entries drawn from the carrier, each over a fresh structure built before the
  clock starts, timed around the batch in each of REPEATS fresh interpreters; its
  work units are the determinant terms (n! per matrix) and the distinct
  determinants;
- `all_ideals` over 100 rounds of fresh `builtin("Hp", 5)`, `builtin("Hp", 7)`,
  `builtin("K")` and `builtin("Q2")`, built before the clock starts, timed around
  the calls in each of REPEATS fresh interpreters; its work units are the
  candidate subsets (2^(k-1) per structure) and the ideals found;
- `find_nontrivial_kernel` over one seeded batch of 120 3x4 matrices, 40 each
  over H5, H7 and F5, drawn unfiltered (before the three-row constructions were
  deleted, the batch kept only the matrices they missed), each with at most
  4096 vectors, so that every call reads its answer off the value masks of the
  exhaustive scan; timed around the batch in each of REPEATS fresh
  interpreters; its work units are the scans run and the kernels found;
- `find_nontrivial_kernel` over one seeded batch of 80 matrices past 4096
  vectors, 40 H5 3x9 and 40 K 3x23, which the scaled route answers; timed
  around the batch in each of REPEATS fresh interpreters; its work units are
  the route answers, the scans run and the kernels found;
- the size of the library: `repo/src_lines`, the line count of `src/mvla/*.py`
  (what `cat src/mvla/*.py | wc -l` prints), which is also its work units.

Every child process writes no bytecode and reads it only from one directory
made for the recording, so a checkout's leftover `__pycache__` cannot read as a
faster start.  Before the first row, one child fills that directory with the
bytecode of the standard library modules that `mvla`, `perfbench` and pytest
import, and of nothing else: each child then compiles the project's own
modules (`mvla` and `perfbench`) afresh, but not the standard library, whose
compile time would dilute a change to the project's start-up cost.

Each row holds the machine, the Python version, a layer, a name, the median
over the runs, its unit, the number of runs and the work units behind it.
Work units are deterministic counts, so two recordings can tell a speedup
from noise: the queries a workload ran, a layer's counters from the traced
run, the tests that passed, a verb's exit code and a digest of its output.
`work_stable` says whether every run gave the same work units.

`--parent DIR` names a second checkout, the parent of the change being
recorded.  Each verb row and each timed-call row then runs its REPEATS fresh
interpreters alternately on DIR and on `--root` (parent first), with the same
code and bytecode prefix, and stores the parent's median and the work units of
its first run beside the row (`parent_median`, `parent_work`; a median of None
and the error's tail when the parent cannot run a row).  Drift of the host then
reads on both sides alike, so such a row is a before/after pair, not two
recordings taken at different times.
"""

from __future__ import annotations

import argparse
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
SEED = 1

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
    ("linsys", "kernel fallback wide H5/H7/F5", """
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
print(json.dumps([dt, {"fallbacks": sum(o.note != "constructive" for o in outs),
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


def warm_stdlib(root, cache):
    """Fill the empty directory cache with the standard library's bytecode (WARM_CODE)."""
    _, proc = _timed([sys.executable, "-c", f"ROOT = {str(root)!r}" + WARM_CODE], root, cache)
    if proc.returncode != 0:
        raise RuntimeError(f"warming the bytecode prefix exited {proc.returncode}: "
                           f"{proc.stderr[-300:]}")


def _row(layer, name, values, unit, works):
    return {"layer": layer, "name": name, "median": statistics.median(values), "unit": unit,
            "repeats": len(values), "work": works[0],
            "work_stable": all(w == works[0] for w in works)}


def workload_rows(root, cache, workload, seed, repeats, traced):
    runs = []
    for _ in range(repeats):
        _, proc = _timed([sys.executable, str(root / "perfbench" / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--trace", str(int(traced))], root,
                         cache)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise RuntimeError(f"{workload} (trace {int(traced)}) printed no result; "
                               f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        runs.append(json.loads(lines[-1]))
    names = runs[0]["metrics"]
    rows = []
    for name, spec in names.items():
        values = [r["metrics"][name]["value"] for r in runs]
        if traced:
            layer = name.split(".", 1)[0]
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if k.startswith(layer + ".") and v["unit"] == "count"} for r in runs]
        else:
            layer = "end_to_end"
            counts = [{"queries": r["attempted"], "failed": r["failed"],
                       "correct": r["correct"]} for r in runs]
        rows.append(_row(layer, f"{workload}.{name}", values, spec["unit"], counts))
    return rows


def tier1_row(root, cache, repeats):
    times, works = [], []
    for _ in range(repeats):
        dt, proc = _timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], root, cache)
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        times.append(dt)
        works.append({k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|xfailed|error)",
                                                       tail)})
    return _row("tests", "tier-1 wall time", times, "s", works)


def _alternating(run, root, parent, repeats):
    """run(checkout) -> (seconds, work units), repeats times on root, each after one run
    on parent when there is one: root's results, and parent's (empty without one)."""
    ours, theirs = [], []
    for _ in range(repeats):
        if parent is not None:
            theirs.append(run(parent))
        ours.append(run(root))
    return ours, theirs


def _paired(layer, name, unit, ours, theirs):
    """The row of root's runs, with the parent's median and first work units beside it."""
    row = _row(layer, name, [dt for dt, _ in ours], unit, [w for _, w in ours])
    if theirs:
        times = [dt for dt, _ in theirs if dt is not None]
        row.update(parent_median=statistics.median(times) if times else None,
                   parent_work=theirs[0][1])
    return row


def verb_rows(root, cache, repeats, parent=None):
    rows = []
    for name, argv in VERBS:
        code = f"import sys; from mvla.cli import main; sys.exit(main({argv!r}))"

        def run(checkout):
            dt, proc = _timed([sys.executable, "-c", code], checkout, cache)
            return dt, {"exit": proc.returncode,
                        "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()[:16],
                        "stdout_lines": len(proc.stdout.splitlines())}

        rows.append(_paired("verb", f"mvla {name}", "s",
                            *_alternating(run, root, parent, repeats)))
    return rows


def cold_rows(root, cache, repeats):
    code = (f"CHECKS, STRUCTURES, CALLS, MUTANT = {COLD_CHECKS!r}, {COLD_STRUCTURES!r}, "
            f"{COLD_CALLS}, {COLD_MUTANT!r}" + COLD_CODE)
    runs = []
    for _ in range(repeats):
        _, proc = _timed([sys.executable, "-c", code], root, cache)
        if proc.returncode != 0:
            raise RuntimeError(f"cold checks exited {proc.returncode}: {proc.stderr[-300:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    units = {"cold": "checked", "builtin": "elements"}
    return [_row("axioms" if key.startswith("cold") else "structures", key,
                 [r[key][0] for r in runs], "us",
                 [{units[key.split()[0]]: r[key][1]} for r in runs]) for key in runs[0]]


def timed_call_rows(root, cache, repeats, parent=None):
    rows = []
    for layer, name, code in TIMED_CALLS:

        def run(checkout):
            _, proc = _timed([sys.executable, "-c", code], checkout, cache)
            if proc.returncode == 0:
                return json.loads(proc.stdout.strip().splitlines()[-1])
            if checkout == parent:  # a row the parent cannot run has no parent median
                return None, {"error": proc.stderr.strip()[-300:]}
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr[-300:]}")

        rows.append(_paired(layer, name, "s", *_alternating(run, root, parent, repeats)))
    return rows


def src_lines_row(root):
    lines = sum(path.read_bytes().count(b"\n")
                for path in sorted((root / "src" / "mvla").glob("*.py")))
    return _row("repo", "src_lines", [lines], "lines", [{"lines": lines}])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--parent", type=Path, default=None,
                    help="a parent checkout: verb and timed-call rows alternate with it")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    parent = args.parent.resolve() if args.parent else None

    def describe(checkout):
        return subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                              capture_output=True, text=True).stdout.strip() or None
    rows = []
    with tempfile.TemporaryDirectory(prefix="record-bench-pycache-") as cache:
        print("standard library bytecode", file=sys.stderr, flush=True)
        warm_stdlib(root, cache)
        for workload in WORKLOADS:
            for traced in (False, True):
                print(f"workload {workload} trace={int(traced)}", file=sys.stderr, flush=True)
                rows += workload_rows(root, cache, workload, SEED, REPEATS, traced)
        print("tier-1", file=sys.stderr, flush=True)
        rows.append(tier1_row(root, cache, TIER1_REPEATS))
        print("cli verbs", file=sys.stderr, flush=True)
        rows += verb_rows(root, cache, REPEATS, parent)
        print("cold checks", file=sys.stderr, flush=True)
        rows += cold_rows(root, cache, REPEATS)
        print("irreducibility scans, quotient searches, axiom scans, inverse and kernel batches",
              file=sys.stderr, flush=True)
        rows += timed_call_rows(root, cache, REPEATS, parent)
    rows.append(src_lines_row(root))
    head = {"machine": machine(), "python": platform.python_version()}
    pair = {"parent_commit": describe(parent)} if parent else {}
    doc = {"pr": args.pr, "commit": describe(root), **pair, "seed": SEED, **head,
           "rows": [{**head, **row} for row in rows]}
    out = root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(rows)} rows written to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
