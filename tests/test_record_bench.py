"""The benchmark recorder's runner, driven by stub probes (no child process)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
rb = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rb)

ROOT, PARENT = Path("/checkouts/root"), Path("/checkouts/parent")
TODAY_KEYS = {"layer", "name", "median", "q1", "q3", "unit", "repeats", "work", "work_stable"}
PAIR_KEYS = {"parent_median", "parent_q1", "parent_q3", "parent_work", "pairs", "root_lower",
             "ties"}


def stub(values, calls, fail_on=None):
    """A probe yielding rows "a" and "b" from values[checkout], one value per run, in
    order; it logs each checkout it runs on, and fails on fail_on."""
    left = {checkout: list(vs) for checkout, vs in values.items()}

    def run(checkout):
        calls.append(checkout)
        if checkout == fail_on:
            raise RuntimeError("child printed no result; exit 1: Traceback ... KeyError")
        v = left[checkout].pop(0)
        return {"a": ("layer", "s", v, {"runs": 1}), "b": ("other", "us", 2 * v, {"n": 7})}
    return run


def test_the_side_that_runs_first_switches_in_each_pair():
    calls = []
    run = stub({ROOT: [1, 2, 3, 4], PARENT: [5, 6, 7, 8]}, calls)
    rb.record([("stub", 4, run)], ROOT, PARENT)
    firsts = [calls[i] for i in range(0, len(calls), 2)]
    assert firsts == [ROOT, PARENT, ROOT, PARENT]
    assert all({calls[i], calls[i + 1]} == {ROOT, PARENT} for i in range(0, len(calls), 2))


def test_pair_statistics_match_hand_computed_values():
    calls = []
    root = [3.0, 1.0, 4.0, 1.0, 5.0]
    parent = [2.0, 7.0, 4.0, 8.0, 9.0]
    a, b = rb.record([("stub", 5, stub({ROOT: root, PARENT: parent}, calls))], ROOT, PARENT)
    assert (a["name"], a["layer"], a["unit"], b["name"], b["layer"], b["unit"]) == (
        "a", "layer", "s", "b", "other", "us")
    # sorted root 1 1 3 4 5, parent 2 4 7 8 9; inclusive quartiles at 1/4 and 3/4 of the range
    assert (a["q1"], a["median"], a["q3"]) == (1.0, 3.0, 4.0)
    assert (a["parent_q1"], a["parent_median"], a["parent_q3"]) == (4.0, 7.0, 8.0)
    # pairs (3, 2) (1, 7) (4, 4) (1, 8) (5, 9): root lower in 3, equal in 1
    assert (a["pairs"], a["root_lower"], a["ties"]) == (5, 3, 1)
    assert (b["median"], b["parent_median"], b["root_lower"], b["ties"]) == (6.0, 14.0, 3, 1)
    assert a["repeats"] == 5 and a["work"] == a["parent_work"] == {"runs": 1}
    assert a["work_stable"] and b["work"] == {"n": 7}


def test_a_parent_failure_gives_no_parent_median_and_the_error_tail():
    calls = []
    (row, _) = rb.record([("stub", 3, stub({ROOT: [1, 2, 3]}, calls, fail_on=PARENT))],
                         ROOT, PARENT)
    assert row["median"] == 2 and row["parent_median"] is None
    assert row["parent_q1"] is None and row["parent_q3"] is None
    assert row["parent_work"] == {"error": "child printed no result; exit 1: "
                                           "Traceback ... KeyError"}
    assert (row["pairs"], row["root_lower"], row["ties"]) == (0, 0, 0)
    assert calls.count(PARENT) == 3


def test_a_root_failure_stops_the_recording():
    with pytest.raises(RuntimeError, match="no result"):
        rb.record([("stub", 2, stub({PARENT: [1, 2]}, [], fail_on=ROOT))], ROOT, PARENT)


def test_without_a_parent_rows_keep_todays_keys():
    calls = []
    rows = rb.record([("one", 3, stub({ROOT: [2, 1, 2]}, calls)),
                      ("two", 1, stub({ROOT: [5]}, calls))], ROOT)
    assert calls == [ROOT] * 4
    assert [set(row) for row in rows] == [TODAY_KEYS] * 4
    stats = [(row["name"], row["median"], row["q1"], row["q3"], row["repeats"]) for row in rows]
    assert stats == [("a", 2, 1.5, 2.0, 3), ("b", 4, 3.0, 4.0, 3), ("a", 5, 5, 5, 1), ("b", 10, 10, 10, 1)]
    assert all(set(row) == TODAY_KEYS | PAIR_KEYS
               for row in rb.record([("one", 2, stub({ROOT: [1, 2], PARENT: [1, 2]}, []))],
                                    ROOT, PARENT))


def test_unstable_work_units_are_flagged():
    def run(checkout, n=iter(range(3))):
        return {"a": ("layer", "s", 1.0, {"count": next(n) // 2})}
    (row,) = rb.record([("stub", 3, run)], ROOT)
    assert row["work"] == {"count": 0} and not row["work_stable"]


def test_summary_counts_read_every_outcome():
    line = ("3 failed, 830 passed, 2 skipped, 1 deselected, 1 xfailed, 1 xpassed, "
            "2 errors in 130.20s (0:02:10)")
    assert rb.summary_counts(line) == {"failed": 3, "passed": 830, "skipped": 2,
                                       "deselected": 1, "xfailed": 1, "xpassed": 1, "error": 2}


def test_every_probe_has_a_label_a_run_count_and_a_runner():
    table = rb.probes("cache")
    labels = [label for label, _, _ in table]
    assert len(labels) == len(set(labels))
    runs = {label: n for label, n, _ in table}
    assert [runs[f"workload {w} trace=0"] for w in rb.WORKLOADS] == [rb.WORKLOAD_PAIRS] * 3
    assert runs["tier-1"] == rb.TIER1_REPEATS and runs["src_lines"] == 1
    assert "kernel scan 3x4 H5/H7/F5" in runs


def test_src_lines_counts_the_library_lines(tmp_path):
    (tmp_path / "src" / "mvla").mkdir(parents=True)
    (tmp_path / "src" / "mvla" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "mvla" / "b.txt").write_text("not counted\n")
    assert rb.src_lines_probe(tmp_path) == {"src_lines": ("repo", "lines", 2, {"lines": 2})}
