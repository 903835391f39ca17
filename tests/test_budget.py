"""The search limit: its scope, its reach into a library search, and the cap
keywords it replaced."""

import inspect
import re
import time

import pytest

import mvla
from mvla import (BlowupError, Matrix, Poly, all_ideals, builtin, characteristic, det,
                  find_nontrivial_kernel, is_almost_full, is_irreducible, pdivmod,
                  quotient_pair, search_budget)
from mvla.errors import _limit
from mvla.extensions import generation_degree


def test_scopes_nest_and_restore_the_limit(H3):
    assert _limit.get() == 10 ** 7
    with search_budget(50):
        assert _limit.get() == 50
        with search_budget(3):
            assert _limit.get() == 3
        assert _limit.get() == 50
        with pytest.raises(BlowupError, match="determinant terms: 2 exceeds budget 1"), \
                search_budget(1):
            det(Matrix.identity(H3, 2))
        assert _limit.get() == 50
    assert _limit.get() == 10 ** 7


def test_the_limit_bounds_a_search_per_call(H3):
    # no constructive kernel: the exhaustive scan covers 3**5 vectors
    A = Matrix.from_rows(H3, [(1, 2, 2, 1, 2), (1, 1, 1, 1, 2), (0, 2, 0, 2, 0)])
    with search_budget(3 ** 5 - 1):
        out = find_nontrivial_kernel(A)
        assert (out.status, out.note) == ("inconclusive", "kernel scan of 243 exceeds cap")
    with search_budget(3 ** 5):
        # not a meter: each search gets the whole limit
        for _ in range(2):
            assert find_nontrivial_kernel(A).note == "exhaustive"
    # every pair of 1+X^3 by 1+X: 18 quotients of degree 2, each charged 3 remainders
    f, g = Poly(H3, [1, 0, 0, 1]), Poly(H3, [1, 1])
    with search_budget(54):
        assert len(pdivmod(f, g, all_pairs=True)) == 3
    with search_budget(53), pytest.raises(
            BlowupError, match="division search steps: 54 exceeds budget 53"):
        pdivmod(f, g, all_pairs=True)


def test_irreducible_charges_each_slice_it_builds(H3):
    # 1+2X^2 over H3 builds 12 slices of 3^3 polynomials, one per class of unit
    # multiples u and -u: the edge is 12 * 27 = 324
    f = Poly(H3, [1, 0, 2])
    with search_budget(324):
        assert is_irreducible(f)
    with search_budget(323), pytest.raises(
            BlowupError, match="ideal slice polynomials: 324 exceeds budget 323"):
        is_irreducible(f)


def test_characteristic_charges_the_window_cells():
    # the cells a + 1 of the window's k elements (LO..HI and inf), before they are built
    trop = builtin("Trop")
    with search_budget(1), pytest.raises(
            BlowupError, match="window characteristic cells: 302 exceeds budget 1"):
        characteristic(trop, window=(-150, 150))
    with search_budget(12):
        assert characteristic(trop, window=(-5, 5)) == 2
    with search_budget(11), pytest.raises(BlowupError):
        characteristic(trop, window=(-5, 5))


def test_extension_searches_charge_before_they_scan(F3):
    # GF(9)|F3, q = 3: X-bar generates in degree 1, so the generation degree charges
    # q + q^2 = 12 coefficient tuples and almost-fullness C(3, 3) * q^3 = 27 instances
    # (12 first, without a given degree); the ideal scan charges the 2^8 subsets with 0
    K, pair, gamma = quotient_pair(F3, Poly(F3, (1, 0, 1)))
    searches = (
        (lambda: generation_degree(pair, gamma), 12, "generation degree coefficient tuples"),
        (lambda: is_almost_full(pair, gamma, gen_degree=1), 27, "almost-fullness instances"),
        (lambda: is_almost_full(pair, gamma), 27, "almost-fullness instances"),
        (lambda: all_ideals(K), 256, "ideal candidate subsets"),
    )
    for search, edge, what in searches:
        with search_budget(edge):
            search()
        with search_budget(edge - 1), pytest.raises(
                BlowupError, match=f"{what}: {edge} exceeds budget {edge - 1}"):
            search()
        t0 = time.monotonic()
        with search_budget(1), pytest.raises(BlowupError, match="exceeds budget 1$"):
            search()
        assert time.monotonic() - t0 < 1


def test_unbounded_extension_searches_stop_at_the_budget():
    # GF(25)|F5: the powers of 1 never cover K, so the generation degree would scan
    # 5^(n+1) tuples for every n up to 25 (more than 30 s when nothing was charged);
    # at the budget 10^4 it stops at n = 5, 5 + 25 + ... + 5^6 = 19530 tuples in all
    F5 = builtin("Fp", 5)
    K, pair, _ = quotient_pair(F5, Poly(F5, (2, 0, 1)))
    t0 = time.monotonic()
    with search_budget(10 ** 4), pytest.raises(
            BlowupError, match="generation degree coefficient tuples: 19530 exceeds budget"):
        is_almost_full(pair, pair.embedding(1))
    assert time.monotonic() - t0 < 1
    t0 = time.monotonic()
    with pytest.raises(BlowupError,
                       match=f"ideal candidate subsets: {2 ** 24} exceeds budget {10 ** 7}"):
        all_ideals(K)
    assert time.monotonic() - t0 < 1


_CAP_KEYWORD = re.compile(r".*_cap|budget|bundle_bound|max_terms")


def test_no_exported_function_takes_a_cap_keyword():
    seen = 0
    for name, obj in vars(mvla).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj):
            funcs = [f for _, f in inspect.getmembers(obj)
                     if inspect.isfunction(f) or inspect.ismethod(f)]
        else:
            funcs = [obj] if inspect.isfunction(obj) else []
        for f in funcs:
            seen += 1
            params = inspect.signature(f).parameters
            assert not [p for p in params if _CAP_KEYWORD.fullmatch(p)], (name, f.__name__)
    assert seen > 100
