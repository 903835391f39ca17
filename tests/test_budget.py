"""The search limit: its scope, its reach into a library search, and the cap
keywords it replaced."""

import inspect
import re

import pytest

import mvla
from mvla import (BlowupError, Matrix, Poly, builtin, characteristic, det,
                  find_nontrivial_kernel, is_irreducible, pdivmod, search_budget)
from mvla.errors import _limit


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
