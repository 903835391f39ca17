"""The search limit: its scope, its reach into a library search, and the cap
keywords it replaced."""

import functools
import inspect
import random
import re
import time
from pathlib import Path

import pytest

import mvla
from mvla import (BlowupError, LinearSystem, Matrix, Poly, PolySet, all_ideals, builtin,
                  characteristic, det, dimension, find_basis, find_inverse, find_irreducible,
                  find_nontrivial_kernel, find_quotient_superfield, fn_space, is_almost_full,
                  is_effective_root, is_irreducible, is_linearly_closed,
                  is_linearly_independent, mmul, pdivmod, pmul_fold, quotient_pair,
                  search_budget, solve_weak, strict_ring, verify_axioms)
from mvla.errors import _limit
from mvla.extensions import generation_degree
from mvla.vspaces import _bundles


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
    # 3**5 vectors, at most 4096: the kernel search scans them at once
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


def test_irreducible_charges_each_slice_it_builds(H3, H5):
    # 1+2X^2 builds one slice of k^3 polynomials per class of unit multiples c*u of the
    # u of valuation 0: 8 over H3 (u and -u) and 24 over H5 (4 per class), so the
    # edges are 8 * 27 = 216 and 24 * 125 = 3000
    for f, edge in ((Poly(H3, [1, 0, 2]), 216), (Poly(H5, [1, 0, 2]), 3000)):
        with search_budget(edge):
            assert is_irreducible(f)
        with search_budget(edge - 1), pytest.raises(
                BlowupError, match=f"ideal slice polynomials: {edge} exceeds budget {edge - 1}"):
            is_irreducible(f)


def test_irreducible_charges_each_divisor_it_tries_over_a_field(F2):
    # over a field the scan divides by the u of degree <= deg f // 2 that are nonzero at
    # f's valuation, each charged its (deg f + 1 - e) * e division steps at degree e: the
    # irreducible 1+X+X^7 tries the 1, 2 and 4 u of degree 1 to 3 with constant term 1,
    # so the edge is 1 * 7 * 1 + 2 * 6 * 2 + 4 * 5 * 3 = 91
    f = Poly(F2, [1, 1, 0, 0, 0, 0, 0, 1])
    with search_budget(91):
        assert is_irreducible(f)
    with search_budget(90), pytest.raises(
            BlowupError, match="irreducibility division steps: 91 exceeds budget 90"):
        is_irreducible(f)
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert ('"irreducibility division steps", so 1+X+X^7 over F2 charges '
            '1 * 7 * 1 + 2 * 6 * 2 + 4 * 5 * 3 = 91 ' in readme)


def test_readme_states_the_slice_budget_of_the_quadratics(monkeypatch, H3, H5):
    # the README's budget example, recomputed: slices built by 1+2X^2 times k^3
    import mvla.polys as polys
    built = []
    kernel = polys._ideal_members_bounded

    def counting(u, *bounds):
        built.append(u)
        return kernel(u, *bounds)

    monkeypatch.setattr(polys, "_ideal_members_bounded", counting)
    figures = []
    for S in (H3, H5):
        built.clear()
        assert is_irreducible(Poly(S, [1, 0, 2]))
        figures.append(f"{len(built)} * {len(S) ** 3} = {len(built) * len(S) ** 3}")
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert "1+2X^2 over H3 charges {} and over H5 {};".format(*figures) in readme


def test_product_fold_charges_the_members_it_collects(H3):
    # (1+X)(2+X) has 6 members, and their products by 1+X collect 8: the edge is 8
    fs = [Poly(H3, (1, 1)), Poly(H3, (2, 1)), Poly(H3, (1, 1))]
    with search_budget(8):
        assert len(pmul_fold(fs)) == 8
    with search_budget(7), pytest.raises(
            BlowupError, match="product fold members: 8 exceeds budget 7"):
        pmul_fold(fs)


def test_independence_charges_each_tuple_of_effective_sets_it_visits(H3):
    # an independent pair walks every tuple of the g distinct effective sets of the
    # bundles, g prefixes and g^2 pairs; a dependent set stops at its first witness
    g = len({H3.sum_of([1 << H3.index(x) for x in b]) for b in _bundles(H3, 2)})
    V, edge = fn_space(H3, 2), g + g * g
    with search_budget(edge):
        assert is_linearly_independent(V, [(1, 0), (0, 1)]) == (True, None)
    with search_budget(edge - 1), pytest.raises(
            BlowupError, match=f"independence bundle tuples: {edge} exceeds budget {edge - 1}"):
        is_linearly_independent(V, [(1, 0), (0, 1)])
    # find_basis starts from all 9 vectors, whose walk could visit g + ... + g^9
    # tuples; it stops at a witness long before, so its budget is far below that
    basis = find_basis(V, V.vectors)
    with search_budget(2 * edge):
        assert find_basis(V, V.vectors) == basis
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    assert f"an independent pair over H3 charges {g} + {g * g} = {edge}." in readme


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


def _nonzero_rows(S, rows, cols, seed=0):
    """rows x cols random nonzero elements of S, as lists."""
    rng = random.Random(seed)
    nonzero = [e for e in S.elements if e != S.zero]
    return [[rng.choice(nonzero) for _ in range(cols)] for _ in range(rows)]


def _nonzero_matrix(S, rows, cols, seed=0):
    return Matrix.from_rows(S, _nonzero_rows(S, rows, cols, seed))


def test_budget_one_stops_every_enumerating_function(H3, H5, H7):
    """Every exported function that enumerates, on an input whose run at the default
    budget takes more than 1 s, stops within 1 s under budget 1 and names its bound.
    The seconds after each input are its default run on one 2-core host (Python
    3.11), to its answer or to its BlowupError."""
    F5 = builtin("Fp", 5)
    _, gf25, _ = quotient_pair(F5, Poly(F5, (2, 0, 1)))
    H5_cubed = (fn_space(H5, 3), is_linearly_closed(H5, 2, 3))
    searches = [
        (det, (_nonzero_matrix(H3, 9, 9),), "determinant terms"),  # 1.4 s
        (mmul, (_nonzero_matrix(H3, 200, 200), _nonzero_matrix(H3, 200, 200, 1)),
         "matrix product entry products"),  # 1.6 s
        (find_inverse, (_nonzero_matrix(H7, 6, 6),), "inverse search tables"),  # 2.7 s
        (functools.partial(pdivmod, all_pairs=True), (Poly(H3, [1] * 12), Poly(H3, (1, 1))),
         "division search steps"),  # 1.8 s
        (pmul_fold, ([Poly(H3, (1, 1))] * 10,), "poly box members"),  # 1.7 s
        (is_irreducible, (Poly(H5, (1, 0, 0, 1)),), "ideal slice polynomials"),  # 3.9 s
        # irreducible: refused at the default budget among the u of degree 15, after 1.0 s
        (is_irreducible, (Poly(builtin("Fp", 2), [1, 0, 1] + [0] * 32 + [1]),),
         "irreducibility division steps"),
        # 0 is no root: every g of degree 10 over F3 is tried
        (is_effective_root, (Poly(builtin("Fp", 3), [1, 0, 1] + [0] * 8 + [1]), 0),
         "effective root candidates"),  # 1.5 s
        (find_irreducible, (H5, 3), "ideal slice polynomials"),  # 4.0 s
        (find_quotient_superfield, (H7, 2), "ideal slice polynomials"),  # 7.7 s
        (all_ideals, (strict_ring(19),), "ideal candidate subsets"),  # 2.4 s
        # GF(25)|F5 at 1: refused at the default budget after 5.0 s
        (generation_degree, (gf25, gf25.embedding(1)), "generation degree coefficient tuples"),
        (is_almost_full, (gf25, gf25.embedding(1)), "generation degree coefficient tuples"),
        (fn_space, (builtin("Fp", 2), 11), "vector table cells"),  # 2.9 s
        (is_linearly_closed, (builtin("K"), 5, 6), "closedness work"),  # 3.1 s
        (is_linearly_independent, (fn_space(builtin("Hp", 43), 2), [(1, 0), (0, 1)]),
         "independence bundle tuples"),  # 1.4 s, after 1.5 s to build the space
        # refused at the default budget, by an independent set, after 1.5 s
        (dimension, H5_cubed, "independence bundle tuples"),
        (verify_axioms, (builtin("Trop"), "superfield", (-40, 40)),
         "window axiom instances"),  # 1.8 s
        (PolySet.members, (PolySet(H3, [7] * 12),), "poly box members"),  # 1.4 s
    ]
    for search, args, bound in searches:
        t0 = time.monotonic()
        with search_budget(1), pytest.raises(BlowupError) as refused:
            search(*args)
        assert time.monotonic() - t0 < 1, bound
        message = str(refused.value)
        assert message.startswith(bound) and message.endswith("exceeds budget 1"), message
    # The solver and the kernel search report their scan as inconclusive instead.  The
    # H3 system, seven random rows and the first again with a disjoint right side, walks
    # the scaling cap at the default budget (0.55 s).  No kernel input admitted at the
    # default budget ran for 1 s on that host: the scan reads its k^n <= 10^7 vectors
    # off value masks, one byte lane per vector (0.66 s for K at 22 x 23, 0.37 s for
    # X4 at 6 x 7, 0.26 s for H5 at 9 x 10).
    rows = _nonzero_rows(H3, 7, 60)
    system = LinearSystem.of(Matrix.from_rows(H3, rows + rows[:1]),
                             [{0}, {1}, {1}, {1}, {1}, {2}, {0}, {1}])
    for search, arg, note in ((solve_weak, system, f"scan of {3 ** 60} vectors exceeds cap"),
                              (find_nontrivial_kernel, _nonzero_matrix(H3, 4, 14),
                               f"kernel scan of {3 ** 14} exceeds cap")):
        t0 = time.monotonic()
        with search_budget(1):
            out = search(arg)
        assert time.monotonic() - t0 < 1, note
        assert (out.status, out.note) == ("inconclusive", note)


def test_value_mask_searches_refuse_before_the_first_fold(monkeypatch, H3):
    """Each search that reads value masks pays its charge, or tests its scan against
    the limit, before _value_masks folds a single line: one unit below its edge it
    refuses having folded nothing.  A scan at its edge, and a charged search at the
    default budget, fold."""
    import mvla.linsys as linsys
    import mvla.matrices as matrices
    folded = []
    fold = matrices._value_masks

    def counting(S, tab, coeffs, targets, memo):
        folded.append(coeffs)
        return fold(S, tab, coeffs, targets, memo)

    monkeypatch.setattr(matrices, "_value_masks", counting)
    monkeypatch.setattr(linsys, "_value_masks", counting)
    # a zero row whose right side misses 0: the scaled route gives nothing, so the
    # fallback scans the 3^3 vectors; at most 4096, the kernel scans its 3^5 at once
    impossible = LinearSystem.of(Matrix.from_rows(H3, [(0, 0, 0)]), [{1}])
    wide = Matrix.from_rows(H3, [(1, 2, 2, 1, 2), (1, 1, 1, 1, 2), (0, 2, 0, 2, 0)])
    scans = ((solve_weak, impossible, 3 ** 3, f"scan of {3 ** 3} vectors exceeds cap",
              "no-solution"),
             (find_nontrivial_kernel, wide, 3 ** 5, f"kernel scan of {3 ** 5} exceeds cap",
              "solved"))
    for search, arg, edge, note, status in scans:
        folded.clear()
        with search_budget(edge - 1):
            out = search(arg)
        assert (out.status, out.note, folded) == ("inconclusive", note, [])
        with search_budget(edge):
            assert search(arg).status == status
        assert folded
    # 2 n k^n vectors of the R_i and C_j; at 1x2, 9 row sets and the 3^4 table cells
    refused = ((find_inverse, (Matrix.identity(H3, 2),), 2 * 2 * 3 ** 2, "inverse search tables"),
               (is_linearly_closed, (H3, 1, 2), 9 + 3 ** 4, "closedness work"))
    for search, args, edge, bound in refused:
        folded.clear()
        with search_budget(edge - 1), pytest.raises(BlowupError, match=bound):
            search(*args)
        assert folded == []
        search(*args)
        assert folded


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
