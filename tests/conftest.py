"""Shared fixtures and classical oracles for the test suite.

The oracles here are deliberately independent of the library's set-valued
machinery: plain modular integer arithmetic for strict-field regression and
small brute-force scans for cross-checking search results.
"""

from __future__ import annotations

import itertools
import time

import pytest

from mvla import Poly, builtin, quotient_pair, strict_ring
from mvla.extensions import find_quotient_superfield


@pytest.fixture(scope="session")
def K():
    return builtin("K")


@pytest.fixture(scope="session")
def Q2():
    return builtin("Q2")


@pytest.fixture(scope="session")
def H2():
    return builtin("Hp", 2)


@pytest.fixture(scope="session")
def H3():
    return builtin("Hp", 3)


@pytest.fixture(scope="session")
def H5():
    return builtin("Hp", 5)


@pytest.fixture(scope="session")
def H7():
    return builtin("Hp", 7)


@pytest.fixture(scope="session")
def X2():
    return builtin("Xn", 2)


@pytest.fixture(scope="session")
def F2():
    return builtin("Fp", 2)


@pytest.fixture(scope="session")
def F3():
    return builtin("Fp", 3)


@pytest.fixture(scope="session")
def Z6():
    return strict_ring(6)


@pytest.fixture(scope="session")
def trop():
    return builtin("Trop")


@pytest.fixture(scope="session")
def h3_quotient_timed(H3):
    """The H3 quotient below and the seconds its search took."""
    t0 = time.monotonic()
    got = find_quotient_superfield(H3, 2)
    elapsed = time.monotonic() - t0
    assert got is not None, "no verifying quadratic quotient over H3"
    return got, elapsed


@pytest.fixture(scope="session")
def h3_quotient(h3_quotient_timed):
    """The first irreducible quadratic over H3 whose quotient verifies.

    Returns (quotient structure, extension pair, gamma, p, rejected polys).
    Built once per session; several modules and the acceptance suite share it.
    """
    return h3_quotient_timed[0]


@pytest.fixture(scope="session")
def gf4(F2):
    """GF(4) as the quotient of F2[X] by X^2+X+1."""
    return quotient_pair(F2, Poly(F2, (1, 1, 1)))


# -- classical mod-p oracles ---------------------------------------------------------


def poly_mul_mod(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add_mod(f, g, p):
    out = [(a + b) % p for a, b in itertools.zip_longest(f, g, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_divmod_mod(f, g, p):
    f, g = list(f), list(g)
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - len(g) + 1)
    r = f[:]
    while len(r) >= len(g) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - len(g)
        c = (r[-1] * inv) % p
        q[shift] = c
        for i, b in enumerate(g):
            r[shift + i] = (r[shift + i] - c * b) % p
        while r and r[-1] == 0:
            r.pop()
    while len(q) and q[-1] == 0:
        q.pop()
    return tuple(q), tuple(r)


def poly_eval_mod(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def mat_mul_mod(A, B, p):
    n, k, m = len(A), len(B), len(B[0])
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(k)) % p
                       for j in range(m)) for i in range(n))


def det_mod(A, p):
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total % p


def solvable_mod(A, b, p):
    """Does Ax = b have a solution over F_p?  Brute force over all x."""
    cols = len(A[0])
    for x in itertools.product(range(p), repeat=cols):
        if all(sum(A[i][j] * x[j] for j in range(cols)) % p == b[i]
               for i in range(len(A))):
            return x
    return None


def nullspace_vector_mod(A, p):
    cols = len(A[0])
    for x in itertools.product(range(p), repeat=cols):
        if all(v == 0 for v in x):
            continue
        if all(sum(A[i][j] * x[j] for j in range(cols)) % p == 0
               for i in range(len(A))):
            return x
    return None
