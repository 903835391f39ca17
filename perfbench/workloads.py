"""The benchmark's workloads: seeded inputs, timed queries and their answer checks.

Every query builds its own structures with `builtin(...)` inside its timed
region, so no query is served from the structure-level caches of another one;
a CLI user pays that cold cost on every call.  Inputs are plain tuples made
from the seed before the timed region.  A query's `check` runs after its timer
stops and returns None for a right answer, else a message.  The heaviest
queries come last in each list, so that the repeats of the fast queries are
spread over the run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from functools import partial

import oracles as O


class Query:
    __slots__ = ("cls", "label", "run", "check")

    def __init__(self, cls, label, run, check):
        self.cls = cls
        self.label = label
        self.run = run
        self.check = check


def _expect(got, want, what):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _first_error(*msgs):
    return next((m for m in msgs if m), None)


def _oracle(check, key, *args):
    """check(table, *args, answer), with the oracle's tables built on first
    use: after the timed region and outside set-up."""
    return lambda got: check(O.table(*key), *args, got)


def _random_poly(rng, elements, zero, degree):
    lead = [e for e in elements if e != zero]
    return tuple(rng.choice(elements) for _ in range(degree)) + (rng.choice(lead),)


# -- extension ---------------------------------------------------------------------

QUOTIENTS = (("Fp", 2, 2), ("Fp", 2, 3), ("Fp", 3, 2), ("Hp", 3, 2))
IRREDUCIBLE = (("Fp", 2, 2), ("Fp", 2, 3), ("Fp", 2, 4), ("Fp", 3, 2),
               ("K", None, 2), ("Hp", 2, 2))
DIVMOD = (("Hp", 3), ("Fp", 3))
DIVMOD_PER_BASE = 20
IDEAL_BUILTINS = (("K", None), ("Q2", None), ("Hp", 2), ("Hp", 3), ("Hp", 5),
                  ("Xn", 1), ("Xn", 2), ("Fp", 2), ("Fp", 3), ("Fp", 5))

# Verdicts with no classical oracle, recorded once from the library at its
# first benchmarked commit: the degree-2 irreducibility scans over K and H2,
# and the quadratic chosen for the H3 quotient with the candidate it rejects.
RECORDED_IRREDUCIBLE = {
    ("K", (0, 0, 1)): False, ("K", (0, 1, 1)): False,
    ("K", (1, 0, 1)): True, ("K", (1, 1, 1)): True,
    ("Hp", (0, 0, 1)): False, ("Hp", (0, 1, 1)): False,
    ("Hp", (1, 0, 1)): True, ("Hp", (1, 1, 1)): True,
}
RECORDED_H3_QUOTIENT = {"p": (1, 0, 2), "rejected": ((1, 0, 1),)}


def _quotient_run(m, name, param, degree, produced):
    F = m.builtin(name, param)
    K, pair, _, p, rejected = m.find_quotient_superfield(F, degree)
    text = m.serialize_structure(K)
    back = m.parse_structure(text)
    produced[(name, param, degree)] = text
    return {
        "K": K, "text": text, "retext": m.serialize_structure(back),
        "p": p.coeffs, "rejected": tuple(r.coeffs for r in rejected),
        "verdict": m.verify_axioms(K, "superfield").verdict,
        "label": m.classify_extension(pair),
        "cert": _plain_certificate(m.certify_algebraic_extension(pair, degree)),
        "mapping": pair.embedding.mapping,
    }


def _plain_certificate(rep):
    """The report as plain data, comparable across runs."""
    return (rep.all_algebraic, rep.degree_claim_holds,
            {el: c.witness.coeffs for el, c in rep.certificates.items()})


def _quotient_check(name, param, degree, got):
    TF = O.table(name, param)
    TK = O.Tab.of_structure(got["K"])
    if name == "Fp":
        want_p = O.first_irreducible(param, degree)
        err = _first_error(_expect(got["p"], want_p, "chosen p"),
                           _expect(got["rejected"], (), "rejected candidates"),
                           _expect(O.table_mismatch(got["K"], O.gf(param, want_p)), None,
                                   "GF table mismatch"))
    else:
        err = _first_error(_expect(got["p"], RECORDED_H3_QUOTIENT["p"], "chosen p"),
                           _expect(got["rejected"], RECORDED_H3_QUOTIENT["rejected"],
                                   "rejected candidates"))
    (all_algebraic, degree_claim_holds, certificates), f = got["cert"], got["mapping"]
    roots = all(TK.zero in O.eval_poly(TK, tuple(f[c] for c in witness), el)
                for el, witness in certificates.items())
    return _first_error(
        err,
        _expect(got["verdict"], "pass", "superfield verdict"),
        _expect(got["label"] == "full", O.full_embedding(TF, TK, f), "full extension"),
        _expect((all_algebraic, degree_claim_holds, roots), (True, True, True),
                "algebraicity certificate"),
        _expect(got["retext"], got["text"], "serialize/parse/serialize round trip"))


def _irreducible_run(m, name, param, coeffs):
    S = m.builtin(name, param)
    return m.is_irreducible(m.Poly(S, coeffs)).irreducible


def _irreducible_check(name, param, coeffs, got):
    want = O.trial_irreducible(coeffs, param) if name == "Fp" \
        else RECORDED_IRREDUCIBLE[(name, coeffs)]
    return _expect(got, want, "irreducibility")


def _divmod_run(m, name, param, f, g):
    S = m.builtin(name, param)
    pairs = m.pdivmod(m.Poly(S, f), m.Poly(S, g), all_pairs=True)
    return {(q.coeffs, r.coeffs) for q, r in pairs}


def _ideals_run(m, name, param, text):
    S = m.parse_structure(text) if text is not None else m.builtin(name, param)
    ids = m.all_ideals(S)
    return {"S": S, "char": m.characteristic(S),
            "ideals": [frozenset(I.members) for I in ids],
            "flags": [(fl.prime, fl.strongly_prime, fl.maximal)
                      for fl in (m.classify_ideal(S, I) for I in ids)]}


def _divmod_check(T, f, g, got):
    return _expect(got, O.divmod_pairs(T, f, g), "division pairs")


def _ideals_check(T, got):
    T = T or O.Tab.of_structure(got["S"])
    want = O.ideals(T)
    return _first_error(
        _expect(got["char"], O.characteristic(T), "characteristic"),
        _expect(sorted(map(sorted, got["ideals"])), sorted(map(sorted, want)), "ideals"),
        _expect(got["flags"], [O.ideal_flags(T, I, want) for I in got["ideals"]],
                "ideal flags"))


def _cli_run(m, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = m.cli.main(argv)
    return code, out.getvalue()


def _cli_quotient_check(p, modulus, got):
    code, text = got
    want = O.gf(p, modulus)
    token = O.element_token
    tables = O.parse_tables(text)
    want_tables = {(op, token(a), token(b)): frozenset(token(c) for c in tab[a, b])
                   for op, tab in (("sum", want.add), ("prod", want.mul))
                   for a in want.elements for b in want.elements}
    return _first_error(_expect(code, 0, "exit code"),
                        _expect(tables, want_tables, "emitted GF tables"))


def _cli_irreducible_check(p, coeffs, got):
    code, text = got
    irr = O.trial_irreducible(coeffs, p)
    verdict = "verdict=irreducible" if irr else "verdict=reducible"
    return _first_error(_expect(code, 0 if irr else 1, "exit code"),
                        _expect(verdict in text.splitlines(), True, verdict))


def extension(m, rng):
    qs = []
    produced = {}
    quotients = [Query("quotient", f"{name}{param or ''},{degree}",
                       partial(_quotient_run, m, name, param, degree, produced),
                       partial(_quotient_check, name, param, degree))
                 for name, param, degree in QUOTIENTS]
    qs += quotients[:-1]
    for name, param, degree in IRREDUCIBLE:
        S = m.builtin(name, param)
        for coeffs in O.canonical_polys(S.elements, S.zero, degree):
            qs.append(Query("irreducible", f"{name}{param or ''}:{coeffs}",
                            partial(_irreducible_run, m, name, param, coeffs),
                            partial(_irreducible_check, name, param, coeffs)))
    for name, param in DIVMOD:
        S = m.builtin(name, param)
        for _ in range(DIVMOD_PER_BASE):
            f = _random_poly(rng, S.elements, S.zero, rng.randrange(3))
            g = _random_poly(rng, S.elements, S.zero, rng.randrange(1, 3))
            qs.append(Query("divmod", f"{name}{param}:{f}/{g}",
                            partial(_divmod_run, m, name, param, f, g),
                            _oracle(_divmod_check, (name, param), f, g)))
    for name, param in IDEAL_BUILTINS:
        qs.append(Query("ideals", f"{name}{param or ''}",
                        partial(_ideals_run, m, name, param, None),
                        _oracle(_ideals_check, (name, param))))
    for p, modulus in ((2, (1, 1, 1)), (3, (1, 0, 1))):
        poly = ",".join(map(str, modulus))
        qs.append(Query("cli", f"quotient F{p} {poly}",
                        partial(_cli_run, m, ["quotient", f"builtin:F{p}", "--poly", poly]),
                        partial(_cli_quotient_check, p, modulus)))
    # fixed inputs: the verbs' cost depends strongly on the polynomial, and
    # these queries sit near the percentiles
    for p, coeffs in ((2, (1, 1, 1)), (2, (1, 1, 0, 1)), (3, (1, 0, 1)), (3, (1, 1, 1))):
        poly = ",".join(map(str, coeffs))
        qs.append(Query("cli", f"irreducible F{p} {poly}",
                        partial(_cli_run, m, ["irreducible", "--structure", f"builtin:F{p}",
                                              "--poly", poly]),
                        partial(_cli_irreducible_check, p, coeffs)))
    qs.append(quotients[-1])  # H3, the heaviest
    for key in QUOTIENTS:
        # the quotient's own serialized file, as emitted by the quotient query
        qs.append(Query("ideals", f"quotient {key}",
                        lambda key=key: _ideals_run(m, None, None, produced[key]),
                        partial(_ideals_check, None)))
    return qs


# -- vspace -----------------------------------------------------------------------------

# (constructor, base, parameter, shape); every space is F^N on coordinates
COORDINATE_SPACES = (
    ("matrix", "Hp", 2, (2, 2)), ("poly", "K", None, 3), ("fn", "Fp", 3, 3),
    ("fn", "Hp", 5, 2), ("fn", "Q2", None, 3), ("fn", "Xn", 1, 3), ("fn", "K", None, 5),
    ("fn", "Hp", 3, 3), ("fn", "Hp", 3, 4),
)
# H3^4 in the default reading only: the full one costs as much again (about
# 13 s), which a benchmark round's time budget has no room for; H3^3 covers
# its path
DEFAULT_ONLY = ("Hp", 3, 4)
EXTENSION_SPACES = ((2, (1, 1, 1)), (3, (1, 0, 1)))  # GF(4)|F2 and GF(9)|F3
PLANES = (("Hp", 3), ("Q2", None), ("Fp", 3))
SPAN_PER_PLANE = 20
INDEPENDENCE_PER_PLANE = 20


def _space(m, kind, name, param, shape):
    F = m.builtin(name, param)
    if kind == "fn":
        return m.fn_space(F, shape)
    if kind == "matrix":
        return m.matrix_space(F, *shape)
    return m.poly_space(F, shape)


def _coords(kind, shape):
    """Number of coordinates of the space's vectors."""
    if kind == "matrix":
        return shape[0] * shape[1]
    return shape + 1 if kind == "poly" else shape


def _verify_run(m, make, full):
    rep = m.verify_vspace(make(), full=full)
    return rep.verdict, rep.witnesses


def _field_verify_check(got):
    # a field is a vector space over any subfield, in either reading
    return _expect(got[0], "pass", "vector-space verdict")


def _verify_check(T, N, full, got):
    verdict, witnesses = got
    expected_pass = O.vspace_passes(T, N, full)
    err = _expect(verdict, "pass" if expected_pass else "fail", "vector-space verdict")
    if err or expected_pass:
        return err
    axiom, inst = witnesses[0]
    return _expect(O.vspace_instance_fails(T, axiom, inst, full), True,
                   f"re-evaluated first witness {axiom} at {inst!r}")


def _extension_space(m, p, gf_args):
    els, zero, one, neg, add, mul = gf_args
    F = m.builtin("Fp", p)
    K = m.Structure(f"GF{p}^{len(zero)}", els, zero, one, neg, add, mul)
    pad = (0,) * (len(zero) - 1)
    return m.extension_space(m.ExtensionPair.of(F, K, {a: (a,) + pad for a in F.elements}))


def _plane(m, name, param):
    return m.fn_space(m.builtin(name, param), 2)


def _span_run(m, name, param, gens):
    W, rep = m.span(_plane(m, name, param), gens)
    return frozenset(W), rep.verdict


def _independence_run(m, name, param, vs):
    return m.is_linearly_independent(_plane(m, name, param), vs)


def _independence_check(T, vs, got):
    indep, witness = got
    dep = O.bundle_dependence(T, vs)
    if dep is None:
        return _expect(indep, True, "independence")
    return _expect((indep, witness), (False, tuple(zip(vs, dep))), "dependence witness")


def _basis_run(m, name, param):
    V = _plane(m, name, param)
    return m.find_basis(V, list(V.vectors))


def _dimension_run(m, name, param):
    F = m.builtin(name, param)
    V = m.fn_space(F, 2)
    return m.dimension(V, m.is_linearly_closed(F, 2, 3))


def _span_check(T, gens, got):
    return _expect(got, (O.closure(T, 2, gens), "pass"), "span")


def _dimension_check(T, got):
    return _expect(got, O.plane_dimension(T), "dimension")


def _basis_check(T, got):
    all_vectors = frozenset(itertools.product(T.elements, repeat=2))
    return _first_error(_expect(O.closure(T, 2, got), all_vectors, "basis spans"),
                        _expect(O.bundle_dependence(T, list(got)), None, "basis independent"))


def vspace(m, rng):
    qs = []
    for name, param in PLANES:
        S = m.builtin(name, param)
        vectors = list(itertools.product(S.elements, repeat=2))
        nonzero = [v for v in vectors if v != (S.zero, S.zero)]
        # the sizes alternate, so every seed has the same mix of them
        for i in range(SPAN_PER_PLANE):
            gens = tuple(rng.sample(nonzero, 1 + i % 2))
            qs.append(Query("span", f"{name}{param or ''}^2 {gens}",
                            partial(_span_run, m, name, param, gens),
                            _oracle(_span_check, (name, param), gens)))
        for i in range(INDEPENDENCE_PER_PLANE):
            vs = tuple(rng.sample(vectors, 2 + i % 2))
            qs.append(Query("independence", f"{name}{param or ''}^2 {vs}",
                            partial(_independence_run, m, name, param, vs),
                            _oracle(_independence_check, (name, param), vs)))
    for name, param in (("Hp", 3), ("Fp", 3)):
        qs.append(Query("basis", f"find_basis {name}{param}^2",
                        partial(_basis_run, m, name, param),
                        _oracle(_basis_check, (name, param))))
        qs.append(Query("basis", f"dimension {name}{param}^2",
                        partial(_dimension_run, m, name, param),
                        _oracle(_dimension_check, (name, param))))
    for p, modulus in EXTENSION_SPACES:
        G = O.gf(p, modulus)
        gf_args = (G.elements, G.zero, G.one, G.neg, G.add, G.mul)
        for full in (False, True):
            qs.append(Query("verify", f"GF{p}^{len(modulus) - 1}|F{p} full={full}",
                            partial(_verify_run, m, partial(_extension_space, m, p, gf_args),
                                    full),
                            _field_verify_check))
    for kind, name, param, shape in COORDINATE_SPACES:
        make = partial(_space, m, kind, name, param, shape)
        for full in (False,) if (name, param, shape) == DEFAULT_ONLY else (False, True):
            # the verdict comes from the scalar tables (see oracles.vspace_passes)
            qs.append(Query("verify", f"{kind}:{name}{param or ''}:{shape} full={full}",
                            partial(_verify_run, m, make, full),
                            _oracle(_verify_check, (name, param), _coords(kind, shape), full)))
    return qs


# -- linsys -----------------------------------------------------------------------------

BASES = (("Hp", 3), ("Hp", 5), ("Hp", 7), ("Q2", None), ("Fp", 5))
SYSTEM_SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4))
KERNEL_SHAPES = ((2, 3), (3, 4))
PER_SHAPE = 40
MATRICES_PER_KIND = 12
CLOSED = (("Hp", 3, 2, 4), ("Hp", 5, 2, 3), ("Q2", None, 2, 3), ("Xn", 1, 2, 3),
          ("Fp", 3, 2, 3))
CLOSED_SAMPLES = 10


def _random_matrix(rng, elements, rows, cols):
    return tuple(tuple(rng.choice(elements) for _ in range(cols)) for _ in range(rows))


def _upper_triangular(rng, elements, zero, n):
    nonzero = [e for e in elements if e != zero]
    return tuple(tuple(rng.choice(nonzero) if i == j else rng.choice(elements) if j > i
                       else zero for j in range(n)) for i in range(n))


def _solve_run(m, name, param, A, B):
    S = m.builtin(name, param)
    out = m.solve_weak(m.LinearSystem.of(m.Matrix.from_rows(S, A), B))
    v = out.verdict
    return out.status, v and v.vector.entries, v and v.strength


def _solve_check(T, A, B, got):
    status, d, strength = got
    if status == "solved":
        return _expect(O.weak_strength(T, A, B, d), strength, f"re-evaluated solution {d}")
    return _first_error(_expect(status, "no-solution", "solver status"),
                        _expect(O.weak_exists(T, A, B), False, "no weak solution exists"))


def _kernel_run(m, name, param, A):
    S = m.builtin(name, param)
    out = m.find_nontrivial_kernel(m.Matrix.from_rows(S, A))
    return out.status, out.verdict and out.verdict.vector.entries


def _kernel_check(T, A, got):
    status, d = got
    if status == "solved":
        return _expect(O.kernel_ok(T, A, d), True, f"re-evaluated kernel vector {d}")
    return _first_error(_expect(status, "no-solution", "kernel status"),
                        _expect(O.kernel_exists(T, A), False, "no kernel vector exists"))


def _det_run(m, name, param, A):
    return frozenset(m.det(m.Matrix.from_rows(m.builtin(name, param), A)))


def _inverse_run(m, name, param, A):
    B = m.find_inverse(m.Matrix.from_rows(m.builtin(name, param), A))
    return B and tuple(B.row(i) for i in range(B.rows))


def _det_check(T, A, got):
    return _expect(got, O.det_set(T, A), "det")


def _inverse_check(T, A, got):
    if got is not None:
        return _expect(O.inverse_ok(T, A, got), True, "re-evaluated inverse")
    # an upper-triangular matrix with invertible diagonal is inverted by back
    # substitution over a hyperfield; the 2x2 case is scanned exhaustively
    exists = len(A) == 3 or O.inverse_exists(T, A)
    return _expect(exists, False, "an inverse exists")


def _closed_run(m, name, param, n, k):
    rep = m.is_linearly_closed(m.builtin(name, param), n, k)
    return rep.verdict, rep.checked, rep.witnesses


def _closed_check(T, n_max, m_max, samples, got):
    verdict, checked, witnesses = got
    if verdict == "fail":
        shape, combo = witnesses[0]
        r, c = map(int, shape.split("x"))
        A = tuple(combo[i * c:(i + 1) * c] for i in range(r))
        return _expect(O.kernel_exists(T, A), False, f"re-evaluated witness {shape}")
    k = len(T.elements)
    total = sum(k ** (n * c) for n in range(1, n_max + 1) for c in range(n + 1, m_max + 1))
    return _first_error(
        _expect(verdict, "pass", "linear closedness"),
        _expect(checked, total, "matrices scanned"),
        _expect(all(O.kernel_exists(T, A) for A in samples), True, "sampled kernels exist"))


def linsys(m, rng):
    qs = []
    for name, param in BASES:
        S = m.builtin(name, param)
        els, key, tag = S.elements, (name, param), f"{name}{param or ''}"
        for rows, cols in SYSTEM_SHAPES:
            for _ in range(PER_SHAPE):
                A = _random_matrix(rng, els, rows, cols)
                B = tuple(frozenset(rng.sample(els, rng.randrange(1, 3))) for _ in range(rows))
                qs.append(Query("solve", f"{tag} {A} in {B}",
                                partial(_solve_run, m, name, param, A, B),
                                _oracle(_solve_check, key, A, B)))
        for rows, cols in KERNEL_SHAPES:
            for _ in range(PER_SHAPE):
                A = _random_matrix(rng, els, rows, cols)
                qs.append(Query("kernel", f"{tag} {A}", partial(_kernel_run, m, name, param, A),
                                _oracle(_kernel_check, key, A)))
        for cls, run in (("det", _det_run), ("inverse", _inverse_run)):
            for _ in range(MATRICES_PER_KIND):
                for A in (_random_matrix(rng, els, 2, 2),
                          _upper_triangular(rng, els, S.zero, 3)):
                    check = _det_check if cls == "det" else _inverse_check
                    qs.append(Query(cls, f"{tag} {A}", partial(run, m, name, param, A),
                                    _oracle(check, key, A)))
    for name, param, n, k in CLOSED:
        els = m.builtin(name, param).elements
        samples = []
        for _ in range(CLOSED_SAMPLES):
            r = rng.randrange(1, n + 1)
            samples.append(_random_matrix(rng, els, r, rng.randrange(r + 1, k + 1)))
        qs.append(Query("closed", f"{name}{param or ''} ({n},{k})",
                        partial(_closed_run, m, name, param, n, k),
                        _oracle(_closed_check, (name, param), n, k, samples)))
    return qs


WORKLOADS = {"extension": extension, "vspace": vspace, "linsys": linsys}


def build(name, m, seed):
    """The workload's query list; the same seed gives the same inputs."""
    return WORKLOADS[name](m, random.Random(f"{name}:{seed}"))
