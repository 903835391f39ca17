"""Command-line surface: batch verification and example reproduction.

Reports are line-oriented `key=value` text with stable keys, deterministic
byte-for-byte for identical inputs, followed by a final summary line.  Exit
codes: 0 pass/solved, 1 fail/no-solution, 2 inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import goldens
from .axioms import KINDS, MorphismSpec, check_morphism, verify_axioms
from .errors import (CongruenceError, MvlaError, ParseError, ReducibleError, WindowRequired,
                     search_budget)
from .extensions import ExtensionPair, classify_extension, make_quotient_superfield
from .fileformat import (element_token, format_box, format_matrix, format_set,
                         parse_matrix, parse_structure, parse_system, poly_from_text,
                         serialize_structure, token_to_element)
from .linsys import (INCONCLUSIVE, NO_SOLUTION, SOLVED, find_nontrivial_kernel,
                     is_linearly_closed, solve_weak)
from .matrices import det, mmul
from .polys import evaluate, is_irreducible, pdivmod
from .structures import builtin
from .vspaces import fn_space, matrix_space, poly_space, verify_vspace

_BUILTIN = re.compile(r"^builtin:(K|Q2|Trop|H([0-9]+)|X([0-9]+)|F([0-9]+))$")

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE = 0, 1, 2
_STATUS_EXIT = {SOLVED: EXIT_PASS, NO_SOLUTION: EXIT_FAIL, INCONCLUSIVE: EXIT_INCONCLUSIVE}


def load_structure(ref, lazy=False):
    """A structure from `builtin:NAME` (K, Q2, Trop, H3, X2, F5, ...) or a file path.

    The lazy `Trop` loads only with lazy set, that is for `verify --window`.
    """
    m = _BUILTIN.match(ref)
    if m:
        tag = m.group(1)
        if tag == "Trop" and not lazy:
            raise WindowRequired(f"{ref} is lazy: only verify --window LO HI can check it; "
                                 "this command needs a window")
        if tag in ("K", "Q2", "Trop"):
            return builtin(tag)
        kind = {"H": "Hp", "X": "Xn", "F": "Fp"}[tag[0]]
        return builtin(kind, int(tag[1:]))
    return parse_structure(_read(ref))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Report:
    """Accumulates key=value lines plus one human summary."""

    def __init__(self, command):
        self.lines = [("command", command)]
        self.exit_code = EXIT_PASS

    def add(self, key, value):
        self.lines.append((key, str(value)))
        return self

    def add_witnesses(self, witnesses):
        for i, (axiom, wit) in enumerate(witnesses, start=1):
            self.add(f"witness.{i}", f"{axiom} @ {wit}")
        return self

    def finish(self, summary, exit_code=EXIT_PASS):
        self.lines.append(("summary", summary))
        self.exit_code = exit_code
        return self

    def render(self):
        return "\n".join(f"{k}={v}" for k, v in self.lines) + "\n"


def _verdict_exit(verdict):
    if verdict in ("pass", "pass-on-window", "solved"):
        return EXIT_PASS
    if verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


# -- verb implementations ---------------------------------------------------------


def cmd_verify(args):
    window = tuple(args.window) if args.window else None
    S = load_structure(args.structure, lazy=window is not None)
    rep = verify_axioms(S, args.kind, window=window)
    r = Report("verify")
    r.add("structure", rep.subject).add("kind", rep.kind)
    r.add("verdict", rep.verdict).add("checked", rep.checked).add("skipped", rep.skipped)
    r.add_witnesses(rep.witnesses)
    return r.finish(rep.summary(), _verdict_exit(rep.verdict))


def cmd_morphism(args):
    src = load_structure(args.source)
    dst = load_structure(args.target)
    if args.map:
        mapping = {}
        for part in args.map.split(","):
            a, _, b = part.partition(":")
            mapping[token_to_element(a.strip())] = token_to_element(b.strip())
        spec = MorphismSpec.from_mapping(src, dst, mapping)
    else:
        spec = MorphismSpec.inclusion(src, dst)
    rep = check_morphism(spec, full=args.full)
    r = Report("morphism")
    r.add("source", src.name).add("target", dst.name).add("full", args.full)
    r.add("verdict", rep.verdict)
    r.add_witnesses(rep.witnesses)
    return r.finish(rep.summary(), _verdict_exit(rep.verdict))


def cmd_det(args):
    S = load_structure(args.structure)
    M = parse_matrix(_read(args.matrix), S)
    value = det(M)
    r = Report("det")
    r.add("structure", S.name).add("matrix", format_matrix(M))
    r.add("det", format_set(S, value))
    return r.finish(f"determinant has {len(value)} members")


def cmd_matmul(args):
    S = load_structure(args.structure)
    A, B = parse_matrix(_read(args.a), S), parse_matrix(_read(args.b), S)
    box = mmul(A, B)
    r = Report("matmul")
    r.add("structure", S.name).add("shape", f"{box.rows}x{box.cols}")
    r.add("box", format_box(box)).add("members", box.size)
    return r.finish(f"product box with {box.size} members")


def cmd_divmod(args):
    S = load_structure(args.structure)
    f = poly_from_text(args.f, S)
    g = poly_from_text(args.g, S)
    pairs = pdivmod(f, g, all_pairs=args.all)
    r = Report("divmod")
    r.add("structure", S.name).add("f", args.f).add("g", args.g)
    r.add("pairs", len(pairs))
    for i, (q, rr) in enumerate(pairs, start=1):
        r.add(f"pair.{i}.q", ",".join(element_token(c) for c in q.coeffs) or "0")
        r.add(f"pair.{i}.r", ",".join(element_token(c) for c in rr.coeffs) or "0")
    return r.finish(f"{len(pairs)} division pair(s) found")


def cmd_eval(args):
    S = load_structure(args.structure)
    ambient = load_structure(args.ambient) if args.ambient else S
    f = poly_from_text(args.poly, S)
    alpha = token_to_element(args.at)
    value = evaluate(f, alpha, ambient)
    root = ambient.zero in value
    r = Report("eval")
    r.add("structure", S.name).add("ambient", ambient.name)
    r.add("poly", args.poly).add("at", args.at)
    r.add("value", format_set(ambient, value)).add("root", "yes" if root else "no")
    return r.finish(f"evaluation has {len(value)} members")


def cmd_irreducible(args):
    S = load_structure(args.structure)
    f = poly_from_text(args.poly, S)
    verdict = is_irreducible(f)
    r = Report("irreducible")
    r.add("structure", S.name).add("poly", args.poly)
    r.add("verdict", "irreducible" if verdict.irreducible else "reducible")
    if verdict.witness is not None:
        r.add("witness", ",".join(element_token(c) for c in verdict.witness.coeffs))
    r.add("note", verdict.note)
    code = EXIT_PASS if verdict.irreducible else EXIT_FAIL
    return r.finish(f"bounded divisor scan: {verdict.note}", code)


def _outcome_report(command, S, out, summary):
    """The report of a solve or kernel outcome; a kernel vector is always weak, so only
    a solve names its strength."""
    r = Report(command).add("structure", S.name).add("status", out.status)
    if out.verdict is not None:
        r.add("vector", format_matrix(out.verdict.vector))
        if command == "solve":
            r.add("strength", out.verdict.strength)
    if out.note:
        r.add("note", out.note)
    return r.finish(f"{summary} status: {out.status}", _STATUS_EXIT[out.status])


def cmd_solve(args):
    S = load_structure(args.structure)
    out = solve_weak(parse_system(_read(args.system), S))
    return _outcome_report("solve", S, out, "solver")


def cmd_kernel(args):
    S = load_structure(args.structure)
    out = find_nontrivial_kernel(parse_matrix(_read(args.matrix), S))
    return _outcome_report("kernel", S, out, "kernel")


def cmd_closed(args):
    S = load_structure(args.structure)
    rep = is_linearly_closed(S, args.max_n, args.max_m)
    r = Report("closed")
    r.add("structure", S.name).add("kind", rep.kind)
    r.add("verdict", rep.verdict).add("checked", rep.checked)
    r.add_witnesses(rep.witnesses)
    return r.finish(rep.summary(), _verdict_exit(rep.verdict))


def cmd_quotient(args):
    S = load_structure(args.structure)
    p = poly_from_text(args.poly, S)
    r = Report("quotient")
    r.lines = []  # the structure file itself is the machine output
    try:
        sys.stdout.write(serialize_structure(make_quotient_superfield(S, p)))
    except (CongruenceError, ReducibleError) as exc:
        # a failed axiom or a divisor of p is a definite fail, not an inconclusive run
        axiom, wit = exc.witnesses[0]
        sys.stderr.write(f"error: {exc}\nwitness.1={axiom} @ {wit}\n")
        r.exit_code = EXIT_FAIL
    return r


def cmd_extension(args):
    small = load_structure(args.small)
    big = load_structure(args.big)
    label = classify_extension(ExtensionPair.inclusion(small, big))
    r = Report("extension")
    r.add("small", small.name).add("big", big.name).add("class", label)
    return r.finish(f"extension class: {label}")


def cmd_vspace(args):
    if args.m is not None and args.space != "matrix":
        raise MvlaError("--m applies only to --space matrix")
    S = load_structure(args.structure)
    if args.space == "fn":
        V = fn_space(S, args.n)
    elif args.space == "matrix":
        V = matrix_space(S, args.n, args.n if args.m is None else args.m)
    else:
        V = poly_space(S, args.n)
    rep = verify_vspace(V, full=args.full)
    r = Report("vspace")
    r.add("space", V.name).add("kind", rep.kind)
    r.add("verdict", rep.verdict).add("checked", rep.checked)
    r.add_witnesses(rep.witnesses)
    return r.finish(rep.summary(), _verdict_exit(rep.verdict))


def cmd_reproduce(args):
    name = args.name
    if name not in goldens.GOLDENS:
        raise MvlaError(f"unknown golden {name!r}; choose from "
                        + ", ".join(sorted(goldens.GOLDENS)))
    fresh = goldens.GOLDENS[name]()
    stored = goldens.load_golden(name)
    r = Report("reproduce")
    r.add("name", name)
    if stored is None:
        r.add("verdict", "inconclusive")
        return r.finish("no stored golden; run python -m mvla.goldens",
                        EXIT_INCONCLUSIVE)
    match = fresh == stored
    r.add("verdict", "pass" if match else "fail")
    if not match:
        r.add("expected-bytes", len(stored)).add("got-bytes", len(fresh))
    return r.finish("recomputed output matches the stored golden" if match
                    else "output diverged from the stored golden",
                    EXIT_PASS if match else EXIT_FAIL)


# -- argument parsing -----------------------------------------------------------------


def _env_budget():
    raw = os.environ.get("MVLA_BUDGET", str(10 ** 7))
    try:
        return int(raw)
    except ValueError:
        raise MvlaError(f"MVLA_BUDGET must be an integer, got {raw!r}") from None


@functools.cache
def build_parser():
    """The argument parser, built once per process; every verb NAME runs cmd_NAME."""
    parser = argparse.ArgumentParser(
        prog="mvla",
        description="Multivalued linear algebra over superfields: exhaustive "
                    "verification, set-valued matrices, linear systems, "
                    "quotient superfields and vector spaces.")
    parser.add_argument("--budget", type=int,
                        help="work limit of each bounded search (env MVLA_BUDGET)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="check structure axioms for a kind")
    p.add_argument("structure")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"))

    p = sub.add_parser("morphism", help="check a map between structures")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--map", help="comma list a:b of source:target tokens")
    p.add_argument("--full", action="store_true")

    p = sub.add_parser("det", help="determinant of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--structure", required=True)

    p = sub.add_parser("matmul", help="product box of two matrix files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--structure", required=True)

    p = sub.add_parser("divmod", help="Euclidean division pairs")
    p.add_argument("--structure", required=True)
    p.add_argument("--f", required=True, help="coefficients low-to-high, e.g. 1,0,1")
    p.add_argument("--g", required=True)
    p.add_argument("--all", action="store_true")

    p = sub.add_parser("eval", help="evaluate a polynomial at an element")
    p.add_argument("--structure", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--ambient")

    p = sub.add_parser("irreducible", help="bounded irreducibility scan")
    p.add_argument("--structure", required=True)
    p.add_argument("--poly", required=True)

    p = sub.add_parser("solve", help="find a weak solution of a system file")
    p.add_argument("system")
    p.add_argument("--structure", required=True)

    p = sub.add_parser("kernel", help="nontrivial kernel vector of a matrix file")
    p.add_argument("matrix")
    p.add_argument("--structure", required=True)

    p = sub.add_parser("closed", help="linear closedness certification")
    p.add_argument("--structure", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)

    p = sub.add_parser("quotient", help="emit the quotient superfield as a file")
    p.add_argument("structure")
    p.add_argument("--poly", required=True)

    p = sub.add_parser("extension", help="classify small inside big")
    p.add_argument("small")
    p.add_argument("big")

    p = sub.add_parser("vspace", help="verify vector space axioms")
    p.add_argument("--structure", required=True)
    p.add_argument("--space", choices=("fn", "matrix", "poly"), default="fn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--full", action="store_true")

    p = sub.add_parser("reproduce", help="replay a named example against its golden")
    p.add_argument("name")

    return parser


def main(argv=None):
    try:
        budget = _env_budget()
        args = build_parser().parse_args(argv)
        with search_budget(budget if args.budget is None else args.budget):
            report = globals()["cmd_" + args.verb](args)
    except (MvlaError, ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCONCLUSIVE
    out = report.render() if report.lines else ""
    if out:
        sys.stdout.write(out)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
