"""Named example reports with stored goldens.

Every golden is generated by the library itself (never typed by hand) and
checked into the package; `mvla reproduce <name>` recomputes the report and
diffs it against the stored copy.  Regenerate with `python -m mvla.goldens`.
"""

from __future__ import annotations

import itertools
from importlib import resources
from pathlib import Path

from .axioms import MorphismSpec, check_morphism
from .fileformat import format_box, format_matrix
from .linsys import is_linearly_closed
from .matrices import Matrix, det, madd, mmul, mscale
from .structures import builtin, mprod


def _x2_triple():
    X2 = builtin("Xn", 2)
    A = Matrix.from_rows(X2, [(1, 1), (0, 1)])
    B = Matrix.from_rows(X2, [(-1, 1), (0, -1)])
    C = Matrix.from_rows(X2, [(2, 0), (-1, 2)])
    return X2, A, B, C


def _box_report(name, box):
    lines = [f"name={name}", f"structure={box.base.name}",
             f"shape={box.rows}x{box.cols}", f"box={format_box(box)}",
             f"members={box.size}"]
    for i, m in enumerate(map(format_matrix, box.members()), start=1):
        lines.append(f"member.{i}={m}")
    return "\n".join(lines) + "\n"


def golden_x2_matadd_ab():
    _, A, B, _ = _x2_triple()
    return _box_report("x2-matadd-AB", madd(A, B))


def golden_x2_matmul_ab():
    _, A, B, _ = _x2_triple()
    return _box_report("x2-matmul-AB", mmul(A, B))


def golden_x2_matmul_ac():
    _, A, _, C = _x2_triple()
    return _box_report("x2-matmul-AC", mmul(A, C))


def golden_x2_nonassoc():
    _, A, B, C = _x2_triple()
    left = mmul(mmul(A, B), C)
    right = mmul(A, mmul(B, C))
    meet = left.intersect(right)
    lines = ["name=x2-nonassoc",
             f"left=(AB)C {format_box(left)}",
             f"right=A(BC) {format_box(right)}",
             f"equal={'yes' if left == right else 'no'}",
             f"intersect-nonempty={'yes' if meet is not None else 'no'}"]
    return "\n".join(lines) + "\n"


def golden_det_properties():
    Q2 = builtin("Q2")
    H3 = builtin("Hp", 3)
    lines = ["name=det-properties"]

    for S, tag in ((Q2, "containment"), (H3, "equality")):
        ok = total = 0
        for combo in itertools.product(S.elements, repeat=4):
            A = Matrix(S, 2, 2, combo)
            dA = det(A)
            for lam in S.elements:
                total += 1
                left = det(mscale(lam, A))
                # lam^2 det A: the product of sets is the union over the members of lam^2
                right = S.set_of(S.mul_masks(S.mask_of(mprod(S, [lam, lam])), S.mask_of(dA)))
                ok += left <= right if tag == "containment" else left == right
        lines.append(f"scaling.{S.name}.{tag}={'pass' if ok == total else 'fail'}")
        lines.append(f"scaling.{S.name}.instances={total}")

    zero_ok = all(det(Matrix.from_rows(H3, [(0, 0), row])) == frozenset([0])
                  for row in itertools.product(H3.elements, repeat=2))
    lines.append(f"zero-row.H3={'pass' if zero_ok else 'fail'}")

    tri_ok = all(det(Matrix.from_rows(H3, [(a, b), (0, d)])) == mprod(H3, [a, d])
                 for a, b, d in itertools.product(H3.elements, repeat=3))
    lines.append(f"triangular.H3={'pass' if tri_ok else 'fail'}")
    return "\n".join(lines) + "\n"


def golden_morphism_k_q2():
    K, Q2 = builtin("K"), builtin("Q2")
    rep = check_morphism(MorphismSpec.inclusion(K, Q2), witness_limit=8)
    lines = ["name=morphism-k-q2", f"verdict={rep.verdict}"]
    for i, (ax, wit) in enumerate(rep.witnesses, start=1):
        lines.append(f"witness.{i}={ax} @ {wit}")
    return "\n".join(lines) + "\n"


def golden_morphism_h2_h3():
    H2, H3 = builtin("Hp", 2), builtin("Hp", 3)
    spec = MorphismSpec.inclusion(H2, H3)
    plain = check_morphism(spec)
    full = check_morphism(spec, full=True)
    lines = ["name=morphism-h2-h3",
             f"morphism={plain.verdict}",
             f"full={full.verdict}"]
    for i, (ax, wit) in enumerate(full.witnesses, start=1):
        lines.append(f"full-witness.{i}={ax} @ {wit}")
    return "\n".join(lines) + "\n"


def golden_basis5_h3_2_3():
    H3 = builtin("Hp", 3)
    rep = is_linearly_closed(H3, 2, 3)
    lines = ["name=basis5-h3-2-3",
             f"structure={rep.subject}",
             f"kind={rep.kind}",
             f"verdict={rep.verdict}",
             f"checked={rep.checked}"]
    return "\n".join(lines) + "\n"


GOLDENS = {
    "x2-matadd-AB": golden_x2_matadd_ab,
    "x2-matmul-AB": golden_x2_matmul_ab,
    "x2-matmul-AC": golden_x2_matmul_ac,
    "x2-nonassoc": golden_x2_nonassoc,
    "det-properties": golden_det_properties,
    "morphism-k-q2": golden_morphism_k_q2,
    "morphism-h2-h3": golden_morphism_h2_h3,
    "basis5-h3-2-3": golden_basis5_h3_2_3,
}


def load_golden(name):
    try:
        ref = resources.files("mvla").joinpath("goldens", f"{name}.txt")
        return ref.read_text(encoding="utf-8")
    except (FileNotFoundError, ModuleNotFoundError):
        return None


def write_all(directory=None):
    if directory is None:
        directory = Path(__file__).parent / "goldens"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, fn in sorted(GOLDENS.items()):
        (directory / f"{name}.txt").write_text(fn(), encoding="utf-8")
    return directory


if __name__ == "__main__":
    out = write_all()
    print(f"wrote {len(GOLDENS)} goldens to {out}")
