# A tour of the two-dimensional solution catalog.
#
# Eight parametric 4x4 matrices solve the braid-form Yang-Baxter equation
#     R12 R23 R12 = R23 R12 R23
# on the triple tensor power.  This script prints each one, re-checks the
# equation symbolically, and applies the four equation-preserving
# transformations.

from ybtrace import (
    CATALOG_NAMES,
    TransformSpec,
    check_ybe,
    get_rmatrix,
    is_spin_preserving,
    transform_rmatrix,
)
from ybtrace.ring import format_scalar
from ybtrace.tensor import SquareMatrix

for name in CATALOG_NAMES:
    spec = get_rmatrix(name)
    print(f"\n== {name} over generators {spec.ctx.generators} ==")
    for (r, c) in sorted(spec.matrix.entries):
        print(f"  [{r},{c}] = {format_scalar(spec.matrix.entries[(r, c)])}")
    print("  satisfies the Yang-Baxter equation:", bool(check_ybe(spec.matrix)))
    print("  spin preserving:", is_spin_preserving(spec.matrix))

# The four symmetries: similarity by kappa (Q x Q) . (Q x Q)^-1, transpose,
# an index shift mod 2, and the left-right flip.  Each maps solutions to
# solutions; the checker runs inside transform_rmatrix.
spec = get_rmatrix("R2.1")
q_mat = SquareMatrix.from_rows(spec.ctx, [[1, 1], [0, 1]])
transforms = [
    TransformSpec("similarity", kappa=spec.ctx.gen("q"), q=q_mat),
    TransformSpec("transpose"),
    TransformSpec("shift", n=1),
    TransformSpec("flip"),
]
print("\n== symmetries applied to R2.1 ==")
for t in transforms:
    out = transform_rmatrix(spec, t)
    print(f"  {t.kind}: transformed matrix still solves the equation "
          f"({len(out.entries)} entries)")
