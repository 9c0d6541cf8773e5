#!/usr/bin/env python3
"""The local correction factors over the order-6 dihedral group.

At a place that ramifies in the tower, converting between the truncated and
untruncated normalizations of a leading term costs a pair (u, t) per
character: a root-of-unity factor u from Frobenius acting on the
inertia-fixed space, and a truncation factor t built from the missing Euler
factor. For the order-6 group there are exactly three ramification shapes,
and the whole table is a function of the residue size q and the trace a.
"""
from fractions import Fraction

from twistcong.groups import DihedralGroup
from twistcong.localfactors import parse_local_place, quadratic_point_count

s3 = DihedralGroup(3, [3])
LABELS = ("triv", "eps", "ind:1")

SHAPES = [
    ("reflection inertia, trivial Frobenius  (e=2, f=1)", ["t"], "1"),
    ("rotation inertia, trivial Frobenius    (e=3, f=1)", ["s1"], "1"),
    ("rotation inertia, reflection Frobenius (e=3, f=2)", ["s1"], "t"),
]


def show(q, a):
    n = q + 1 - a
    print(f"q = {q}, a = {a}   (point count N = {n}, N/q = {Fraction(n, q)})")
    for title, inertia, frob in SHAPES:
        # the place carries the pair of every character, computed when it is built
        place = parse_local_place(s3, q, a, inertia, frob)
        cells = []
        for label in LABELS:
            corr = place.corrections[label]
            cells.append(f"{label}: ({corr.u.rational_part()}, {corr.t})")
        print(f"  {title}:  " + "   ".join(cells))
    print()


show(19, 4)
show(2, -1)
show(577, 0)

# the one cell that is not just N/q or 1 is the quadratic character in the
# inert shape: its truncation factor (q+1+a)/q is the point count of the
# quadratic twist, equivalently the count over the residue extension divided
# through by the base count
q, a = 19, 4
n = q + 1 - a
n_up = quadratic_point_count(n, q)
print(f"over GF({q}^2) the curve has {n_up} points, and")
print(f"  (N_w / q_w) * (q_v / N_v) = ({n_up}/{q * q}) * ({q}/{n}) "
      f"= {Fraction(n_up, q * q) * Fraction(q, n)}")
print(f"  (q + 1 + a) / q         = {Fraction(q + 1 + a, q)}")
print()

# the sign column: u multiplies to -1 exactly when the inertia-fixed space
# carries Frobenius eigenvalue -1 an odd number of times; over a full tower
# the per-place u's multiply into the global sign of the functional equation
place = parse_local_place(s3, 19, 4, ["s1"], "t")
for label in LABELS:
    print(f"u({label}) = {place.corrections[label].u.rational_part()}")
