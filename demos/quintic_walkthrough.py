#!/usr/bin/env python3
"""The bundled quintic example: quadratic irrationalities and relabeling.

This tower has degree 10 over the rationals with an imaginary quadratic
layer, and the twisted leading terms live in the real quadratic subfield of
the fifth cyclotomic field. The run shows the conjugate-pair recognition,
the invariance of the verdict under renaming the rotation generator, the
independent height-point route, and the Tate-Shafarevich predictions.
"""
from twistcong.bsdsquares import sha_predictions
from twistcong.dataset import load_bundled_dataset
from twistcong.engine import gz_constant, relabel_dataset, verify
from twistcong.report import format_algebraic, format_polynomial

ds = load_bundled_dataset("21a1-quintic-19")
result = verify(ds)

print("verdict:", result.verdict, " (p = 5, modulus 5^1)")
print()
print("the induced-orbit leading terms recognize as a conjugate pair:")
for label in ("ind:1", "ind:2"):
    cr = result.characters[label]
    print(f"  Q({label}) = {format_algebraic(cr.q_value)}")
print("  minimal polynomial:",
      format_polynomial(result.characters["ind:1"].min_poly))
print()

print("congruence sums:")
for line in result.congruences:
    print(f"  S({line.element}) = {line.value}   v_5 = {line.valuation_str()}")
print()

# naming the rotation generator is a bookkeeping choice; replacing it by any
# coprime power permutes the character labels and the S-values but cannot
# change the verdict
for a in (2, 3, 4):
    moved = relabel_dataset(load_bundled_dataset("21a1-quintic-19"), a)
    r = verify(moved)
    values = ", ".join(str(l.value) for l in r.congruences)
    print(f"generator -> generator^{a}:  verdict {r.verdict},  S = [{values}]")
print()

# over an imaginary quadratic layer the height-point constant comes from the
# curve itself: C = 4 * c_inf / (manin^2 * unit_count^2)
print("height-point route, derived constant C =", gz_constant(ds))
alt = verify(ds, route="gz")
print("height-point verdict:", alt.verdict)
for line in alt.congruences:
    print(f"  S({line.element}) = {line.value}   v_5 = {line.valuation_str()}")
print()

# solving the leading-term formula for each field in the tower predicts the
# order of the corresponding Tate-Shafarevich group
print("predicted Tate-Shafarevich orders:")
for name, sha in sorted(sha_predictions(ds).items()):
    print(f"  field {name}: {sha}")
print()
# the Cassels-Tate pairing on Sha of an elliptic curve is alternating, so a
# finite Sha has square order (Cassels, J. reine angew. Math. 211, 1962)
print("note the non-square order over the top field: a finite Tate-Shafarevich")
print("group of an elliptic curve has square order, so Sha(F) = 32 flags the")
print("dataset's F block as inconsistent")
