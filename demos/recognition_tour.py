#!/usr/bin/env python3
"""How decimals become exact algebraic numbers before any divisibility test.

Every p-adic statement in this package is made about exact rationals or
cyclotomic integers, never about floats. The bridge is interval arithmetic
plus rational reconstruction: a decimal with an error bar either pins down a
unique small-denominator rational, or the computation refuses to proceed.
"""
from fractions import Fraction

from twistcong.exact import (
    AmbiguousRecognitionError, CyclotomicNumber, DecimalWithError,
    RecognitionError, p_valuation, rational_reconstruct, real_embedding,
    recognize_orbit,
)

# a value known to 12 digits recognizes to the fraction it came from
x = DecimalWithError(Fraction("1.263157894737"), Fraction("0.000000000001"))
print("1.263157894737 +/-", float(x.abs_error), "->", rational_reconstruct(x))

# widen the error bar and the same digits stop being conclusive
wide = DecimalWithError(Fraction("1.263157894737"), Fraction("0.01"))
try:
    rational_reconstruct(wide)
except AmbiguousRecognitionError as e:
    print("with a 1e-2 bar:", e)

# and an absurd denominator bound fails loudly instead of guessing
try:
    rational_reconstruct(x, den_bound=3)
except RecognitionError as e:
    print("with denominators capped at 3:", e)
print()

# a Galois orbit is recognized at once: the decimals of sigma_a(x), a = 1, 2, 3,
# for x = 3 + 2(zeta_7 + zeta_7^-1), give the three coordinates of x in the
# real cubic subfield of Q(zeta_7), and the orbit follows by permuting them
z = CyclotomicNumber.zeta_power(7, 1)
x = 3 + 2 * (z + z.conjugate())
units = (1, 2, 3)
decimals = [DecimalWithError(real_embedding(x.galois_apply(a)).value, Fraction(1, 10 ** 30))
            for a in units]
orbit = recognize_orbit(decimals, 7, units)
print("orbit of 3 + 2(zeta_7 + zeta_7^-1) recognized in Q(zeta_7):")
for a, d, v in zip(units, decimals, orbit.values):
    print(f"  sigma_{a}: {float(d.value):+.15f} ->", [str(c) for c in v.coeffs])
print("  minimal polynomial coefficients, ascending:",
      [str(c) for c in orbit.min_poly])
print()

# valuations extend to cyclotomic numbers; the element 1 - zeta_5 is the
# standard uniformizer above 5, and x above has norm -7
z = CyclotomicNumber.zeta_power(5, 1)
pi5 = CyclotomicNumber.rational(1) - z
print("v_5(1 - zeta_5) =", p_valuation(pi5, 5))
print("v_5(1/25)       =", p_valuation(CyclotomicNumber.rational(Fraction(1, 25)), 5))
print("v_7(3 + 2(zeta_7 + zeta_7^-1)) =", p_valuation(orbit.values[0], 7))
