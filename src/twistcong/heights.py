"""Character-contracted heights and period assignments.

The height input is the Gram function of one rational point: the translates
t(g) = <Q, gQ>_F for g in the Galois group, where <,>_F is the Neron-Tate
pairing over the top field normalized so that <x,x>_F = [F:Q] * h(x) with h
the absolute canonical height. Character contraction uses the closed form

    h_psi = (1/2) * sum_{g in G} psi(g) * t(g),

which equals (psi(1)/(2|G|)) <T_psi Q, T_psi-dual Q> by Schur orthogonality.
character_heights computes every h_psi of one translate table in a single
pass. It brings the translates to one common denominator D and reads the
field's cosine table (CyclotomicField.cosines: every value 2cos(2 pi k/e) an
induced psi takes on P, integers over one denominator C) as it is. It then
pools the translates by coefficient in plain integers, once per Galois orbit
of characters, and builds each height from its integers at the end. An
induced psi vanishes on the reflections.

Regulators of subfields divide the Gram determinant of [F:E]-scaled
pairings. pairing_of_combinations pools the coefficient products by
translate in integers and gives the term-by-term interval. The determinant
is exact on the midpoints; its Hadamard error bound contains the interval of
the term-by-term Laplace expansion.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .exact import DecimalWithError, IntervalError, common_denominator, cyclotomic_field, scaled
from .groups import Character, DihedralGroup, GroupElement


def character_heights(group: DihedralGroup,
                      translates: Mapping[GroupElement, DecimalWithError]
                      ) -> dict[str, DecimalWithError]:
    """h_psi = (1/2) sum_g psi(g) t(g) for every irreducible psi, by label.

    The translates are brought to one denominator D; the cosine table is
    over its own denominator C. The translates sharing a coefficient c are
    pooled in integers, and c multiplies each pool once: value c * sum(v), error
    |c| * sum(err) + c.err * sum(|v|) + c.err * sum(err), which is exactly
    the sum of the per-term errors of c * t(g). (|sum(v)| in place of
    sum(|v|) would be tighter, but would change the interval.) Each height
    is then a value and an error over 2*D (linear psi) or 2*D*C (induced psi).
    """
    d = common_denominator(translates.values())
    rotations = []    # (v, |v|, err) over D, in group.p_elements() order
    flip_v = flip_e = 0
    for g in group.elements():
        v, err = scaled(translates[g], d)
        if g.flip:
            flip_v += v
            flip_e += err
        else:
            rotations.append((v, abs(v), err))
    rot_v = sum(v for v, _, _ in rotations)
    all_e = flip_e + sum(err for _, _, err in rotations)
    heights = {
        "triv": DecimalWithError._of(rot_v + flip_v, all_e, 2 * d),
        "eps": DecimalWithError._of(rot_v - flip_v, all_e, 2 * d),
    }
    # an induced psi vanishes on the reflections; at g in P it is 2cos(2 pi k/e),
    # k = chi_exponent(chi, g), read at min(k, e - k). Pools are made once per orbit:
    # the member the unit u reaches has u*k, and k -> u*k is one-to-one on pools
    e = group.exponent
    half = e // 2 + 1
    c, cos_v, cos_e = cyclotomic_field(e).cosines
    for (orbit, units), row in zip(group.character_table.orbits[2:], group.orbit_exponents):
        pool_v, pool_a, pool_e = [0] * half, [0] * half, [0] * half
        for k, (v, a, err) in zip(row, rotations):
            k = min(k, e - k)
            pool_v[k] += v
            pool_a[k] += a
            pool_e[k] += err
        pools = range(0, half, gcd(e, *row))  # the k of a row are multiples of their gcd
        for char, u in zip(orbit, units):
            value = error = 0
            for k in pools:
                j = u * k % e
                cv, ce = cos_v[j], cos_e[j]
                value += cv * pool_v[k]
                error += abs(cv) * pool_e[k] + ce * pool_a[k] + ce * pool_e[k]
            heights[char.label] = DecimalWithError._of(value, error, 2 * d * c)
    return {label: heights[label] for label in group.character_table.by_label}


def pairing_of_combinations(group: DihedralGroup,
                            translates: Mapping[GroupElement, DecimalWithError],
                            a: Mapping[GroupElement, Fraction],
                            b: Mapping[GroupElement, Fraction]) -> DecimalWithError:
    """<sum a_g gQ, sum b_h hQ>_F = sum a_g b_h t(g^-1 h).

    With the coefficients as integers over denominators A and B, the products
    c = A a_g B b_h are pooled by g^-1 h into sum(c) and sum(|c|): each distinct
    translate t makes one product, value t.value * sum(c), error t.err * sum(|c|)
    over A B, exactly the sum of the per-term intervals."""
    (da, ia), (db, ib) = map(_integer_coefficients, (a, b))
    pools: dict[GroupElement, list] = {}
    for g, ca in ia:
        g_inv = group.inverse(g)
        for h, cb in ib:
            pool = pools.setdefault(group.multiply(g_inv, h), [0, 0])
            pool[0] += ca * cb
            pool[1] += abs(ca * cb)
    d = common_denominator(map(translates.__getitem__, pools))
    value = error = 0
    for x, (c, c_abs) in pools.items():
        v, err = scaled(translates[x], d)
        value += v * c
        error += err * c_abs
    return DecimalWithError._of(value, error, d * da * db)


def _integer_coefficients(combination: Mapping[GroupElement, Fraction]) -> tuple[int, list]:
    """The least common denominator A of the coefficients, and each nonzero one times A."""
    den = lcm(1, *(c.denominator for c in combination.values()))
    return den, [(g, c.numerator * (den // c.denominator)) for g, c in combination.items() if c]


def _interval_det(rows: list[list[DecimalWithError]]) -> DecimalWithError:
    """Integer pairs (value, error) over one denominator D. The value is the
    exact determinant of the midpoints by Bareiss's fraction-free elimination,
    O(r^3) products. The error is Hadamard's bound prod(|a_i|_1 + |e_i|_1) -
    prod(|a_i|_1) over the midpoint rows a_i and error rows e_i: by Hadamard's
    inequality, each mixed term of the expansion in rows is at most the
    product of its rows' l1 norms."""
    n = len(rows)
    d = common_denominator(x for row in rows for x in row)
    entries = [[scaled(x, d) for x in row] for row in rows]
    m = [[v for v, _ in row] for row in entries]
    sign = prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            sign = 0
            break
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    norms = [sum(abs(v) for v, _ in row) for row in entries]
    error = prod(a + sum(e for _, e in row) for a, row in zip(norms, entries)) - prod(norms)
    return DecimalWithError._of(sign * prev, error, d ** n)


def regulator_from_translates(group: DihedralGroup,
                              translates: Mapping[GroupElement, DecimalWithError],
                              generators: Sequence[Mapping[GroupElement, Fraction]],
                              field_degree_over_base: int) -> DecimalWithError:
    """Regulator of the span of the given Z[G]-combinations of the point,
    with the pairing rescaled from the top field: <,>_E = <,>_F / [F:E].

    field_degree_over_base is [F:E], a positive integer since parse_dataset
    holds each field degree to a divisor of |G|; the determinant of the r x r
    Gram matrix is divided by it once per row. The interval determinant is
    homogeneous of degree r, so this equals scaling every entry.
    """
    r = len(generators)
    gram = _interval_det([[pairing_of_combinations(group, translates, ga, gb)
                           for gb in generators] for ga in generators])
    det = gram / field_degree_over_base ** r
    if r and not det.is_positive():
        raise IntervalError("regulator Gram determinant is not certifiably positive")
    return det


def omega_factor(char: Character, omega_plus: DecimalWithError,
                 omega_minus: DecimalWithError | None,
                 K_real: bool) -> DecimalWithError:
    """Period attached to a character over a rational base.

    Counting fixed vectors of complex conjugation on V_psi: over a real
    quadratic K (totally real tower) the quadratic character keeps Omega+ and
    the induced ones square it; over an imaginary K the quadratic character
    picks up Omega- and the induced ones Omega+ * Omega-; parse_dataset
    requires Omega- there.
    """
    if char.kind == "triv":
        return omega_plus
    if K_real:
        if char.kind == "eps":
            return omega_plus
        return omega_plus * omega_plus
    if char.kind == "eps":
        return omega_minus
    return omega_plus * omega_minus


def field_period(signature: tuple[int, int], omega_plus: DecimalWithError,
                 omega_minus: DecimalWithError | None,
                 c_infinity: int) -> DecimalWithError:
    """Omega(A/E) for a field E with r1 real and r2 complex embeddings:
    Omega+^r1 * (c_inf * Omega+ * Omega-)^r2; parse_dataset requires Omega-
    when r2 > 0."""
    r1, r2 = signature
    acc = DecimalWithError.exact(1)
    for _ in range(r1):
        acc = acc * omega_plus
    for _ in range(r2):
        acc = acc * (omega_plus * omega_minus * c_infinity)
    return acc
