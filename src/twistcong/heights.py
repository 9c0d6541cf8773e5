"""Character-contracted heights and period assignments.

The height input is the Gram function of one rational point: the translates
t(g) = <Q, gQ>_F for g in the Galois group, where <,>_F is the Neron-Tate
pairing over the top field normalized so that <x,x>_F = [F:Q] * h(x) with h
the absolute canonical height. Character contraction uses the closed form

    h_psi = (1/2) * sum_{g in G} psi(g) * t(g),

which equals (psi(1)/(2|G|)) <T_psi Q, T_psi-dual Q> by Schur orthogonality.
An induced psi vanishes on the reflections and takes on P only the values
2cos(2 pi k/e), read from the cosine table cached once per field
(CyclotomicField.trace_embeddings); the translates sharing a coefficient are
summed first, so each distinct coefficient costs one interval product.
Regulators of subfields divide the Gram determinant of [F:E]-scaled pairings.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .exact import DecimalWithError, IntervalError, cyclotomic_field
from .groups import Character, DihedralGroup, GroupElement


class HeightDataError(ValueError):
    """Missing or inconsistent translate data."""


def validate_translates(group: DihedralGroup,
                        translates: Mapping[GroupElement, DecimalWithError]) -> None:
    """Every group element must appear, and t(g) must agree with t(g^-1)
    within the stated error bounds (the pairing is symmetric): once per pair
    of rotations, at its first member; a reflection is its own inverse."""
    for g in group.elements():
        if g not in translates:
            raise HeightDataError(f"missing translate at {group.format_element(g)}")
    for g in group.p_elements():
        inverse = g.inverse()
        if g.rot < inverse.rot and not translates[g].overlaps(translates[inverse]):
            raise HeightDataError(
                f"translates at {group.format_element(g)} and its inverse disagree")


def equivariant_height(char: Character, group: DihedralGroup,
                       translates: Mapping[GroupElement, DecimalWithError]
                       ) -> DecimalWithError:
    """h_psi = (1/2) sum_g psi(g) t(g), with exact character coefficients.

    The translates that share a coefficient c are pooled, and c multiplies
    each pool once: value c * sum(v), error |c| * sum(err) + c.err * sum(|v|)
    + c.err * sum(err), which is exactly the sum of the per-term errors of
    c * t(g). (|sum(v)| in place of sum(|v|) would be tighter, but would
    change the interval.)
    """
    if char.kind == "ind":
        # psi vanishes on the reflections; on P it is 2cos(2 pi k/e)
        e = group.exponent
        coefficients = cyclotomic_field(e).trace_embeddings
        keys = {}
        for g in group.p_elements():
            k = group.chi_exponent(char.chi, g)
            keys[g] = min(k, e - k)
    else:
        coefficients = {1: DecimalWithError.exact(1), -1: DecimalWithError.exact(-1)}
        keys = {g: -1 if char.kind == "eps" and g.flip else 1 for g in group.elements()}
    pools: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
    for g, key in keys.items():
        t = translates[g]
        v, a, err = pools.get(key, (0, 0, 0))
        pools[key] = (v + t.value, a + abs(t.value), err + t.abs_error)
    value = error = Fraction(0)
    for key, (v, a, err) in pools.items():
        c = coefficients[key]
        value += c.value * v
        error += abs(c.value) * err + c.abs_error * a + c.abs_error * err
    return DecimalWithError(value / 2, error / 2)


def height_factor(char: Character, group: DihedralGroup,
                  translates: Mapping[GroupElement, DecimalWithError] | None,
                  generic_char_kind: str) -> DecimalWithError:
    """The height factor H_psi in the normalized leading term: 1 at the
    character carrying the Mordell-Weil rank (generic_char_kind, "triv" for
    rank 0 and "eps" for rank 1 over the base), h_psi otherwise."""
    if char.kind == generic_char_kind:
        return DecimalWithError.exact(1)
    if translates is None:
        raise HeightDataError("height translates required for this character")
    return equivariant_height(char, group, translates)


def pairing_of_combinations(group: DihedralGroup,
                            translates: Mapping[GroupElement, DecimalWithError],
                            a: Mapping[GroupElement, Fraction],
                            b: Mapping[GroupElement, Fraction]) -> DecimalWithError:
    """<sum a_g gQ, sum b_h hQ>_F = sum a_g b_h t(g^-1 h)."""
    acc = DecimalWithError.exact(0)
    for g, ca in a.items():
        if ca == 0:
            continue
        for h, cb in b.items():
            if cb == 0:
                continue
            acc = acc + translates[g.inverse() * h] * (ca * cb)
    return acc


def _interval_det(rows: list[list[DecimalWithError]]) -> DecimalWithError:
    """Laplace expansion along the first row, each minor computed once: the
    minor on the last len(cols) rows is keyed by its column tuple cols, so an
    r x r determinant costs O(2^r * r) interval products rather than O(r!),
    and every minor is the very interval the plain recursion builds."""
    n = len(rows)
    if n == 0:
        return DecimalWithError.exact(1)

    @cache
    def minor(cols: tuple[int, ...]) -> DecimalWithError:
        row = rows[n - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        acc = DecimalWithError.exact(0)
        for j, c in enumerate(cols):
            term = row[c] * minor(cols[:j] + cols[j + 1:])
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    return minor(tuple(range(n)))


def regulator_from_translates(group: DihedralGroup,
                              translates: Mapping[GroupElement, DecimalWithError],
                              generators: Sequence[Mapping[GroupElement, Fraction]],
                              field_degree_over_base: int) -> DecimalWithError:
    """Regulator of the span of the given Z[G]-combinations of the point,
    with the pairing rescaled from the top field: <,>_E = <,>_F / [F:E].

    field_degree_over_base is [F:E]; the determinant of the r x r Gram matrix
    is divided by it once per row.
    """
    if field_degree_over_base < 1:
        raise HeightDataError("field degree ratio must be a positive integer")
    r = len(generators)
    rows = []
    for ga in generators:
        row = []
        for gb in generators:
            row.append(pairing_of_combinations(group, translates, ga, gb)
                       * Fraction(1, field_degree_over_base))
        rows.append(row)
    det = _interval_det(rows)
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
    picks up Omega- and the induced ones Omega+ * Omega-.
    """
    if char.kind == "triv":
        return omega_plus
    if K_real:
        if char.kind == "eps":
            return omega_plus
        return omega_plus * omega_plus
    if omega_minus is None:
        raise HeightDataError("imaginary quadratic layer needs the minus period")
    if char.kind == "eps":
        return omega_minus
    return omega_plus * omega_minus


def field_period(signature: tuple[int, int], omega_plus: DecimalWithError,
                 omega_minus: DecimalWithError | None,
                 c_infinity: int) -> DecimalWithError:
    """Omega(A/E) for a field E with r1 real and r2 complex embeddings:
    Omega+^r1 * (c_inf * Omega+ * Omega-)^r2."""
    r1, r2 = signature
    acc = DecimalWithError.exact(1)
    for _ in range(r1):
        acc = acc * omega_plus
    if r2:
        if omega_minus is None:
            raise HeightDataError("complex embeddings need the minus period")
        for _ in range(r2):
            acc = acc * (omega_plus * omega_minus * c_infinity)
    return acc
