"""Tate-Shafarevich order predictions for the fields in the tower.

Each field block of a dataset gives one prediction: the Birch--Swinnerton-Dyer
leading-term formula solved for the order of Sha and recognized as a rational.
Everything is exact rational arithmetic; decimals only enter via the leading
terms and are recognized before any divisibility statement is made.
"""
from __future__ import annotations

from fractions import Fraction

from .dataset import Dataset, DatasetError, FieldBlock
from .exact import (SQRT_DIGITS, DecimalWithError, IntervalError, rational_reconstruct,
                    sqrt_rational_approx)
from .groups import Character
from .heights import field_period, regulator_from_translates
from .localfactors import global_correction


def _detruncated_leading(ds: Dataset, label: str) -> DecimalWithError:
    ca = ds.analytic.characters[label]
    value = ca.leading_term
    if ca.truncated:
        char = Character.from_label(ds.group, label)
        places = [ds.places[s] for s in ds.tower.S_r]
        corr = global_correction(char, places)
        value = value / corr.t
    return value


def field_leading_term(ds: Dataset, fb: FieldBlock) -> DecimalWithError:
    """L*(A/E, 1) as the product of the character leading terms appearing in
    the factorization of the L-series of A over E, with any per-field
    overrides taking precedence."""
    prod = DecimalWithError.exact(1)
    for label, mult in fb.leading_characters.items():
        if label in fb.leading_overrides:
            base = fb.leading_overrides[label]
        else:
            base = _detruncated_leading(ds, label)
        for _ in range(mult):
            prod = prod * base
    return prod


def field_regulator(ds: Dataset, fb: FieldBlock) -> DecimalWithError:
    if fb.regulator is not None:
        return fb.regulator
    if fb.regulator_generators is not None:
        try:
            return regulator_from_translates(ds.group, ds.heights.translates,
                                             fb.regulator_generators, ds.group.order // fb.degree)
        except IntervalError as e:
            raise DatasetError(f"bsd.{fb.name}.regulator_generators", str(e)) from e
    return DecimalWithError.exact(1)


def bsd_quotient(ds: Dataset, fb: FieldBlock) -> DecimalWithError:
    """B_E = L*(A/E,1) * sqrt|d_E| / (Omega(A/E) * Reg(A/E))."""
    num = field_leading_term(ds, fb) * sqrt_rational_approx(fb.d_abs, SQRT_DIGITS)
    omega = field_period(fb.signature, ds.analytic.omega_plus,
                         ds.analytic.omega_minus, ds.curve.c_infinity)
    divisor = omega * field_regulator(ds, fb)
    if abs(divisor.num) <= divisor.err:
        raise DatasetError(f"bsd.{fb.name}", "the period times the regulator may be 0")
    return num / divisor


def sha_prediction(ds: Dataset, field_name: str) -> Fraction:
    """Solve the leading-term formula for the Tate-Shafarevich order of the
    named field block and return it as an exact rational."""
    if field_name not in ds.bsd:
        raise DatasetError(f"bsd.{field_name}", "no such field block in this dataset")
    fb = ds.bsd[field_name]
    b = bsd_quotient(ds, fb)
    sha = b * Fraction(fb.torsion ** 2) / (Fraction(fb.tamagawa_product()) * fb.omega_quotient)
    return rational_reconstruct(sha, ds.options.den_bound)


def sha_predictions(ds: Dataset) -> dict[str, Fraction]:
    return {name: sha_prediction(ds, name) for name in ds.bsd}
