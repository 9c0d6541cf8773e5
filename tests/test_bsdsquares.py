"""Sha predictions from field blocks, and the Artin formalism behind them."""
import time
from fractions import Fraction

import pytest
from test_dataset import bundled_doc

from twistcong.bsdsquares import (
    bsd_quotient, field_leading_term, field_regulator, sha_prediction, sha_predictions,
)
from twistcong.dataset import DatasetError, load_bundled_dataset, parse_dataset
from twistcong.exact import DecimalWithError
from twistcong.groups import Character
from twistcong.heights import character_heights, field_period, omega_factor
from twistcong.localfactors import discriminant_factor, global_correction


# ---------------------------------------------------------------------------
# Sha predictions on the bundled datasets
# ---------------------------------------------------------------------------

def test_septic_sha_trivial():
    ds = load_bundled_dataset("37a1-septic-577")
    assert sha_predictions(ds) == {"k": Fraction(1), "K": Fraction(1)}


def test_quintic_sha_orders():
    ds = load_bundled_dataset("21a1-quintic-19")
    assert sha_predictions(ds) == {
        "k": Fraction(1), "K": Fraction(1), "L": Fraction(4), "F": Fraction(32),
    }


def test_unknown_field_block():
    ds = load_bundled_dataset("21a1-quintic-19")
    with pytest.raises(DatasetError, match="no such field"):
        sha_prediction(ds, "M")


def test_field_leading_term_uses_overrides():
    ds = load_bundled_dataset("21a1-quintic-19")
    fb = ds.bsd["F"]
    assert "eps" in fb.leading_overrides
    with_override = field_leading_term(ds, fb)
    fb.leading_overrides = {}
    without = field_leading_term(ds, fb)
    # the override carries the untruncated twist term; dropping it changes
    # the product
    assert with_override.value != without.value


def test_field_regulators():
    ds = load_bundled_dataset("21a1-quintic-19")
    assert field_regulator(ds, ds.bsd["k"]).value == 1
    assert field_regulator(ds, ds.bsd["K"]).value == Fraction(13, 4)
    assert field_regulator(ds, ds.bsd["L"]).value == Fraction(99, 64)
    # the ten-dimensional block computes its regulator from translates
    f_reg = field_regulator(ds, ds.bsd["F"])
    assert ds.bsd["F"].regulator is None and f_reg.value > 0


def test_rank_zero_block_without_a_regulator_keeps_an_exact_one():
    # the quintic's base field has rank 0: no regulator is needed, and none is 1
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["k"]["regulator"] = None
    ds = parse_dataset(doc)
    assert ds.bsd["k"].regulator is None and ds.bsd["k"].regulator_generators is None
    reg = field_regulator(ds, ds.bsd["k"])
    assert (reg.value, reg.abs_error) == (1, 0)
    assert sha_predictions(ds) == sha_predictions(load_bundled_dataset("21a1-quintic-19"))


def test_ten_generator_block_ends_quickly():
    # all ten translates of the rank-5 F block: the Laplace recursion behind
    # the Gram determinant took 2.5 s at eight generators; a generator count
    # other than the rank now stops at the boundary
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["F"]["regulator_generators"] = [{g: "1"} for g in doc["heights"]["translates"]]
    assert len(doc["bsd"]["F"]["regulator_generators"]) == 10
    start = time.perf_counter()
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert time.perf_counter() - start < 0.5
    assert excinfo.value.path == "bsd.F.regulator_generators"
    assert "10 generators for Mordell-Weil rank 5" in str(excinfo.value)


def test_degenerate_generators_are_a_data_error_at_their_list():
    doc = bundled_doc("37a1-septic-577")
    doc["bsd"]["K"]["regulator_generators"] = [{"1": "0"}]
    ds = parse_dataset(doc)
    with pytest.raises(DatasetError) as excinfo:
        field_regulator(ds, ds.bsd["K"])
    assert excinfo.value.path == "bsd.K.regulator_generators"
    assert "not certifiably positive" in str(excinfo.value)


def test_a_period_its_error_swallows_is_a_data_error_at_the_block():
    doc = bundled_doc("37a1-septic-577")
    doc["analytic"]["omega_plus"]["abs_error"] = "3"
    ds = parse_dataset(doc)
    for name in ("k", "K"):
        with pytest.raises(DatasetError) as excinfo:
            bsd_quotient(ds, ds.bsd[name])
        assert excinfo.value.path == f"bsd.{name}"


def test_bsd_quotients_are_recognizable():
    ds = load_bundled_dataset("21a1-quintic-19")
    for name, expected in (("k", Fraction(1, 4)), ("K", Fraction(1, 8)),
                           ("L", Fraction(64)), ("F", Fraction(256))):
        b = bsd_quotient(ds, ds.bsd[name])
        assert abs(b.value - expected) <= 2 * b.abs_error + Fraction(1, 10 ** 20)


# ---------------------------------------------------------------------------
# field blocks against the per-character factors
# ---------------------------------------------------------------------------

def test_regulator_normalization_values():
    # the regulator of each layer over the base field's
    ds = load_bundled_dataset("21a1-quintic-19")
    base = field_regulator(ds, ds.bsd["k"])
    assert base.value == 1
    assert (field_regulator(ds, ds.bsd["K"]) / base).value == Fraction(13, 4)
    assert (field_regulator(ds, ds.bsd["L"]) / base).value == Fraction(99, 64)


def test_regulator_normalization_is_a_ratio():
    # the septic blocks both compute their regulators from the same height
    # translates; the quadratic one comes out exactly twice the base one
    ds = load_bundled_dataset("37a1-septic-577")
    assert (field_regulator(ds, ds.bsd["K"]) / field_regulator(ds, ds.bsd["k"])).value == 2


def test_induced_heights_multiply_to_a_rational():
    ds = load_bundled_dataset("21a1-quintic-19")
    heights = character_heights(ds.group, ds.heights.translates)
    assert (heights["ind:1"] * heights["ind:2"]).contains(Fraction(99, 16))


def detruncated(ds, label):
    """L_psi with the local factor at S_r divided out when it is truncated."""
    ca = ds.analytic.characters[label]
    if not ca.truncated:
        return ca.leading_term
    places = [ds.places[s] for s in ds.tower.S_r]
    return ca.leading_term / global_correction(Character.from_label(ds.group, label), places).t


def block_factors(ds, fb, disc=discriminant_factor, period=omega_factor):
    """(prod d_psi^m, prod Omega_psi^m, prod L_psi^m) over the characters
    psi with multiplicity m in the L-series factorization of the block."""
    d, omega, lead = 1, DecimalWithError.exact(1), DecimalWithError.exact(1)
    for label, mult in fb.leading_characters.items():
        char = Character.from_label(ds.group, label)
        d_psi = disc(char, ds.tower.d_k_abs, ds.tower.d_K_abs,
                     ds.tower.conductor_norms.get(label, 1))
        omega_psi = period(char, ds.analytic.omega_plus, ds.analytic.omega_minus,
                           ds.tower.K_real)
        lead_psi = detruncated(ds, label)
        for _ in range(mult):
            d, omega, lead = d * d_psi, omega * omega_psi, lead * lead_psi
    return d, omega, lead


def block_identity_failures(ds, **factors):
    """The field blocks whose discriminant, period or leading term is not
    the product of its characters' factors, the period up to the component
    count c_inf of each complex place. A block with leading_overrides
    replaces some L_psi on purpose, so its leading term is not compared."""
    failures = []
    for name, fb in ds.bsd.items():
        d, omega, lead = block_factors(ds, fb, **factors)
        period = field_period(fb.signature, ds.analytic.omega_plus, ds.analytic.omega_minus,
                              ds.curve.c_infinity)
        if d != fb.d_abs:
            failures.append(f"{name}: discriminant")
        if not (period - omega * ds.curve.c_infinity ** fb.signature[1]).contains(0):
            failures.append(f"{name}: period")
        if not fb.leading_overrides and not field_leading_term(ds, fb).overlaps(lead):
            failures.append(f"{name}: leading term")
    return failures


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
def test_field_blocks_are_products_of_their_characters(name):
    # the Artin formalism that ties the field-level quotients of the Sha
    # predictions to the per-character factors that verify divides out
    assert block_identity_failures(load_bundled_dataset(name)) == []


def test_field_block_identity_catches_a_wrong_factor():
    ds = load_bundled_dataset("21a1-quintic-19")

    def plus_for_minus(char, omega_plus, omega_minus, K_real):
        return omega_factor(char, omega_plus, omega_plus, K_real)

    def no_conductor(char, d_k_abs, d_K_abs, conductor_norm=1):
        return discriminant_factor(char, d_k_abs, d_K_abs)

    # every block above the base has a complex place, where Omega- enters;
    # the induced characters' conductors enter only the blocks that carry them
    assert sorted(block_identity_failures(ds, period=plus_for_minus)) == [
        "F: period", "K: period", "L: period"]
    assert sorted(block_identity_failures(ds, disc=no_conductor)) == [
        "F: discriminant", "L: discriminant"]
