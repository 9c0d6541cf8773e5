"""Sha predictions from field blocks and the sextic-tower consistency checks."""
import random
import time
from fractions import Fraction

import pytest
from test_dataset import bundled_doc

import twistcong.bsdsquares as bsdsquares
from twistcong.bsdsquares import (
    NeronRow, S3Instance, TamagawaRow, _detruncated_leading, _smallest_block_with,
    bsd_quotient, character_bsd_quotients,
    field_leading_term, field_regulator, mod_square_equivalent,
    neron_quotient_check, plant_violation, random_s3_instance,
    regulator_normalization, s3_consistency, sha_prediction, sha_predictions,
    tamagawa_congruence,
)
from twistcong.dataset import DatasetError, load_bundled_dataset, parse_dataset
from twistcong.engine import recognize_characters
from twistcong.exact import SQRT_DIGITS, CyclotomicNumber, recognize_orbit, sqrt_rational_approx
from twistcong.groups import character_orbits, orbit_units
from twistcong.heights import character_heights, omega_factor
from twistcong.localfactors import discriminant_factor


def test_mod_square_equivalent():
    assert mod_square_equivalent(Fraction(2), Fraction(8))
    assert mod_square_equivalent(Fraction(-3), Fraction(-27, 4))
    assert not mod_square_equivalent(Fraction(2), Fraction(3))
    assert not mod_square_equivalent(Fraction(2), Fraction(-2))
    with pytest.raises(ValueError):
        mod_square_equivalent(Fraction(0), Fraction(1))


def test_mod_square_is_an_equivalence():
    rng = random.Random(5)
    for _ in range(200):
        x = Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
        s = Fraction(rng.randrange(1, 12), rng.randrange(1, 12)) ** 2
        assert mod_square_equivalent(x, x * s)
        assert mod_square_equivalent(x * s, x)


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
# per-character quotients with regulator normalization
# ---------------------------------------------------------------------------

def test_regulator_normalization_values():
    ds = load_bundled_dataset("21a1-quintic-19")
    assert regulator_normalization(ds, "triv").value == 1
    assert regulator_normalization(ds, "eps").value == Fraction(13, 4)
    assert regulator_normalization(ds, "ind:1").value == Fraction(99, 64)
    assert regulator_normalization(ds, "ind:2").value == Fraction(99, 64)


def test_regulator_normalization_is_a_ratio():
    # the septic blocks both compute their regulators from the same height
    # translates; the quadratic one comes out exactly twice the base one
    ds = load_bundled_dataset("37a1-septic-577")
    r = regulator_normalization(ds, "eps")
    assert r.value == 2


def test_regulator_normalization_needs_blocks():
    ds = load_bundled_dataset("37a1-septic-577")
    with pytest.raises(DatasetError, match="no field block carries"):
        regulator_normalization(ds, "ind:1")
    doc = bundled_doc("37a1-septic-577")
    doc["bsd"].pop("k")
    with pytest.raises(DatasetError, match="base-field block"):
        regulator_normalization(parse_dataset(doc), "eps")


def test_character_quotients_septic():
    # only base and quadratic blocks are bundled, so the vector restricts to
    # the two degree-one characters
    ds = load_bundled_dataset("37a1-septic-577")
    q = character_bsd_quotients(ds)
    assert q == {"triv": CyclotomicNumber.rational(2),
                 "eps": CyclotomicNumber.rational(2)}
    # with a real quadratic layer the two quotients multiply to the
    # quadratic block's field-level quotient
    prod = (q["triv"] * q["eps"]).rational_part()
    assert bsd_quotient(ds, ds.bsd["K"]).contains(prod)


def test_character_quotients_quintic():
    ds = load_bundled_dataset("21a1-quintic-19")
    q = character_bsd_quotients(ds)
    assert q["triv"] == CyclotomicNumber.rational(Fraction(1, 4))
    assert q["eps"] == CyclotomicNumber.rational(1)
    assert q["ind:1"] + q["ind:2"] == CyclotomicNumber.rational(Fraction(3328, 33))
    assert q["ind:1"] * q["ind:2"] == CyclotomicNumber.rational(Fraction(65536, 99))
    # imaginary quadratic layer: the degree-one product picks up the
    # component count of the real place that becomes complex
    prod = (q["triv"] * q["eps"]).rational_part()
    layer = bsd_quotient(ds, ds.bsd["K"]) * ds.curve.c_infinity
    assert layer.contains(prod)


def test_character_quotients_with_trivial_regulators():
    # forcing all explicit regulators to 1 reduces the vector to
    # sqrt(d) * L / Omega, which lands on clean rationals here
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["K"]["regulator"] = {"value": "1", "abs_error": "0"}
    doc["bsd"]["L"]["regulator"] = {"value": "1", "abs_error": "0"}
    q = character_bsd_quotients(parse_dataset(doc))
    assert q["triv"] == CyclotomicNumber.rational(Fraction(1, 4))
    assert q["eps"] == CyclotomicNumber.rational(Fraction(13, 4))
    assert q["ind:1"] + q["ind:2"] == CyclotomicNumber.rational(156)
    assert q["ind:1"] * q["ind:2"] == CyclotomicNumber.rational(1584)


def direct_bsd_quotients(ds):
    """The per-character loop: sqrt(d_psi) and Omega_psi computed afresh for
    every character. Returns the assembled intervals and the recognized
    values, by label."""
    intervals, values = {}, {}
    for orbit, units in zip(character_orbits(ds.group), orbit_units(ds.group)):
        if orbit[0].label != "triv" and _smallest_block_with(ds, orbit[0].label) is None:
            continue
        reg = regulator_normalization(ds, orbit[0].label)
        numerics = []
        for c in orbit:
            d = discriminant_factor(c, ds.tower.d_k_abs, ds.tower.d_K_abs,
                                    ds.tower.conductor_norms.get(c.label, 1))
            sqrt_d = sqrt_rational_approx(d, SQRT_DIGITS)
            omega = omega_factor(c, ds.analytic.omega_plus, ds.analytic.omega_minus,
                                 ds.tower.K_real)
            numerics.append(sqrt_d * _detruncated_leading(ds, c.label) / (omega * reg))
        orb = recognize_orbit(numerics, ds.group.exponent, units, ds.options.den_bound)
        for c, x, value in zip(orbit, numerics, orb.values):
            intervals[c.label], values[c.label] = x, value
    return intervals, values


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
def test_character_quotients_match_the_per_character_loop(name, monkeypatch):
    # the shared per-orbit assembly gives Fraction-identical intervals
    ds = load_bundled_dataset(name)
    want_intervals, want_values = direct_bsd_quotients(ds)
    seen = []

    def recording(xs, *args):
        seen.extend(xs)
        return recognize_orbit(xs, *args)

    monkeypatch.setattr(bsdsquares, "recognize_orbit", recording)
    got = character_bsd_quotients(ds)
    assert got == want_values and list(got) == list(want_values)
    for x, want in zip(seen, want_intervals.values(), strict=True):
        assert (x.value, x.abs_error) == (want.value, want.abs_error)


def test_character_quotients_restrict_to_available_blocks():
    doc = bundled_doc("37a1-septic-577")
    doc["bsd"].pop("K")
    q = character_bsd_quotients(parse_dataset(doc))
    assert set(q) == {"triv"}


def test_height_and_regulator_normalizations_agree_mod_squares():
    # the same leading terms normalized by the equivariant height pairing
    # and by field regulators differ only by rational squares and the
    # component-count factor 2; frozen for both bundled datasets
    ds = load_bundled_dataset("21a1-quintic-19")
    heights = character_heights(ds.group, ds.heights.translates)
    h1, h2 = heights["ind:1"], heights["ind:2"]
    assert (h1 * h2).contains(Fraction(99, 16))
    assert mod_square_equivalent(Fraction(99, 16),
                                 regulator_normalization(ds, "ind:1").value)

    ds7 = load_bundled_dataset("37a1-septic-577")
    q7 = character_bsd_quotients(ds7)
    rec = recognize_characters(ds7)
    for label, ratio in (("triv", Fraction(2)), ("eps", Fraction(1, 2))):
        assert q7[label] == ratio * rec[label].recognized
        assert mod_square_equivalent(ratio, Fraction(2))


# ---------------------------------------------------------------------------
# per-place bookkeeping rows
# ---------------------------------------------------------------------------

def test_tamagawa_rows():
    grow = TamagawaRow("3", 1, (1,), (4,), "I0*")
    assert grow.square_consistent()
    assert "1 -> 4" in grow.case_note()

    split = TamagawaRow("7", 2, (2, 2), (2, 2, 2), "I2")
    assert split.square_consistent()
    assert "splits" in split.case_note()

    broken = TamagawaRow("5", 1, (1,), (2,), "I1")
    assert not broken.square_consistent()

    ok, verdicts = tamagawa_congruence([grow, split, broken])
    assert not ok
    assert [v for _, v, _ in verdicts] == [True, True, False]


def test_neron_rows():
    assert NeronRow("3", 1, (1, 1), (2, 1)).consistent()
    assert NeronRow("2", 0, (0,), (0, 0)).consistent()
    assert not NeronRow("3", 1, (1,), (3, 0)).consistent()
    ok, verdicts = neron_quotient_check([NeronRow("3", 2, (2, 2), (3, 3))])
    assert ok and verdicts == [("3", True)]


def test_q_products_normalization():
    inst = S3Instance(b_base=Fraction(3), b_quadratic=Fraction(5),
                      b_cubic=Fraction(7), c_infinity=2)
    q1, qe, qp = inst.q_products()
    assert q1 == 6
    assert qe == Fraction(10, 6)
    assert qp == Fraction(28, 6)
    # the congruence reduces to b_base*b_quad/b_cubic being a square
    assert mod_square_equivalent(q1 * qe, qp) == mod_square_equivalent(
        Fraction(3) * 5, Fraction(7))


def test_square_congruence_tracks_field_quotients():
    base = S3Instance(b_base=Fraction(2), b_quadratic=Fraction(1),
                      b_cubic=Fraction(2), c_infinity=1)
    assert base.square_congruence_holds()
    off = S3Instance(b_base=Fraction(2), b_quadratic=Fraction(1),
                     b_cubic=Fraction(3), c_infinity=1)
    assert not off.square_congruence_holds()


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

def test_random_instances_are_consistent():
    rng = random.Random(20260823)
    for _ in range(500):
        inst = random_s3_instance(rng)
        ok, parts = s3_consistency(inst)
        assert ok, parts


def test_planted_violations_are_caught():
    rng = random.Random(97)
    for _ in range(200):
        broken = plant_violation(random_s3_instance(rng), rng)
        ok, parts = s3_consistency(broken)
        assert not ok
        # the row-level check and the cross-field congruence both notice
        assert not parts["tamagawa"]
        assert not parts["square_congruence"]
        assert parts["neron"]


def test_instances_with_more_places():
    rng = random.Random(7)
    for places in (1, 2, 5):
        inst = random_s3_instance(rng, places=places)
        assert len(inst.tam_rows) == places
        assert s3_consistency(inst)[0]
