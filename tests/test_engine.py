"""End-to-end verification on the bundled datasets, all routes and verdicts."""
import copy
from fractions import Fraction

import pytest
from test_dataset import ROOT, benchmark_doc, bundled_doc, gen_module

import twistcong.engine as engine
from twistcong.bsdsquares import field_regulator
from twistcong.dataset import DatasetError, load_bundled_dataset, parse_dataset
from twistcong.engine import (
    RouteDataError, assemble_numeric, gz_constant, gz_q_vector, height_norm, relabel_dataset,
    unit_and_equivariance, verify,
)
from twistcong.exact import (
    SQRT_DIGITS, CyclotomicNumber, DecimalWithError, RecognitionError, real_embedding,
    sqrt_rational_approx,
)
from twistcong.groups import character_orbits
from twistcong.heights import character_heights, omega_factor
from twistcong.localfactors import LocalPlace, discriminant_factor, parse_local_place
from twistcong.record import replace
from twistcong.report import render, structured_report

SEPTIC = "37a1-septic-577"
QUINTIC = "21a1-quintic-19"


def lines_by_element(result):
    return {l.element: l for l in result.congruences}


def s_multiset(result):
    return sorted(l.value for l in result.congruences)


# ---------------------------------------------------------------------------
# the two bundled examples on their default routes
# ---------------------------------------------------------------------------

def test_septic_default_verdict():
    r = verify(load_bundled_dataset(SEPTIC))
    assert r.verdict == "PASS"
    assert r.p == 7 and r.n_required == 1
    assert all(c.route == "qhat" for c in r.characters.values())

    q = {lbl: c.q_value for lbl, c in r.characters.items()}
    assert q["triv"] == CyclotomicNumber.rational(Fraction(-578, 577))
    assert q["eps"] == CyclotomicNumber.rational(4)
    for k in (1, 2, 3):
        assert q[f"ind:{k}"] == CyclotomicNumber.rational(Fraction(-2312, 577))

    by = lines_by_element(r)
    assert by["1"].value == Fraction(-16184, 577)
    assert by["1"].valuation == 1 and by["1"].ok
    for d in range(1, 7):
        key = "s1" if d == 1 else f"s1^{d}"
        assert by[key].value == 0 and by[key].valuation is None and by[key].ok
        assert by[key].valuation_str() == "inf"
    assert r.unit_ok and r.equivariance_ok
    assert r.membership_agrees is True
    assert r.shortcut_agrees is True


def test_septic_tower_with_a_cubic_irrational_orbit():
    # plant the orbit {ind:1, ind:2, ind:3} as the conjugates sigma_a(x),
    # a = 1, 2, 3, of x = 3 + 2(zeta_7 + zeta_7^-1), by scaling each leading
    # term; the conjugate-pair recognizer could not recognize it
    ds = load_bundled_dataset(SEPTIC)
    before = verify(ds).characters
    z = CyclotomicNumber.zeta_power(7, 1)
    x = 3 + 2 * (z + z.conjugate())
    want = {}
    for a in (1, 2, 3):
        label = f"ind:{a}"
        planted = x.galois_apply(a)
        recognized = before[label].recognized.rational_part()
        ca = ds.analytic.characters[label]
        ca.leading_term = ca.leading_term * (real_embedding(planted) / recognized)
        want[label] = planted * (before[label].q_value.rational_part() / recognized)
    r = verify(ds)
    assert not any(n.startswith("recognition") for n in r.notes)
    assert r.verdict in ("PASS", "FAIL")
    chars = structured_report(r)["characters"]
    for label, q in want.items():
        assert chars[label]["q_coefficients"] == [str(c) for c in q.coeffs]
        assert r.characters[label].min_poly == (7, 7, -7, 1)


def test_quintic_default_verdict():
    r = verify(load_bundled_dataset(QUINTIC))
    assert r.verdict == "PASS"
    assert r.p == 5 and r.n_required == 1
    # auto route: the quadratic twist term is truncated, the rest are not
    assert r.characters["triv"].route == "qhat"
    assert r.characters["eps"].route == "direct"
    assert r.characters["ind:1"].route == "qhat"

    q = {lbl: c.q_value for lbl, c in r.characters.items()}
    assert q["triv"] == CyclotomicNumber.rational(Fraction(8, 19))
    assert q["eps"] == CyclotomicNumber.rational(Fraction(24, 19))
    # -48 - 16*sqrt(5) and -48 + 16*sqrt(5) in the power basis of Q(zeta_5)
    assert q["ind:1"] == CyclotomicNumber(5, [-32, 0, 32, 32])
    assert q["ind:2"] == CyclotomicNumber(5, [-64, 0, -32, -32])
    # x^2 - 48*x + 256, ascending coefficients
    assert r.characters["ind:1"].min_poly == (Fraction(256), Fraction(-48), Fraction(1))

    by = lines_by_element(r)
    assert (by["1"].value, by["1"].valuation) == (Fraction(-69120, 361), 1)
    for key in ("s1", "s1^4"):
        assert (by[key].value, by[key].valuation) == (Fraction(-11360, 361), 1)
    for key in ("s1^2", "s1^3"):
        assert (by[key].value, by[key].valuation) == (Fraction(46400, 361), 2)
    assert all(l.ok for l in r.congruences)
    assert r.membership_agrees is True and r.shortcut_agrees is True


@pytest.mark.parametrize("name", [SEPTIC, QUINTIC])
def test_internal_identity(name):
    ds = load_bundled_dataset(name)
    r = verify(ds)
    total = sum((l.value for l in r.congruences), Fraction(0))
    base = (r.characters["triv"].q_value * r.characters["eps"].q_value).rational_part()
    assert total == ds.group.p_order * base


# ---------------------------------------------------------------------------
# route selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", ["direct", "qhat"])
def test_per_character_routes_cannot_be_forced(route):
    # each character's truncation flag chooses its route; a forced one could
    # only repeat auto's choice or stop
    with pytest.raises(DatasetError) as excinfo:
        verify(load_bundled_dataset(SEPTIC), route=route)
    assert str(excinfo.value) == f"options.route: unknown route {route!r}"
    doc = bundled_doc(SEPTIC)
    doc["options"]["route"] = route
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == f"options.route: unknown route {route!r}"


@pytest.mark.parametrize("doc", [bundled_doc(SEPTIC), bundled_doc(QUINTIC)] + [
    i["doc"] for i in gen_module().make_inputs("towers-auto", 1, ROOT / "src")],
    ids=lambda doc: doc["label"])
def test_each_route_follows_its_truncation_flag(doc):
    ds = parse_dataset(doc)
    r = verify(ds)
    assert r.characters
    for label, cr in r.characters.items():
        truncated = ds.analytic.characters[label].truncated
        assert cr.route == ("direct" if truncated else "qhat")
        u, t = cr.correction.u, cr.correction.t
        assert cr.q_value == cr.recognized * u * (1 if truncated else t)


def test_unknown_route_rejected():
    with pytest.raises(DatasetError, match="route"):
        verify(load_bundled_dataset(SEPTIC), route="sideways")


def test_gz_route_septic():
    ds = load_bundled_dataset(SEPTIC)
    # real quadratic layer: the curve constant must come pinned
    assert gz_constant(ds) == 4
    r = verify(ds, route="gz")
    assert r.verdict == "PASS"
    by = lines_by_element(r)
    # same sums as the L-value route: the constant matches the Q-vector exactly
    assert by["1"].value == Fraction(-16184, 577)
    assert all(by[k].value == 0 for k in by if k != "1")


def test_gz_route_quintic():
    ds = load_bundled_dataset(QUINTIC)
    # imaginary layer: C = 4*c_inf / (manin^2 * unit_count^2) = 8/16
    assert gz_constant(ds) == Fraction(1, 2)
    r = verify(ds, route="gz")
    assert r.verdict == "PASS"
    q = {lbl: c.q_value for lbl, c in r.characters.items()}
    # a different Q-vector than the L-value route, same verdict
    assert q["triv"] == CyclotomicNumber.rational(Fraction(16, 19))
    assert q["eps"] == CyclotomicNumber.rational(Fraction(24, 19))
    assert q["ind:1"] == CyclotomicNumber.rational(-1)
    by = lines_by_element(r)
    assert (by["1"].value, by["1"].valuation) == (Fraction(-1060, 361), 1)
    for key in ("s1", "s1^2", "s1^3", "s1^4"):
        assert (by[key].value, by[key].valuation) == (Fraction(745, 361), 1)


def test_gz_route_data_requirements():
    ds = load_bundled_dataset(SEPTIC)
    ds.options.gz_constant = None
    with pytest.raises(RouteDataError, match="real quadratic layer"):
        verify(ds, route="gz")
    ds = load_bundled_dataset(QUINTIC)
    ds.curve.unit_count_K = None
    with pytest.raises(RouteDataError, match="unit_count_K"):
        verify(ds, route="gz")


def test_gz_vector_with_explicit_constant():
    ds = load_bundled_dataset(QUINTIC)
    out = gz_q_vector(ds, constant=Fraction(3))
    assert out["triv"].q_value == CyclotomicNumber.rational(Fraction(96, 19))
    assert out["eps"].q_value == CyclotomicNumber.rational(Fraction(24, 19))


def test_equivariance_notes_name_the_first_failure():
    ds = load_bundled_dataset(QUINTIC)
    results = gz_q_vector(ds)
    assert unit_and_equivariance(ds.group, results) == (True, True, [])
    # zeta is moved by sigma_4, which fixes ind:1, and sigma_2 maps ind:1 to ind:2
    results["ind:1"] = replace(results["ind:1"], q_value=CyclotomicNumber.zeta_power(5, 1))
    assert unit_and_equivariance(ds.group, results) == (
        True, False, ["Q(ind:1) not fixed by its stabilizer",
                      "sigma_2(Q(ind:1)) != Q(ind:2)"])


def test_non_equivariant_q_vector_is_inconclusive(monkeypatch, capsys):
    """A Q-value moved off its Galois orbit makes some S(pi) irrational:
    verify names the first failure of the P-vector and tests no congruence."""
    from twistcong.cli import main

    def moved_q_vector(ds, constant=None):
        results = gz_q_vector(ds, constant)
        q = results["ind:1"].q_value + CyclotomicNumber.zeta_power(ds.group.exponent, 1)
        results["ind:1"] = replace(results["ind:1"], q_value=q)
        return results

    monkeypatch.setattr(engine, "gz_q_vector", moved_q_vector)
    r = verify(load_bundled_dataset(QUINTIC), route="gz")
    assert r.verdict == "INCONCLUSIVE" and r.unit_ok and not r.equivariance_ok
    assert r.congruences == [] and r.membership_agrees is None and r.shortcut_agrees is None
    note = "congruence sums not rational: the P-vector is not Galois-equivariant at chi=(1,), a=2"
    assert r.notes[-1] == note
    assert main(["verify", "--dataset", QUINTIC, "--route", "gz"]) == 2
    out, err = capsys.readouterr()
    assert note in out and err == ""


# ---------------------------------------------------------------------------
# failure and inconclusive paths
# ---------------------------------------------------------------------------

def test_perturbed_twist_term_fails():
    # plant a wrong quadratic-twist leading term recognizing to exactly 5:
    # S(1) picks up -578/577*5 + 3*2*(-2312/577) = -16762/577, prime to 7
    ds = load_bundled_dataset(SEPTIC)
    ca = ds.analytic.characters["eps"]
    ca.leading_term = ds.analytic.omega_plus * 5 / sqrt_rational_approx(577, 45)
    r = verify(ds)
    assert r.verdict == "FAIL"
    assert r.characters["eps"].q_value == CyclotomicNumber.rational(5)
    by = lines_by_element(r)
    assert (by["1"].value, by["1"].valuation, by["1"].ok) == (
        Fraction(-16762, 577), 0, False)
    for d in range(1, 7):
        key = "s1" if d == 1 else f"s1^{d}"
        assert (by[key].value, by[key].ok) == (Fraction(-578, 577), False)
    # every Q is still a p-unit and equivariant; the dual formulations both
    # reject, so the cross-checks agree
    assert r.unit_ok and r.equivariance_ok
    assert r.membership_agrees is True and r.shortcut_agrees is True


def test_small_denominator_bound_inconclusive():
    r = verify(load_bundled_dataset(QUINTIC), den_bound=1)
    assert r.verdict == "INCONCLUSIVE"
    assert any("recognition failed" in n for n in r.notes)
    assert not r.characters


def test_den_bound_override_leaves_dataset_untouched():
    ds = load_bundled_dataset(QUINTIC)
    assert verify(ds, den_bound=3).verdict == "INCONCLUSIVE"
    assert ds.options.den_bound == 10 ** 6
    assert verify(ds).verdict == "PASS"


@pytest.mark.parametrize("den_bound", [0, -5])
@pytest.mark.parametrize("route", [None, "gz"])
def test_nonpositive_den_bound_override_is_a_data_error(den_bound, route):
    # the auto route once reported "no rational with denominator <= 0" as
    # INCONCLUSIVE, and the gz route ignored the bound
    with pytest.raises(DatasetError) as excinfo:
        verify(load_bundled_dataset(QUINTIC), route=route, den_bound=den_bound)
    assert excinfo.value.path == "options.den_bound"


@pytest.mark.parametrize("n_override", [0, -1])
def test_nonpositive_modulus_override_is_a_data_error(n_override):
    with pytest.raises(DatasetError) as excinfo:
        verify(load_bundled_dataset(QUINTIC), n_override=n_override)
    assert str(excinfo.value) == f"options.p_power_required: must be at least 1, got {n_override}"


def test_wide_interval_inconclusive():
    ds = load_bundled_dataset(QUINTIC)
    ca = ds.analytic.characters["eps"]
    ca.leading_term = DecimalWithError(ca.leading_term.value, Fraction(3, 10))
    r = verify(ds)
    assert r.verdict == "INCONCLUSIVE"
    assert any("recognition ambiguous" in n for n in r.notes)


@pytest.mark.parametrize("abs_error", [Fraction(10) ** 400, Fraction(200000)],
                         ids=["1e400", "200000"])
def test_period_error_swallowing_the_period_is_inconclusive(abs_error):
    # each raised a raw IntervalError: division by an interval containing zero
    ds = load_bundled_dataset(QUINTIC)
    ds.analytic.omega_plus = replace(ds.analytic.omega_plus, abs_error=abs_error)
    r = verify(ds)
    assert r.verdict == "INCONCLUSIVE"
    assert r.notes == [
        "recognition failed: the period-height divisor of triv is an interval containing 0"]


def test_height_error_swallowing_the_height_is_inconclusive():
    ds = load_bundled_dataset(QUINTIC)
    one = ds.group.identity
    ds.heights.translates[one] = replace(ds.heights.translates[one], abs_error=Fraction(200000))
    r = verify(ds)
    assert r.verdict == "INCONCLUSIVE"
    assert r.notes == [
        "recognition failed: the period-height divisor of eps is an interval containing 0"]


def assembled_by_operators(ds, orbit, leading, norms):
    """assemble_numeric as first written: DecimalWithError's operators, term by term."""
    c = orbit[0]
    d = discriminant_factor(c, ds.tower.d_k_abs, ds.tower.d_K_abs,
                            ds.tower.conductor_norms.get(c.label, 1))
    sqrt_d = sqrt_rational_approx(d, SQRT_DIGITS)
    omega = omega_factor(c, ds.analytic.omega_plus, ds.analytic.omega_minus, ds.tower.K_real)
    return [sqrt_d * lead / (omega * norm) for lead, norm in zip(leading, norms)]


@pytest.mark.parametrize("workload, seed", [("bundled", 1), ("towers-auto", 1),
                                            ("towers-auto", 2)])
def test_assemble_numeric_matches_the_operator_composition(workload, seed):
    for inp in gen_module().make_inputs(workload, seed, ROOT / "src"):
        ds = parse_dataset(inp["doc"])
        heights = character_heights(ds.group, ds.heights.translates) if ds.heights else None
        factors = {}    # shared by the orbits, as in one recognize_characters call
        for orbit in character_orbits(ds.group):
            leading = [ds.analytic.characters[c.label].leading_term for c in orbit]
            norms = [height_norm(ds, c.label, heights) for c in orbit]
            expected = assembled_by_operators(ds, orbit, leading, norms)
            assert assemble_numeric(ds, orbit, leading, norms, factors) == expected
            assert assemble_numeric(ds, orbit, leading, norms) == expected


def test_a_divisor_touching_zero_at_an_endpoint_is_inconclusive():
    # |Omega * N| equal to its error bound: the closed interval holds 0
    ds = load_bundled_dataset(QUINTIC)
    omega = ds.analytic.omega_plus.value
    ds.analytic.omega_plus = DecimalWithError(omega, omega)
    r = verify(ds)
    assert r.verdict == "INCONCLUSIVE"
    assert r.notes == [
        "recognition failed: the period-height divisor of triv is an interval containing 0"]
    # the same at assemble_numeric, with the height's interval touching 0 and
    # then stopping just short of it
    ds.analytic.omega_plus = DecimalWithError.exact(omega)
    triv = next(orbit for orbit in character_orbits(ds.group) if orbit[0].label == "triv")
    lead = [ds.analytic.characters["triv"].leading_term]
    h = Fraction(3, 7)
    with pytest.raises(RecognitionError, match="divisor of triv is an interval containing 0"):
        assemble_numeric(ds, triv, lead, [DecimalWithError(h, h)])
    short = [DecimalWithError(h, h - Fraction(1, 10 ** 40))]
    assert assemble_numeric(ds, triv, lead, short) == assembled_by_operators(
        ds, triv, lead, short)


@pytest.mark.parametrize("name", [SEPTIC, QUINTIC])
def test_one_height_table_per_verify(name, monkeypatch):
    # every character's height comes from one pass over the translates
    calls = []

    def counted(group, translates):
        calls.append(group.order)
        return character_heights(group, translates)

    monkeypatch.setattr(engine, "character_heights", counted)
    assert verify(load_bundled_dataset(name)).verdict == "PASS"
    assert len(calls) == 1


@pytest.mark.parametrize("name", [SEPTIC, QUINTIC])
def test_one_square_root_and_period_per_orbit(name, monkeypatch):
    # conjugate characters share d_psi and Omega_psi: at most one call per
    # Galois orbit (triv, eps and one induced orbit on both datasets)
    calls = {"sqrt_rational_approx": 0, "omega_factor": 0}

    def counted(fn_name):
        fn = getattr(engine, fn_name)

        def wrapper(*args):
            calls[fn_name] += 1
            return fn(*args)
        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(engine, fn_name, counted(fn_name))
    assert verify(load_bundled_dataset(name)).verdict == "PASS"
    assert calls == {"sqrt_rational_approx": 3, "omega_factor": 3}


def test_one_square_root_and_period_per_kind_and_conductor_norm(monkeypatch):
    # the unramified seeded towers have several induced orbits, all of
    # conductor norm 1: one sqrt(d_psi) and one Omega_psi per kind
    calls = []
    monkeypatch.setattr(engine, "omega_factor",
                        lambda c, *args: calls.append(c.kind) or omega_factor(c, *args))
    orbit_counts = []
    for inp in gen_module().make_inputs("towers-auto", 1, ROOT / "src"):
        ds = parse_dataset(inp["doc"])
        orbit_counts.append(len(character_orbits(ds.group)))
        calls.clear()
        assert verify(ds).verdict == inp["expect"]["verdict"]
        assert sorted(calls) == ["eps", "ind", "triv"]
    assert max(orbit_counts) > 3


def test_hypothesis_violation_inconclusive():
    ds = load_bundled_dataset(QUINTIC)
    ds.curve.torsion["F"] = 40      # now p = 5 divides a torsion order
    r = verify(ds)
    assert r.verdict == "INCONCLUSIVE"
    assert not r.characters and not r.congruences
    assert any("hypothesis (b)" in n for n in r.notes)


def test_stricter_modulus_fails():
    # the quintic example holds mod 5 but not mod 25
    r = verify(load_bundled_dataset(QUINTIC), n_override=2)
    assert r.verdict == "FAIL"
    by = lines_by_element(r)
    assert not by["1"].ok and by["s1^2"].ok
    # the cross-checks are pinned to the default modulus and stay out of this
    assert r.membership_agrees is None
    assert r.shortcut_agrees is None


@pytest.mark.parametrize("name, power, agrees",
                         [(SEPTIC, 1, True), (QUINTIC, 1, True), (QUINTIC, 2, None)])
def test_pinned_modulus_reports_as_the_override(name, power, agrees):
    # the modulus alone decides the Z_p[P] cross-check: it runs at v_p(|P|) = 1,
    # whether the dataset pins the modulus or the caller overrides it
    ds = load_bundled_dataset(name)
    pinned = replace(ds, options=replace(ds.options, p_power_required=power))
    got, want = verify(pinned), verify(ds, n_override=power)
    assert got.membership_agrees is want.membership_agrees is agrees
    for fmt in ("text", "structured"):
        assert render(got, fmt) == render(want, fmt)


@pytest.mark.parametrize("n_override, noted", [(None, True), (2, True), (1, False)])
def test_group_ring_note_only_at_the_bound(n_override, noted):
    # the 3x3 tower's group-ring bound is v_3(9) = 2; a modulus set below it
    # does not come from the bound
    ds = parse_dataset(benchmark_doc("towers-gz", 1, "gz-3x3"))
    r = verify(ds, n_override=n_override)
    note = "non-cyclic p-part: testing modulus p^2 from the group-ring bound"
    assert (note in r.notes) is noted
    assert any("group-ring bound" in n for n in r.notes) is noted


def test_bad_override_rejected():
    with pytest.raises(DatasetError, match="p_power_required"):
        verify(load_bundled_dataset(QUINTIC), n_override=0)
    # the command line rejects both before loading; library callers still get this
    with pytest.raises(DatasetError, match="den_bound"):
        verify(load_bundled_dataset(QUINTIC), den_bound=0)


# ---------------------------------------------------------------------------
# labeling invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,units", [(SEPTIC, (2, 3, 5)), (QUINTIC, (2, 3, 4))])
def test_relabel_preserves_verdict(name, units):
    ds = load_bundled_dataset(name)
    base = verify(load_bundled_dataset(name))
    for a in units:
        moved = relabel_dataset(load_bundled_dataset(name), a)
        r = verify(moved)
        assert r.verdict == base.verdict == "PASS"
        assert s_multiset(r) == s_multiset(base)
        # each place's (u, t) table moved with the labels, and it is the table
        # that the moved Galois data give
        fmt = moved.group.format_element
        for label, pl in moved.places.items():
            assert pl.corrections == {ds.group.galois_label(lbl, a): corr
                                      for lbl, corr in ds.places[label].corrections.items()}
            rebuilt = parse_local_place(moved.group, pl.q, pl.a, [fmt(g) for g in pl.inertia],
                                        fmt(pl.frobenius))
            assert rebuilt.corrections == pl.corrections
    assert ds.group.format_element(ds.group.generator(0)) == "s1"


@pytest.mark.parametrize("a", [2, 3, 4])
def test_relabel_moves_regulator_generators(a):
    # generators not closed under s -> s^a: their combinations must move with
    # the labels, or the regulator changes (19.125 became 19.828125)
    ds = load_bundled_dataset(QUINTIC)
    ds.bsd["F"].regulator_generators = [{ds.group.parse_element(name): Fraction(1)}
                                        for name in ("1", "s1", "s1^2")]
    moved = relabel_dataset(ds, a)
    assert field_regulator(ds, ds.bsd["F"]).value == Fraction(153, 8)
    assert field_regulator(moved, moved.bsd["F"]) == field_regulator(ds, ds.bsd["F"])


def test_relabel_needs_coprime_power():
    with pytest.raises(DatasetError, match="coprime"):
        relabel_dataset(load_bundled_dataset(QUINTIC), 5)


def hand_relabel(ds, a):
    """relabel_dataset written out field by field: the oracle for the walk."""
    group = ds.group
    a_inv = pow(a, -1, group.exponent)
    new = copy.deepcopy(ds, {id(group): group})
    if new.heights is not None:
        new.heights.translates = {
            g: ds.heights.translates[group.element(tuple(a * r for r in g.rot), g.flip)]
            for g in group.elements()}

    def move(g):
        return group.element(tuple(a_inv * r for r in g.rot), g.flip)

    new.places = {
        label: LocalPlace(q=pl.q, a=pl.a, inertia=tuple(move(g) for g in pl.inertia),
                          frobenius=move(pl.frobenius),
                          corrections={group.galois_label(lbl, a): corr
                                       for lbl, corr in pl.corrections.items()})
        for label, pl in ds.places.items()}
    new.analytic.characters = {group.galois_label(lbl, a): ca
                               for lbl, ca in ds.analytic.characters.items()}
    new.tower.conductor_norms = {group.galois_label(lbl, a): nf
                                 for lbl, nf in ds.tower.conductor_norms.items()}
    for name, fb in new.bsd.items():
        src = ds.bsd[name]
        fb.leading_characters = {group.galois_label(lbl, a): mult
                                 for lbl, mult in src.leading_characters.items()}
        fb.leading_overrides = {group.galois_label(lbl, a): v
                                for lbl, v in src.leading_overrides.items()}
        if src.regulator_generators is not None:
            fb.regulator_generators = [{move(g): c for g, c in combo.items()}
                                       for combo in src.regulator_generators]
    return new


@pytest.mark.parametrize("name", [SEPTIC, QUINTIC])
def test_relabel_walk_matches_the_field_by_field_oracle(name):
    ds = load_bundled_dataset(name)
    for a in ds.group.galois_unit_reps():
        moved = relabel_dataset(ds, a)
        assert moved == hand_relabel(ds, a)
        assert moved.group is ds.group
        # the inverse relabeling restores the dataset
        assert relabel_dataset(moved, pow(a, -1, ds.group.exponent)) == ds
        # no container is shared with the input
        moved.curve.torsion["base"] = 0
        assert ds.curve.torsion != moved.curve.torsion


@pytest.mark.parametrize("name", [SEPTIC, QUINTIC])
def test_relabel_and_back_gives_the_same_repr(name):
    # the repr names every field of every record, each in its order
    ds = load_bundled_dataset(name)
    for a in ds.group.galois_unit_reps():
        back = relabel_dataset(relabel_dataset(ds, a), pow(a, -1, ds.group.exponent))
        assert repr(back) == repr(ds)
