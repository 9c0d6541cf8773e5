"""The nine acceptance checks, one test and one summary line each.

Every expected value here was computed away from the implementation (by hand
or with an independent throwaway script) and is asserted exactly; tolerances
appear only where a check is inherently numeric, and are stated inline.
"""
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import CRITERION_LINES
from test_dataset import bundled_doc
from test_exact import legendre_symbol, sqrt_in_cyclotomic

from twistcong.bsdsquares import sha_predictions
from twistcong.cli import main
from twistcong.dataset import load_bundled_dataset
from twistcong.engine import (
    CharacterResult, congruence_lines, relabel_dataset, unit_and_equivariance,
    verify,
)
from twistcong.exact import (
    CyclotomicNumber, DecimalWithError, p_valuation, rational_reconstruct,
    recognize_orbit, sqrt_rational_approx,
)
from twistcong.groups import (
    Character, DihedralGroup, center_integrality, character_sums,
    irreducible_characters, kolyvagin_identity, res_map, zp_P_membership,
)
from twistcong.localfactors import (
    global_correction, local_correction, parse_local_place, quadratic_point_count,
)


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"CRITERION {n}: FAIL - {description}")
        raise
    CRITERION_LINES.append(f"CRITERION {n}: PASS - {description}")


def test_criterion_1_septic_end_to_end():
    with criterion(1, "septic example end to end, exact Q-vector and residues"):
        ds = load_bundled_dataset("37a1-septic-577")
        t0 = time.perf_counter()
        r = verify(ds)
        elapsed = time.perf_counter() - t0
        assert r.verdict == "PASS"
        q = {lbl: c.q_value for lbl, c in r.characters.items()}
        assert q["triv"] == CyclotomicNumber.rational(Fraction(-578, 577))
        assert q["eps"] == CyclotomicNumber.rational(4)
        for k in (1, 2, 3):
            assert q[f"ind:{k}"] == CyclotomicNumber.rational(Fraction(-2312, 577))
        assert r.unit_ok and r.equivariance_ok
        by = {l.element: l for l in r.congruences}
        assert by["1"].value == Fraction(-16184, 577) and by["1"].valuation == 1
        for el, l in by.items():
            assert l.ok
            if el != "1":
                assert l.value == 0
        assert elapsed < 1.0


def test_criterion_2_quintic_end_to_end():
    with criterion(2, "quintic example end to end, both labelings"):
        ds = load_bundled_dataset("21a1-quintic-19")
        t0 = time.perf_counter()
        r = verify(ds)
        elapsed = time.perf_counter() - t0
        assert r.verdict == "PASS"
        q = {lbl: c.q_value for lbl, c in r.characters.items()}
        assert q["triv"] == CyclotomicNumber.rational(Fraction(8, 19))
        assert q["eps"] == CyclotomicNumber.rational(Fraction(24, 19))
        assert q["ind:1"] + q["ind:2"] == CyclotomicNumber.rational(-96)
        assert r.characters["ind:1"].min_poly == (
            Fraction(256), Fraction(-48), Fraction(1))
        assert all(l.ok for l in r.congruences)
        assert all(l.valuation >= 1 for l in r.congruences)
        # the same physical data under every relabeling of the rotation
        # generator must verify identically
        for a in (2, 3, 4):
            rr = verify(relabel_dataset(load_bundled_dataset("21a1-quintic-19"), a))
            assert rr.verdict == "PASS"
            assert all(l.ok for l in rr.congruences)
        assert elapsed < 1.0


def test_criterion_3_local_factor_table():
    with criterion(3, "order-6 local-factor table, all nine cells"):
        s3 = DihedralGroup(3, [3])
        triv = Character.from_label(s3, "triv")
        eps = Character.from_label(s3, "eps")
        ind = Character.from_label(s3, "ind:1")

        def cells(place):
            return {lbl: (local_correction(ch, place).u.rational_part(),
                          local_correction(ch, place).t)
                    for lbl, ch in (("triv", triv), ("eps", eps), ("ind", ind))}

        for q, a in [(2, -1), (2, 2), (3, 3), (5, -3), (19, 4), (23, 0),
                     (101, 18), (577, 0)]:
            nq = Fraction(q + 1 - a, q)
            ramified_reflection = parse_local_place(s3, q, a, ["t"], "1")
            assert cells(ramified_reflection) == {
                "triv": (-1, nq), "eps": (1, Fraction(1)), "ind": (-1, nq)}
            inert_rotation = parse_local_place(s3, q, a, ["s1"], "1")
            assert cells(inert_rotation) == {
                "triv": (-1, nq), "eps": (-1, nq), "ind": (1, Fraction(1))}
            full = parse_local_place(s3, q, a, ["s1"], "t")
            assert cells(full) == {
                "triv": (-1, nq), "eps": (1, Fraction(q + 1 + a, q)),
                "ind": (1, Fraction(1))}
            # the quadratic-character cell equals the point-count quotient of
            # the residue extension times the inverse base quotient
            nv = q + 1 - a
            nw = quadratic_point_count(nv, q)
            assert Fraction(q + 1 + a, q) == Fraction(nw, q * q) * Fraction(q, nv)


def test_criterion_4_group_ring_identity():
    with criterion(4, "group-ring averaging identity for odd sizes 3..25"):
        t0 = time.perf_counter()
        assert all(kolyvagin_identity(m) for m in range(3, 26, 2))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_5_membership_oracle():
    with criterion(5, "membership test vs direct reconstruction, 1000 samples"):
        g3 = DihedralGroup(3, [3])
        rng = random.Random(1009)
        mismatches = 0
        for _ in range(1000):
            cs = [Fraction(rng.randrange(-27, 28), rng.choice([1, 1, 2, 3, 9, 27]))
                  for _ in range(3)]
            evals = {}
            for avec in g3.chi_vectors():
                acc = CyclotomicNumber.rational(0)
                for pi, c in zip(g3.p_elements(), cs):
                    acc = acc + c * g3.chi_value(avec, pi)
                evals[avec] = acc
            report = zp_P_membership(character_sums(evals, g3), g3)
            expected = all(c.denominator % 3 != 0 for c in cs)
            if report.ok != expected:
                mismatches += 1
            if report.ok:
                got = [report.coefficients[pi.rot] for pi in g3.p_elements()]
                if got != cs:
                    mismatches += 1
        assert mismatches == 0

        # center of the p-adic group ring: the identity row and class-sum rows
        # are integral, a planted denominator or a naive sign pattern is not
        def class_sum_row(h):
            cls = {g3.multiply(g3.multiply(g, h), g3.inverse(g)) for g in g3.elements()}
            return {c.label: c.value(h) * Fraction(len(cls), c.degree)
                    for c in irreducible_characters(g3)}

        ones = {c.label: CyclotomicNumber.rational(1)
                for c in irreducible_characters(g3)}
        assert center_integrality(ones, g3).ok
        assert center_integrality(class_sum_row(g3.element((1,))), g3).ok
        assert center_integrality(class_sum_row(g3.element((0,), 1)), g3).ok
        bad = class_sum_row(g3.element((1,)))
        bad["triv"] = CyclotomicNumber.rational(Fraction(2, 3))
        assert not center_integrality(bad, g3).ok
        naive = dict(ones)
        naive["ind:1"] = CyclotomicNumber.rational(-1)
        assert not center_integrality(naive, g3).ok


def test_criterion_6_square_sha_orders(tmp_path, capsys):
    with criterion(6, "square Sha orders on the bundled field blocks, planted breaks caught"):
        # a finite Sha has square order (Cassels), so bsd-squares exits 1 and
        # names every block whose predicted order is not the square of an integer
        def bsd_squares(name, edit=None):
            source = name
            if edit is not None:
                doc = bundled_doc(name)
                edit(doc["bsd"])
                source = tmp_path / f"{name}.json"
                source.write_text(json.dumps(doc))
            code = main(["bsd-squares", "--dataset", str(source)])
            return code, capsys.readouterr().out.splitlines()[-1]

        assert bsd_squares("37a1-septic-577") == (0, "  Sha(k) = 1")
        falsified = "falsified: Sha is not the square of an integer at "
        assert bsd_squares("21a1-quintic-19") == (1, falsified + "F")
        # one Tamagawa number off by 2: Sha(K) = 2 and Sha(L) = 8
        assert bsd_squares("37a1-septic-577",
                           lambda bsd: bsd["K"]["tamagawa"].update(inf=[1, 2])) == (
            1, falsified + "K")
        assert bsd_squares("21a1-quintic-19",
                           lambda bsd: bsd["L"]["tamagawa"].update({"3": [4, 4, 2]})) == (
            1, falsified + "F, L")


def _constant_q_vector(group, C):
    """The height-point Q-vector over an unramified-everywhere tower: the
    curve constant at the rank-growing characters, 1 at the quadratic one."""
    out = {}
    for c in irreducible_characters(group):
        corr = global_correction(c, [])
        scale = Fraction(1) if c.kind == "eps" else C
        q = corr.u * (corr.t * scale)
        out[c.label] = CharacterResult(
            label=c.label, route="gz", declared_order=0, q_value=q,
            correction=corr, recognized=q, min_poly=None,
            p_valuation=p_valuation(q, group.p))
    return out


def test_criterion_7_height_point_route():
    with criterion(7, "curve-constant route passes for p-unit constants only"):
        rng = random.Random(71113)
        for p in (3, 5, 7, 11, 13):
            group = DihedralGroup(p, [p])
            for _ in range(100):
                num = rng.randrange(1, 400)
                den = rng.randrange(1, 400)
                while num % p == 0:
                    num = rng.randrange(1, 400)
                while den % p == 0:
                    den = rng.randrange(1, 400)
                C = Fraction(rng.choice([-1, 1]) * num, den)
                results = _constant_q_vector(group, C)
                qv = {lbl: r.q_value for lbl, r in results.items()}
                lines = congruence_lines(group, character_sums(res_map(qv, group), group), 1)
                unit_ok, eq_ok, _ = unit_and_equivariance(group, results)
                assert all(l.ok for l in lines)
                assert unit_ok and eq_ok
                # scaling the constant into or out of p breaks p-unitness
                for bad in (C * p, C / p):
                    bad_results = _constant_q_vector(group, bad)
                    bad_unit, _, _ = unit_and_equivariance(group, bad_results)
                    assert not bad_unit


def test_criterion_8_sha_predictions():
    with criterion(8, "Tate-Shafarevich order predictions on both datasets"):
        assert sha_predictions(load_bundled_dataset("37a1-septic-577")) == {
            "k": Fraction(1), "K": Fraction(1)}
        assert sha_predictions(load_bundled_dataset("21a1-quintic-19")) == {
            "k": Fraction(1), "K": Fraction(1), "L": Fraction(4), "F": Fraction(32)}


def test_criterion_9_recognition_round_trips():
    with criterion(9, "recognition round-trips, rational and quadratic"):
        rng = random.Random(90001)
        failures = 0
        for _ in range(10 ** 4):
            den = rng.randrange(1, 10 ** 4 + 1)
            num = rng.randrange(-10 ** 4, 10 ** 4 + 1)
            x = Fraction(num, den)
            # fifteen significant digits of x, with an honest error bar
            err = Fraction(1, 10 ** 15) * max(1, abs(x))
            jitter = err * Fraction(rng.randrange(-499, 500), 1000)
            if rational_reconstruct(DecimalWithError(x + jitter, err),
                                    den_bound=10 ** 4) != x:
                failures += 1
        assert failures == 0

        for p in (5, 13):
            # sqrt(p) from a Gauss sum, computed apart from the recognizer
            root_exact = sqrt_in_cyclotomic(p, p)
            root_num = sqrt_rational_approx(p, 40)
            # sigma_u moves sqrt(p) to -sqrt(p) for a non-residue u
            units = (1, next(a for a in range(2, p) if legendre_symbol(a, p) == -1))
            for _ in range(500):
                r = Fraction(rng.randrange(-60, 61), rng.randrange(1, 7))
                c = Fraction(rng.randrange(1, 41), rng.randrange(1, 7))
                xs = [DecimalWithError.exact(r) + c * root_num,
                      DecimalWithError.exact(r) - c * root_num]
                orb = recognize_orbit(xs, p, units, 10 ** 6)
                assert orb.min_poly == (r * r - c * c * p, -2 * r, Fraction(1))
                want_plus = CyclotomicNumber.rational(r) + c * root_exact
                want_minus = CyclotomicNumber.rational(r) - c * root_exact
                if list(orb.values) != [want_plus, want_minus]:
                    failures += 1
        assert failures == 0
