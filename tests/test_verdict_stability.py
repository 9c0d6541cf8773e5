"""The verdict is a property of the data's intervals, not of the points
written in them: moving every declared decimal inside its interval keeps the
verdict, and widening the intervals may turn it INCONCLUSIVE, never from
PASS to FAIL or back. The moved decimals are every analytic one with a
nonzero error (the two periods and each leading term) and every height
translate. The quintic's translates are exact, so its moves leave them be."""
import json
import random
from fractions import Fraction

import pytest
from test_dataset import bundled_doc

from twistcong.dataset import parse_dataset
from twistcong.engine import verify
from twistcong.exact import sqrt_rational_approx

DRAWS = 20
WIDENING = 10 ** 30


def planted_eps_septic():
    """The septic with its quadratic-twist leading term planted to recognize
    to exactly 5, as in tests/test_engine.py: a FAIL."""
    doc = bundled_doc("37a1-septic-577")
    analytic = parse_dataset(doc).analytic
    planted = analytic.omega_plus * 5 / sqrt_rational_approx(577, 45)
    doc["analytic"]["characters"]["eps"]["leading_term"] = {
        "value": str(planted.value), "abs_error": str(planted.abs_error)}
    return doc


CASES = {
    "37a1-septic-577": (lambda: bundled_doc("37a1-septic-577"), "PASS"),
    "21a1-quintic-19": (lambda: bundled_doc("21a1-quintic-19"), "PASS"),
    "planted-eps-septic": (planted_eps_septic, "FAIL"),
}


def declared_decimals(doc):
    """The {value, abs_error} objects of the moved decimals."""
    analytic = doc["analytic"]
    nodes = [analytic["omega_plus"], analytic.get("omega_minus")]
    nodes += [c["leading_term"] for c in analytic["characters"].values()]
    nodes += list(doc["heights"]["translates"].values())
    return [n for n in nodes if n is not None and Fraction(n["abs_error"]) != 0]


def moved(doc, rng, widening=1):
    """A copy of doc with each decimal moved uniformly inside its interval,
    its error then multiplied by widening."""
    doc = json.loads(json.dumps(doc))
    for node in declared_decimals(doc):
        error = Fraction(node["abs_error"])
        shift = error * Fraction(rng.randrange(-10 ** 6, 10 ** 6 + 1), 10 ** 6)
        node["value"] = str(Fraction(node["value"]) + shift)
        node["abs_error"] = str(error * widening)
    return doc


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_holds_inside_the_intervals(case):
    make, verdict = CASES[case]
    doc = make()
    assert verify(parse_dataset(doc)).verdict == verdict
    rng = random.Random(f"stability:{case}")
    for _ in range(DRAWS):
        assert verify(parse_dataset(moved(doc, rng))).verdict == verdict
        assert verify(parse_dataset(moved(doc, rng, WIDENING))).verdict in (verdict,
                                                                             "INCONCLUSIVE")


def test_the_moves_reach_every_declared_decimal():
    # both periods and every leading term; the septic's 14 translates too
    for name, count in (("37a1-septic-577", 2 + 5 + 14), ("21a1-quintic-19", 2 + 4)):
        assert len(declared_decimals(bundled_doc(name))) == count
