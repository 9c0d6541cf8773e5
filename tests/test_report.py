"""Deterministic rendering of results, text and structured."""
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from test_exact import sqrt_in_cyclotomic

from twistcong import cli
from twistcong.dataset import load_bundled_dataset
from twistcong.engine import verify
from twistcong.exact import CyclotomicNumber, cyclotomic_field
from twistcong.report import (
    REPORT_VERSION, _quadratic_split, format_algebraic, format_polynomial, render, render_text,
    render_structured, structured_report, write_json,
)


def fresh_result(name):
    return verify(load_bundled_dataset(name))


@pytest.mark.parametrize("name", ["37a1-septic-577", "21a1-quintic-19"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_rendering_is_deterministic(name, fmt):
    one = render(fresh_result(name), fmt)
    two = render(fresh_result(name), fmt)
    assert one == two
    assert one.endswith("\n")


def test_text_report_lines_septic():
    text = render_text(fresh_result("37a1-septic-577"))
    assert "dataset: 37a1-septic-577" in text
    assert "p = 7   modulus: 7^1   route: auto" in text
    assert re.search(r"^  S\(1\) = -16184/577, v_7 = 1$", text, re.M)
    assert re.search(r"^  S\(s1\^3\) = 0, v_7 = inf$", text, re.M)
    assert "Q(triv) = -578/577" in text
    assert "Q(eps) = 4" in text
    assert "Q(ind:2) = -2312/577" in text
    assert "p-unit condition: ok" in text
    assert "group-ring membership: agrees" in text
    assert text.rstrip().endswith("verdict: PASS")


def test_text_report_lines_quintic():
    text = render_text(fresh_result("21a1-quintic-19"))
    assert re.search(r"^  S\(s1\^2\) = 46400/361, v_5 = 2$", text, re.M)
    assert "Q(ind:1) = -48 - 16*sqrt(5)" in text
    assert "Q(ind:2) = -48 + 16*sqrt(5)" in text
    assert "induced orbit minimal polynomial: x^2 - 48*x + 256" in text
    # hypothesis (g) is not decidable from the dataset and reads as assumed
    assert re.search(r"^  \(g\) assumed", text, re.M)


def test_text_report_failure_notes():
    ds = load_bundled_dataset("21a1-quintic-19")
    ds.curve.torsion["F"] = 40
    text = render_text(verify(ds))
    assert "FAILS" in text
    assert "verdict: INCONCLUSIVE" in text
    assert "notes:" in text


def test_structured_report_shape():
    doc = structured_report(fresh_result("21a1-quintic-19"))
    assert doc["report_version"] == REPORT_VERSION == 1
    assert doc["verdict"] == "PASS"
    assert doc["p"] == 5 and doc["n_required"] == 1
    ind = doc["characters"]["ind:1"]
    assert ind["q_value"] == "-48 - 16*sqrt(5)"
    assert ind["q_coefficients"] == ["-32", "0", "32", "32"]
    assert ind["conductor"] == 5
    assert ind["min_poly"] == ["256", "-48", "1"]
    assert doc["characters"]["eps"]["q_value"] == "24/19"
    assert doc["characters"]["eps"]["min_poly"] is None
    by_el = {c["element"]: c for c in doc["congruences"]}
    assert by_el["1"] == {"element": "1", "value": "-69120/361",
                          "valuation": "1", "ok": True}
    assert doc["checks"] == {"unit_ok": True, "equivariance_ok": True,
                             "membership_agrees": True, "shortcut_agrees": True}


def test_structured_report_is_json():
    out = render_structured(fresh_result("37a1-septic-577"))
    doc = json.loads(out)
    assert doc["dataset"] == "37a1-septic-577"
    # sorted keys make the serialization canonical
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# text that the encoder escapes: quotes, backslashes, control characters,
# non-ASCII inside and outside the basic plane, a lone surrogate
JSON_TEXT = st.text(
    st.sampled_from('"\\/\n\t\x00\x1f\x7f é€\u2028\ud800😀') | st.characters(), max_size=8)
JSON_LEAF = (st.none() | st.booleans() | JSON_TEXT
             | st.integers(min_value=-10 ** 40, max_value=10 ** 40))
JSON_TREE = st.recursive(
    JSON_LEAF, lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                              | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=40)


@given(JSON_TREE)
@settings(max_examples=200)
@example({})
@example([])
@example({"": {}, "a": [[], {}, [[]]], "b": ()})
@example({"ok": True, "none": None, "n": -10 ** 60, "\u00e9\"\\": "\x00\ud83d"})
def test_write_json_is_the_indented_standard_encoder(doc):
    assert write_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("leaf", [1.5, Fraction(1, 2), {1: "a"}, {"a": {2}}])
def test_write_json_rejects_what_reports_never_hold(leaf):
    with pytest.raises(TypeError):
        write_json(leaf)


def test_bsd_squares_structured_bytes(capsys):
    """A bsd-squares document, byte for byte as
    json.dumps(indent=2, sort_keys=True) writes it."""
    assert cli.main(["bsd-squares", "--dataset", "21a1-quintic-19", "--format",
                     "structured"]) == cli.EXIT_FAIL
    assert capsys.readouterr().out == """\
{
  "dataset": "21a1-quintic-19",
  "report_version": 1,
  "sha_predictions": [
    {
      "field": "F",
      "integral": true,
      "sha": "32",
      "square": false
    },
    {
      "field": "K",
      "integral": true,
      "sha": "1",
      "square": true
    },
    {
      "field": "L",
      "integral": true,
      "sha": "4",
      "square": true
    },
    {
      "field": "k",
      "integral": true,
      "sha": "1",
      "square": true
    }
  ]
}
"""


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        render(fresh_result("37a1-septic-577"), "yaml")


# ---------------------------------------------------------------------------
# display helpers
# ---------------------------------------------------------------------------

def test_format_algebraic_rational():
    assert format_algebraic(CyclotomicNumber.rational(Fraction(24, 19))) == "24/19"
    assert format_algebraic(CyclotomicNumber.rational(-7)) == "-7"


def test_format_algebraic_quadratic():
    assert format_algebraic(CyclotomicNumber(5, [-32, 0, 32, 32])) == "-48 - 16*sqrt(5)"
    assert format_algebraic(CyclotomicNumber(5, [-64, 0, -32, -32])) == "-48 + 16*sqrt(5)"
    root5 = sqrt_in_cyclotomic(5, 5)
    assert format_algebraic(root5) == "sqrt(5)"
    assert format_algebraic(-1 * root5) == "-sqrt(5)"
    assert format_algebraic(Fraction(1, 2) * root5) == "1/2*sqrt(5)"


@pytest.mark.parametrize("m", [5, 13, 17, 25, 29, 125])
def test_quadratic_split_reads_the_radicand_from_the_field(m):
    # the real quadratic subfield of Q(zeta_m) is Q(sqrt(p)): d = p, with p
    # also in the denominator of c
    p = next(q for q in (5, 13, 17, 29) if m % q == 0)
    root = sqrt_in_cyclotomic(p, m)
    rng = random.Random(m)
    for _ in range(20):
        r = Fraction(rng.randint(-99, 99), rng.choice((1, 2, 7, p, p * p)))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.choice((1, 3, p, p ** 3)))
        x = CyclotomicNumber.rational(r).promote(m) + c * root
        assert _quadratic_split(x) == (r, c, p)


@pytest.mark.parametrize("m", [3, 7, 11, 27])
def test_quadratic_split_declines_the_imaginary_subfield(m):
    # for p = 3 mod 4 the quadratic subfield is Q(sqrt(-p)), never real
    field = cyclotomic_field(m)
    one = CyclotomicNumber.rational(1).promote(m)
    gauss = sum((CyclotomicNumber.zeta_power(m, a * a * field.q) for a in range(1, field.p)),
                one)
    assert gauss * gauss == -field.p * one
    assert _quadratic_split(one + gauss) is None


def test_quadratic_split_declines_larger_real_subfields():
    # zeta_25^5 + zeta_25^-5 = 2cos(2pi/5) = (sqrt(5) - 1)/2 lies in Q(sqrt(5));
    # zeta^k + zeta^-k at p not dividing k generates the whole real subfield
    z = CyclotomicNumber.zeta_power
    assert _quadratic_split(z(25, 5) + z(25, -5)) == (Fraction(-1, 2), Fraction(1, 2), 5)
    for m in (13, 25, 29):
        assert _quadratic_split(z(m, 1) + z(m, -1)) is None
        assert _quadratic_split(z(m, 2) + z(m, -2) - 3 * (z(m, 1) + z(m, -1))) is None


def test_format_algebraic_power_basis():
    z = CyclotomicNumber.zeta_power(7, 1)
    out = format_algebraic(z)
    assert out == "z  [z = zeta_7]"
    out = format_algebraic(CyclotomicNumber.rational(1) + 2 * z ** 3)
    assert out == "1 + 2*z^3  [z = zeta_7]"


def test_format_polynomial():
    f = Fraction
    assert format_polynomial((f(256), f(-48), f(1))) == "x^2 - 48*x + 256"
    assert format_polynomial((f(0), f(1))) == "x"
    assert format_polynomial((f(-1), f(0), f(1))) == "x^2 - 1"
    assert format_polynomial((f(1, 2), f(1))) == "x + 1/2"
    assert format_polynomial((f(0),)) == "0"
    assert format_polynomial((f(2), f(3)), var="T") == "3*T + 2"
