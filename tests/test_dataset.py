"""Dataset schema: parsing, validation, hypotheses."""
import decimal
import importlib.util
import json
import time
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import twistcong.dataset as dataset
from twistcong.dataset import (
    MAX_P_ORDER, DatasetError, Options, _rational, bundled_dataset_names, check_hypotheses,
    load_bundled_dataset, load_dataset, parse_dataset,
)
from twistcong.engine import verify
from twistcong.record import replace
from twistcong.report import structured_report


QUINTIC, SEPTIC = "21a1-quintic-19", "37a1-septic-577"
ROOT = Path(__file__).resolve().parent.parent


def bundled_doc(name):
    text = (resources.files("twistcong") / "datasets" / f"{name}.json").read_text()
    return json.loads(text)


def gen_module():
    """perfbench/gen.py, the generator of the seeded benchmark inputs."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def benchmark_doc(workload, seed, name):
    """The dataset document of one seeded benchmark input."""
    return next(i["doc"] for i in gen_module().make_inputs(workload, seed, ROOT / "src")
                if i["name"] == name)


def test_bundled_names():
    assert bundled_dataset_names() == ["21a1-quintic-19", "37a1-septic-577"]
    with pytest.raises(DatasetError):
        load_bundled_dataset("no-such-curve")


def test_load_bundled():
    ds = load_bundled_dataset("37a1-septic-577")
    assert ds.group.p == 7 and ds.group.cyclic_factors == (7,)
    assert ds.curve.label == "37a1" and ds.curve.conductor == 37
    assert ds.tower.d_K_abs == 577 and ds.tower.K_real
    assert set(ds.places) == {"577"}
    assert ds.curve.rho_label() == "eps"
    ds2 = load_bundled_dataset("21a1-quintic-19")
    assert ds2.group.p == 5
    assert not ds2.tower.K_real
    assert ds2.curve.rho_label() == "triv"
    assert ds2.analytic.characters["eps"].truncated
    assert sorted(ds2.bsd) == ["F", "K", "L", "k"]


def test_load_from_path(tmp_path):
    doc = bundled_doc("37a1-septic-577")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc))
    ds = load_dataset(str(path))
    assert ds.label == "37a1-septic-577"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DatasetError):
        load_dataset(str(bad))


def test_vanishing_orders_and_power():
    ds = load_bundled_dataset("37a1-septic-577")
    assert ds.curve.vanishing_orders(ds.group) == {
        "triv": 1, "eps": 0, "ind:1": 1, "ind:2": 1, "ind:3": 1}
    assert verify(ds).n_required == 1
    assert verify(ds, n_override=3).n_required == 3


def test_hypotheses_all_hold_on_bundled():
    for name in bundled_dataset_names():
        ds = load_bundled_dataset(name)
        by_key = {h.key: h for h in check_hypotheses(ds)}
        assert sorted(by_key) == list("abcdefgh")
        assert by_key["g"].status == "undetermined"
        for key in "abcdefh":
            assert by_key[key].status == "holds", (name, key, by_key[key])


def test_hypothesis_failures_detected():
    doc = bundled_doc("21a1-quintic-19")
    doc["curve"]["torsion"]["F"] = 40          # picks up a factor of p = 5
    ds = parse_dataset(doc)
    by_key = {h.key: h for h in check_hypotheses(ds)}
    assert by_key["b"].status == "fails"
    assert "F:40" in by_key["b"].detail

    doc = bundled_doc("21a1-quintic-19")
    doc["tower"]["S_bad"] = ["3", "7", "19"]   # ramified place with bad reduction
    by_key = {h.key: h for h in check_hypotheses(parse_dataset(doc))}
    assert by_key["d"].status == "fails"

    doc = bundled_doc("21a1-quintic-19")
    doc["places"]["19"]["a"] = 5               # N_19 = 15, divisible by 5
    doc["places"]["19"].pop("pinned")          # the pins assume a = 4
    by_key = {h.key: h for h in check_hypotheses(parse_dataset(doc))}
    assert by_key["f"].status == "fails"

    doc = bundled_doc("37a1-septic-577")
    doc["analytic"]["characters"]["eps"]["order"] = 1
    by_key = {h.key: h for h in check_hypotheses(parse_dataset(doc))}
    assert by_key["h"].status == "fails"


def test_reject_wrong_version():
    # true and 1.0 were accepted, for True == 1 == 1.0
    for version in (2, True, 1.0, "1"):
        doc = bundled_doc("37a1-septic-577")
        doc["spec_version"] = version
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(doc)
        assert str(excinfo.value) == f"spec_version: unsupported version {version!r}"


def test_reject_missing_block():
    doc = bundled_doc("37a1-septic-577")
    del doc["curve"]
    with pytest.raises(DatasetError, match="curve"):
        parse_dataset(doc)


def test_reject_unknown_character_label():
    doc = bundled_doc("37a1-septic-577")
    doc["analytic"]["characters"]["ind:9"] = doc["analytic"]["characters"]["ind:1"]
    with pytest.raises(DatasetError, match="ind:9"):
        parse_dataset(doc)


def test_reject_missing_character_entry():
    doc = bundled_doc("37a1-septic-577")
    del doc["analytic"]["characters"]["ind:2"]
    with pytest.raises(DatasetError, match="missing characters"):
        parse_dataset(doc)


def test_reject_place_bookkeeping():
    doc = bundled_doc("37a1-septic-577")
    doc["places"]["13"] = {"q": 13, "a": 1, "inertia": ["t"], "frobenius": "1"}
    with pytest.raises(DatasetError, match="outside S_r"):
        parse_dataset(doc)
    doc = bundled_doc("37a1-septic-577")
    del doc["places"]["577"]
    with pytest.raises(DatasetError, match="no local data"):
        parse_dataset(doc)


def test_reject_bad_local_data():
    doc = bundled_doc("37a1-septic-577")
    doc["places"]["577"]["a"] = 100            # Hasse violation
    with pytest.raises(DatasetError, match="places.577"):
        parse_dataset(doc)


@pytest.mark.parametrize("q, ok", [
    (2, True), (9, True), (577, True), (3 ** 40, True), (6, False), (200000, False),
    pytest.param(7 * (10 ** 3999 + 3), False, id="7*(10^3999+3)-False")])
def test_residue_size_must_be_a_prime_power(q, ok):
    # only q < 2 was rejected: with q = 200000 and no pins verify printed PASS
    doc = bundled_doc("37a1-septic-577")
    del doc["places"]["577"]["pinned"]
    doc["places"]["577"]["q"] = q
    if ok:
        assert parse_dataset(doc).places["577"].q == q
        return
    start = time.perf_counter()
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert time.perf_counter() - start < 1.0
    # a number of more than 40 digits prints as its leading digits and its length
    shown = str(q) if q < 10 ** 40 else "70000000000000000000... (4000 digits)"
    assert str(excinfo.value) == (
        f"places.577: residue size {shown} is not a power of a prime below 2^78")
    assert len(str(excinfo.value)) < 200


@pytest.mark.parametrize("q, a, shown", [
    (577, 49, "trace 49 violates the Hasse bound for q = 577"),
    (3 ** 83, 2 * 3 ** 42,
     "trace 218837978263024718418 violates the Hasse bound for "
     "q = 3990838394187339929534246675572349035227"),
    (3 ** 84, 2 * 3 ** 42 + 1,
     "trace 218837978263024718419 violates the Hasse bound for "
     "q = 11972515182562019788... (41 digits)"),
    (3 ** 8000, 2 * 3 ** 4000 + 1,
     "trace 61101078251970178950... (1909 digits) violates the Hasse bound for "
     "q = 93333544088834579475... (3817 digits)")],
    ids=["577", "3^83", "3^84", "3^8000"])
def test_hasse_bound_message_stays_short(q, a, shown):
    # with q = 3^8000 the message printed both numbers whole, 7858 characters
    doc = bundled_doc("37a1-septic-577")
    del doc["places"]["577"]["pinned"]
    doc["places"]["577"].update(q=q, a=a)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == f"places.577: {shown}"
    assert len(str(excinfo.value)) < 200


def test_pinned_corrections_kept():
    # the place keeps the (u, t) of every character, the pinned ones included
    ds = load_bundled_dataset("37a1-septic-577")
    table = {label: (corr.u.rational_part(), corr.t)
             for label, corr in ds.places["577"].corrections.items()}
    assert table["triv"] == (Fraction(-1), Fraction(578, 577))
    assert table["eps"] == (Fraction(1), Fraction(1))
    assert table["ind:1"] == (Fraction(-1), Fraction(578, 577))
    assert set(table) == set(ds.group.character_table.by_label)


def test_reject_wrong_pin():
    doc = bundled_doc("37a1-septic-577")
    doc["places"]["577"]["pinned"]["eps"]["t"] = "2"
    with pytest.raises(DatasetError, match="pinned") as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "places.577"
    assert str(excinfo.value) == (
        "places.577: pinned correction for eps declares (u, t) = (1, 2) "
        "but the Galois data gives (1, 1)")


def z25_doc():
    """A Z/25 benchmark tower with one ramified place 11 whose inertia is the
    subgroup of order 5 and whose Frobenius is the generator s1: a character
    of order 5 keeps both eigenvalues chi(s1), chi-bar(s1), and its t-factor
    lies in the real subfield of Q(zeta_5) but not in Q."""
    doc = benchmark_doc("towers-gz", 1, "gz-25")
    doc["tower"]["S_r"] = ["11"]
    doc["places"] = {"11": {"q": 11, "a": 0, "inertia": ["s1^5"], "frobenius": "s1"}}
    return doc


def test_irrational_t_factor_is_a_data_error_at_its_place():
    # the parse once accepted this place, and verify then ended with an
    # ExactArithmeticError that named no field
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(z25_doc())
    assert excinfo.value.path == "places.11"
    assert str(excinfo.value) == "places.11: local t-factor of ind:5 failed to be rational"


def test_reject_pin_for_unknown_character():
    doc = bundled_doc("21a1-quintic-19")
    doc["places"]["2"]["pinned"]["ind:7"] = {"u": "1", "t": "1"}
    with pytest.raises(DatasetError, match="pinned"):
        parse_dataset(doc)


def test_reject_malformed_pin():
    doc = bundled_doc("21a1-quintic-19")
    doc["places"]["2"]["pinned"]["triv"] = {"u": "-1"}
    with pytest.raises(DatasetError, match="pinned"):
        parse_dataset(doc)


def test_reject_mixed_truncation_in_orbit():
    doc = bundled_doc("37a1-septic-577")
    doc["analytic"]["characters"]["ind:2"]["truncated"] = True
    with pytest.raises(DatasetError, match="truncation"):
        parse_dataset(doc)


@pytest.mark.parametrize("norms", [{"ind:2": 19}, {"ind:1": 361 * 19}, {"ind:2": None}])
def test_reject_conductor_norms_differing_in_orbit(norms):
    # conjugate characters have equal conductors; the engine takes one
    # discriminant factor per Galois orbit, and an absent norm counts as 1
    doc = bundled_doc("21a1-quintic-19")
    for label, value in norms.items():
        if value is None:
            del doc["tower"]["conductor_norms"][label]
        else:
            doc["tower"]["conductor_norms"][label] = value
    with pytest.raises(DatasetError, match="mixed conductor norms") as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "tower.conductor_norms"


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
@pytest.mark.parametrize("path", ["tower.K_real", "analytic.characters.ind:1.truncated"])
def test_reject_non_boolean_flag(path, value):
    # bool("false") is True: a quoted false once turned a PASS into a FAIL
    doc = bundled_doc("21a1-quintic-19")
    *parents, key = path.split(".")
    block = doc
    for name in parents:
        block = block[name]
    block[key] = value
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == path


def test_reject_bad_quadratic_rank():
    doc = bundled_doc("37a1-septic-577")
    doc["curve"]["rank_quadratic"] = 2
    with pytest.raises(DatasetError, match="rank_quadratic"):
        parse_dataset(doc)


def test_reject_missing_minus_period():
    doc = bundled_doc("21a1-quintic-19")
    doc["analytic"]["omega_minus"] = None
    with pytest.raises(DatasetError, match="omega_minus"):
        parse_dataset(doc)


def test_reject_complex_field_block_without_minus_period():
    # bsd-squares once ended in a HeightDataError traceback from the field
    # period, with exit 1, while verify passed on the same document
    doc = bundled_doc("37a1-septic-577")
    del doc["analytic"]["omega_minus"]
    doc["bsd"]["K"]["signature"] = [0, 1]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == ("analytic.omega_minus: bsd.K has complex places, "
                                  "which need the minus period")
    doc["bsd"]["K"]["signature"] = [2, 0]      # a real layer needs no minus period
    assert parse_dataset(doc).analytic.omega_minus is None


@pytest.mark.parametrize("name, block, rank", [
    ("21a1-quintic-19", "K", 1), ("21a1-quintic-19", "L", 2), ("37a1-septic-577", "k", 1)])
def test_reject_positive_rank_block_without_a_regulator(name, block, rank):
    # the regulator read as an exact 1: Sha(K) of the quintic was predicted as 13/4
    doc = bundled_doc(name)
    doc["bsd"][block]["regulator"] = None
    doc["bsd"][block]["regulator_generators"] = None
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == (f"bsd.{block}: Mordell-Weil rank {rank} needs a regulator "
                                  "or regulator generators")


def test_reject_regulator_generators_without_translates():
    # once a DatasetError at bsd.F from the Sha prediction, after the parse
    doc = bundled_doc("21a1-quintic-19")
    doc["heights"] = None
    for lbl in ("eps", "ind:1", "ind:2"):
        doc["analytic"]["characters"][lbl]["order"] = 0
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == ("bsd.F.regulator_generators: regulator generators need "
                                  "height translates")


def test_reject_leading_override_outside_the_blocks_l_series():
    # the override was accepted and never read: every Sha prediction held, exit 0
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["K"]["leading_overrides"] = {"ind:1": {"value": "12345.6", "abs_error": "0"}}
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "bsd.K.leading_overrides.ind:1"
    assert str(excinfo.value) == ("bsd.K.leading_overrides.ind:1: ind:1 is not among the "
                                  "block's leading_characters")


@pytest.mark.parametrize("name, block, regulator", [
    ("37a1-septic-577", "K", "3"), ("37a1-septic-577", "k", "1"),
    ("21a1-quintic-19", "F", "1")])
def test_reject_a_regulator_beside_its_generators(name, block, regulator):
    # the declared regulator won, and the generators were checked and never read
    doc = bundled_doc(name)
    doc["bsd"][block]["regulator"] = {"value": regulator, "abs_error": "0"}
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == (f"bsd.{block}: give a regulator or regulator "
                                  "generators, not both")


@pytest.mark.parametrize("kwargs, message", [
    ({"den_bound": 0}, "options.den_bound: must be at least 1, got 0"),
    ({"den_bound": -5}, "options.den_bound: must be at least 1, got -5"),
    ({"p_power_required": 0}, "options.p_power_required: must be at least 1, got 0"),
    ({"route": "sideways"}, "options.route: unknown route 'sideways'"),
])
def test_options_check_their_ranges(kwargs, message):
    # Options raises the reader's messages itself, so verify's overrides,
    # which replace the dataset's options, meet the same check
    for build in (lambda: Options(**kwargs), lambda: replace(Options(), **kwargs)):
        with pytest.raises(DatasetError) as excinfo:
            build()
        assert str(excinfo.value) == message


def test_reject_missing_heights_when_needed():
    doc = bundled_doc("37a1-septic-577")
    doc["heights"] = None
    with pytest.raises(DatasetError, match="heights"):
        parse_dataset(doc)


def test_all_orders_zero_may_omit_heights():
    # nothing to contract: parsing succeeds without translates, and the
    # rank-pattern hypothesis flags the inconsistent orders instead
    doc = bundled_doc("21a1-quintic-19")
    doc["heights"] = None
    doc["bsd"] = {}
    for lbl in ("eps", "ind:1", "ind:2"):
        doc["analytic"]["characters"][lbl]["order"] = 0
    ds = parse_dataset(doc)
    assert ds.heights is None
    by_key = {h.key: h for h in check_hypotheses(ds)}
    assert by_key["h"].status == "fails"


def test_reject_missing_translate():
    doc = bundled_doc("37a1-septic-577")
    del doc["heights"]["translates"]["t"]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "heights.translates"
    assert str(excinfo.value) == "heights.translates: missing elements ['t']"


def test_reject_several_missing_translates():
    # listed in group.elements() order, not in the document's key order
    doc = bundled_doc("37a1-septic-577")
    for key in ("t", "s1^5*t", "s1^2", "s1^4"):
        del doc["heights"]["translates"][key]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == ("heights.translates: missing elements "
                                  "['s1^2', 's1^4', 't', 's1^5*t']")


def test_reject_element_with_two_exponents():
    # each raised a raw ValueError from unpacking "s1^2^3"
    doc = bundled_doc("37a1-septic-577")
    doc["heights"]["translates"]["s1^2^3"] = doc["heights"]["translates"]["s1"]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "heights.translates.s1^2^3"
    doc = bundled_doc("37a1-septic-577")
    doc["places"]["577"]["inertia"] = ["s1^2^3"]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "places.577"


def test_reject_a_ramified_place_listed_twice():
    # each repeat of 19 applied its correction once more: verify printed PASS
    # with t(triv) = 8192/6859 in place of 32/19
    doc = bundled_doc("21a1-quintic-19")
    doc["tower"]["S_r"] = ["2", "19", "19", "19"]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "tower.S_r"
    assert "['19']" in str(excinfo.value)


def test_reject_a_split_place_outside_S_r():
    # S_r_split enters no computation, but each entry must be a place of S_r
    doc = bundled_doc("21a1-quintic-19")
    doc["tower"]["S_r_split"] = ["19", "7"]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == "tower.S_r_split[1]: 7 is not in S_r"
    doc["tower"]["S_r_split"] = ["19", "2"]
    assert not hasattr(parse_dataset(doc).tower, "S_r_split")


def test_reject_two_translate_keys_naming_one_element():
    # at |P| = 5, s1^6 is s1 and s1^9 is s1^4: the last key won, and the
    # recognition ended INCONCLUSIVE
    doc = bundled_doc("21a1-quintic-19")
    for key in ("s1^6", "s1^9"):
        doc["heights"]["translates"][key] = {"value": "12345", "abs_error": "0"}
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "heights.translates.s1^6"
    assert "'s1'" in str(excinfo.value)


def test_reject_two_generator_keys_naming_one_element():
    # at |P| = 7, s1^8 is s1: its coefficient replaced s1's, and bsd-squares
    # exited inconclusive
    doc = bundled_doc("37a1-septic-577")
    doc["bsd"]["K"]["regulator_generators"][0]["s1^8"] = "5"
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "bsd.K.regulator_generators[0].s1^8"
    assert "'s1'" in str(excinfo.value)


@pytest.mark.parametrize("first, second", [("s1", "s1^6"), ("s1^6", "s1"), ("1", "e"),
                                           ("s1^4*t", "s1^-1*t")])
def test_two_spellings_of_one_translate_key(first, second):
    """A key in format_element's spelling is read from the group's label
    table and any other is parsed; either way the later of two keys naming
    one element is rejected, and the message names the earlier."""
    group = load_bundled_dataset(QUINTIC).group
    doc = bundled_doc(QUINTIC)
    translates = doc["heights"]["translates"]
    value = translates.pop(group.format_element(group.parse_element(first)))
    translates.update({first: value, second: value})
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == (f"heights.translates.{second}: names the same group "
                                  f"element as {first!r}")


@pytest.mark.parametrize("first, second", [("s1", "s1^8"), ("s1^8", "s1")])
def test_two_spellings_of_one_generator_key(first, second):
    doc = bundled_doc(SEPTIC)
    doc["bsd"]["K"]["regulator_generators"][0] = {first: "1", second: "2"}
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == (f"bsd.K.regulator_generators[0].{second}: names the same "
                                  f"group element as {first!r}")


@pytest.mark.parametrize("canonical, other", [("1", "e"), ("s1", "s1^1"), ("s1", " s1 "),
                                              ("s1^2*t", "s1^7*t"), ("t", " t")])
def test_other_spellings_of_a_translate_key(canonical, other):
    """The fallback spellings name the element their canonical label does."""
    doc = bundled_doc(QUINTIC)
    want = parse_dataset(doc).heights.translates
    translates = doc["heights"]["translates"]
    translates[other] = translates.pop(canonical)
    assert parse_dataset(doc).heights.translates == want
    group = load_bundled_dataset(QUINTIC).group
    assert group.parse_element(other) == group.element_labels[canonical]


def test_reject_a_generator_key_naming_no_element():
    # reported at the generator, not at its key, while a translate key was
    # reported at the key
    doc = bundled_doc("37a1-septic-577")
    doc["bsd"]["K"]["regulator_generators"][0]["s2"] = "1"
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "bsd.K.regulator_generators[0].s2"
    assert "generator index 2 out of range" in str(excinfo.value)


def test_reject_asymmetric_translates():
    doc = bundled_doc("21a1-quintic-19")
    doc["heights"]["translates"]["s1"] = {"value": "7/2", "abs_error": "0"}
    with pytest.raises(DatasetError, match="translates"):
        parse_dataset(doc)


def test_reject_bad_field_block():
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["L"]["degree"] = 3              # does not divide |G| = 10
    with pytest.raises(DatasetError, match="degree"):
        parse_dataset(doc)
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["L"]["signature"] = [1, 1]      # r1 + 2 r2 != degree
    with pytest.raises(DatasetError, match="signature"):
        parse_dataset(doc)
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["F"]["leading_characters"] = {"triv": 1, "nope": 1}
    with pytest.raises(DatasetError, match="unknown character"):
        parse_dataset(doc)


def test_reject_bad_options():
    doc = bundled_doc("37a1-septic-577")
    doc["options"]["route"] = "sideways"
    with pytest.raises(DatasetError, match="route"):
        parse_dataset(doc)
    doc = bundled_doc("37a1-septic-577")
    doc["options"]["den_bound"] = 0
    with pytest.raises(DatasetError, match="den_bound"):
        parse_dataset(doc)


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
@pytest.mark.parametrize("key", ["d_k_abs", "d_K_abs"])
@pytest.mark.parametrize("value", [0, -1, "abc", None, 1.0])
def test_reject_nonpositive_discriminant(name, key, value):
    # 0 once raised a raw ZeroDivisionError in verify, -1 a negative radicand
    doc = bundled_doc(name)
    doc["tower"][key] = value
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == f"tower.{key}"


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
@pytest.mark.parametrize("d_k", [4, 9])
def test_reject_d_k_squared_not_dividing_d_K(name, d_k):
    # a square d_k passes the triv recognition, and the quadratic character's
    # |d_K|/|d_k|^2 once raised a raw LocalDataError in verify
    doc = bundled_doc(name)
    doc["tower"]["d_k_abs"] = d_k
    with pytest.raises(DatasetError, match=r"\|d_k\|\^2") as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "tower.d_K_abs"


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
@pytest.mark.parametrize("key, value", [
    ("den_bound", "abc"), ("den_bound", []), ("den_bound", 0),
    ("p_power_required", "x"), ("p_power_required", 0),
    # int() truncated these: true gave den_bound 1 (INCONCLUSIVE)
    ("den_bound", True), ("den_bound", 1e6),
])
def test_reject_bad_integer_option(name, key, value):
    doc = bundled_doc(name)
    doc["options"][key] = value
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == f"options.{key}"


def test_null_integer_options_take_the_defaults():
    doc = bundled_doc("21a1-quintic-19")
    for key in ("den_bound", "p_power_required"):
        doc["options"][key] = None
    options = parse_dataset(doc).options
    assert (options.den_bound, options.p_power_required) == (10 ** 6, None)


@pytest.mark.parametrize("value", [1, 1000, "x", None])
def test_embedding_digits_key_is_ignored(value):
    # the retired option is read like any other unknown key
    doc = bundled_doc("21a1-quintic-19")
    doc["options"]["embedding_digits"] = value
    ds, plain = parse_dataset(doc), load_bundled_dataset("21a1-quintic-19")
    assert ds.options == plain.options
    assert structured_report(verify(ds)) == structured_report(verify(plain))


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
@pytest.mark.parametrize("value", ["x", [1], 5, [], False])
def test_reject_non_object_options(name, value):
    # a string once raised a raw AttributeError ('str' object has no attribute 'get')
    doc = bundled_doc(name)
    doc["options"] = value
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "options"


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
@pytest.mark.parametrize("absent", [True, False])
def test_absent_or_null_options_take_the_defaults(name, absent):
    doc = bundled_doc(name)
    if absent:
        del doc["options"]
    else:
        doc["options"] = None
    assert parse_dataset(doc).options == Options()


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
# int() truncated 361.9 to 361, which gave PASS
@pytest.mark.parametrize("value", ["x", None, [], 0, -361, "1e400", 361.9, True])
def test_reject_bad_conductor_norm(name, value):
    doc = bundled_doc(name)
    doc["tower"]["conductor_norms"]["ind:1"] = value
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "tower.conductor_norms.ind:1"


@pytest.mark.parametrize("factors", [[5 ** 5], [5 ** 8], [5 ** 12], [5, 5, 5, 5, 5]])
def test_reject_oversized_group_quickly(factors):
    # [5**8] once took 17 s to fail at analytic.characters, [5**12] far longer
    doc = bundled_doc("21a1-quintic-19")
    doc["group"]["cyclic_factors"] = factors
    start = time.perf_counter()
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert time.perf_counter() - start < 1
    assert excinfo.value.path == "group.cyclic_factors"


@pytest.mark.parametrize("factors", [[0], [0.5], [-5]])
def test_reject_nonpositive_cyclic_factor_quickly(factors):
    # 0 (and 0.5, which int() truncates to 0) once looped forever in DihedralGroup
    doc = bundled_doc("21a1-quintic-19")
    doc["group"]["cyclic_factors"] = factors
    start = time.perf_counter()
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert time.perf_counter() - start < 1
    # 0.5 is no integer; 0 and -5 are integers but no cyclic factor
    assert excinfo.value.path == ("group.cyclic_factors[0]" if factors == [0.5] else "group")


@pytest.mark.parametrize("p, factors", [
    (2 ** 4423 - 1, None), (2 ** 9689 - 1, None), (2 ** 9689 - 1, [3]),
], ids=["M4423", "M9689", "M9689-factor-3"])
def test_reject_large_prime_quickly(p, factors):
    # the Mersenne primes once took 2.8 s and 27.4 s to fail at group.cyclic_factors,
    # after a primality test on p
    doc = bundled_doc("21a1-quintic-19")
    doc["group"] = {"p": p, "cyclic_factors": factors or [p]}
    start = time.perf_counter()
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert time.perf_counter() - start < 0.5
    assert excinfo.value.path == "group.p"
    assert len(str(excinfo.value)) < 100


def test_oversized_group_message_stays_short():
    # |P| = 7^4000 was printed in full, a message of 3436 characters
    doc = bundled_doc("37a1-septic-577")
    doc["group"]["cyclic_factors"] = [7 ** 4000]
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == (
        f"group.cyclic_factors: |P| = {str(7 ** 4000)[:20]}... (3381 digits) "
        "exceeds the supported 1000")
    assert len(str(excinfo.value)) < 200


def test_group_within_the_size_cap_is_parsed_further():
    # |P| = 625 passes the cap and fails only on the characters it lacks
    doc = bundled_doc("21a1-quintic-19")
    doc["group"]["cyclic_factors"] = [5 ** 4]
    assert 5 ** 4 <= MAX_P_ORDER < 5 ** 5
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "analytic.characters"


def test_field_block_helpers():
    ds = load_bundled_dataset("21a1-quintic-19")
    fb = ds.bsd["F"]
    assert fb.tamagawa_product() == 4 * 4 * 2 ** 5
    assert fb.omega_quotient == Fraction(1)
    assert fb.leading_overrides and "eps" in fb.leading_overrides


def set_field(doc, keys, value):
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value


def test_decimal_integer_strings_stay_accepted():
    doc = bundled_doc("21a1-quintic-19")
    doc["tower"]["conductor_norms"]["ind:1"] = "361"
    doc["options"]["den_bound"] = "1000000"
    doc["analytic"]["characters"]["triv"]["order"] = "0"
    doc["bsd"]["F"]["degree"] = "10"
    ds = parse_dataset(doc)
    assert ds.tower.conductor_norms["ind:1"] == 361 and ds.options.den_bound == 10 ** 6
    assert ds.analytic.characters["triv"].order == 0 and ds.bsd["F"].degree == 10


@pytest.mark.parametrize("keys, value, path", [
    # each raised a raw decimal.InvalidOperation or ZeroDivisionError
    (("options", "gz_constant"), "x", "options.gz_constant"),
    (("options", "gz_constant"), "1/0", "options.gz_constant"),
    (("bsd", "F", "omega_quotient"), "x", "bsd.F.omega_quotient"),
    (("bsd", "F", "omega_quotient"), None, "bsd.F.omega_quotient"),
    (("bsd", "F", "regulator_generators", 0, "1"), "1/0",
     "bsd.F.regulator_generators[0].1"),
    (("bsd", "F", "regulator_generators", 2), ["s1^2", "1"], "bsd.F.regulator_generators[2]"),
])
def test_reject_bad_rationals(keys, value, path):
    doc = bundled_doc("21a1-quintic-19")
    set_field(doc, keys, value)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == path


@pytest.mark.parametrize("keys, value, path", [
    (("bsd", "K", "omega_quotient"), "0", "bsd.K.omega_quotient"),
    (("bsd", "K", "omega_quotient"), "-1/2", "bsd.K.omega_quotient"),
    (("bsd", "K", "regulator"), {"value": "0"}, "bsd.K.regulator"),
    (("bsd", "L", "regulator"), {"value": "-1"}, "bsd.L.regulator"),
    (("bsd", "L", "regulator"), {"value": "1", "abs_error": "1"}, "bsd.L.regulator"),
])
def test_reject_bsd_divisors_that_are_not_positive(keys, value, path):
    # the Sha prediction divides by both
    doc = bundled_doc("21a1-quintic-19")
    set_field(doc, keys, value)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == path


@pytest.mark.parametrize("u", ["x", "1/0"])
def test_reject_unparsable_pin(u):
    doc = bundled_doc("21a1-quintic-19")
    doc["places"]["2"]["pinned"]["triv"]["u"] = u
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "places.2.pinned.triv.u"


@pytest.mark.parametrize("keys, value", [
    # a list raised a raw AttributeError ('list' object has no attribute 'items'),
    # a number a raw TypeError
    (("places",), [["2", {}]]),
    (("bsd",), [{"degree": 1}]),
    (("bsd",), []),
    (("analytic", "characters"), [{"order": 0}]),
    (("analytic", "characters", "triv"), 5),
    (("bsd", "F"), 5),
    # a raw AttributeError and two raw TypeErrors; the last block is an array
    (("bsd", "K", "tamagawa"), "x"),
    (("heights",), 5),
    (("heights", "translates"), []),
    (("bsd", "K", "tamagawa", "3"), 4),
    # each was reported at the path group
    (("group", "cyclic_factors"), "x"),
])
def test_reject_non_object_blocks(keys, value):
    doc = bundled_doc("21a1-quintic-19")
    set_field(doc, keys, value)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == ".".join(keys)


@pytest.mark.parametrize("keys, value", [
    # "x" raised a raw ValueError from int(), and 0.7 was truncated to 0 (PASS)
    (("analytic", "characters", "triv", "order"), "x"),
    (("analytic", "characters", "triv", "order"), 0.7),
    (("analytic", "characters", "triv", "order"), -1),
    (("bsd", "F", "degree"), "x"),
    (("bsd", "F", "degree"), 0),
    (("bsd", "F", "d_abs"), "x"),
    (("bsd", "F", "d_abs"), 0),
    (("bsd", "F", "torsion"), "x"),
    (("bsd", "F", "torsion"), None),
    # each was reported at the path group
    (("group", "p"), "x"),
    (("group", "p"), True),
])
def test_reject_bad_integer_fields(keys, value):
    doc = bundled_doc("21a1-quintic-19")
    set_field(doc, keys, value)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == ".".join(keys)


@pytest.mark.parametrize("keys, value, path", [
    # ["x", 0] raised a raw ValueError from int()
    (("bsd", "k", "signature"), ["x", 0], "bsd.k.signature[0]"),
    (("bsd", "k", "signature"), [1, -1], "bsd.k.signature[1]"),
    (("bsd", "K", "tamagawa", "3"), ["x"], "bsd.K.tamagawa.3[0]"),
    (("bsd", "K", "tamagawa", "7"), [2, 0], "bsd.K.tamagawa.7[1]"),
    # reported at the path group
    (("group", "cyclic_factors"), ["x"], "group.cyclic_factors[0]"),
])
def test_reject_bad_integer_list_entries(keys, value, path):
    doc = bundled_doc("21a1-quintic-19")
    set_field(doc, keys, value)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == path


@pytest.mark.parametrize("value, expected", [
    ("24/19", Fraction(24, 19)), ("-3.25", Fraction(-13, 4)), ("1e-33", Fraction(1, 10 ** 33)),
    (" 7 ", Fraction(7)), ("1/-3", Fraction(-1, 3)), ("1 / 3", Fraction(1, 3)),
    ("1_000", Fraction(1000)), (".5", Fraction(1, 2)), ("+2", Fraction(2)),
    ("1e1000", Fraction(10 ** 1000)), (7, Fraction(7)), (0.5, Fraction(1, 2)),
    # zero is 0/1 at any exponent; each of these lay "beyond 10^(+-1000)"
    ("0e-1001", Fraction(0)), ("-0e2000", Fraction(0)), ("0.0e-5000", Fraction(0)),
    ("-0e-1001", Fraction(0)), ("+0e99999", Fraction(0)),
])
def test_rational_accepted_forms(value, expected):
    assert _rational(value, "x") == expected


@pytest.mark.parametrize("value", ["1/0", "x", "inf", "nan", "1/2/3", "", True, None])
def test_rational_rejected_forms(value):
    with pytest.raises(DatasetError) as excinfo:
        _rational(value, "x")
    assert str(excinfo.value) == f"x: expected a rational, got {value!r}"


@pytest.mark.parametrize("value", ["1e1001", "1e-1001", "1e100000", "5/" + "9" * 1001],
                         ids=["1e1001", "1e-1001", "1e100000", "5/9...9"])
def test_rational_out_of_range_forms(value):
    with pytest.raises(DatasetError) as excinfo:
        _rational(value, "x")
    assert str(excinfo.value) == f"x: {value!r} lies beyond 10^(+-1000)"


def test_each_decimal_string_is_read_once(monkeypatch):
    # counting Decimal builds alone missed a field read twice: the builds
    # doubled along with the reads
    built, read = [], []

    class Counted(decimal.Decimal):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    def recorded(value, path, rational=dataset._rational):
        read.append((value, path))
        return rational(value, path)

    monkeypatch.setattr(dataset.decimal, "Decimal", Counted)
    monkeypatch.setattr(dataset, "_rational", recorded)
    for name in (QUINTIC, SEPTIC):
        read.clear()
        built.clear()
        parse_dataset(bundled_doc(name))
        decimals = [v for v, _ in read if "/" not in str(v)]
        assert decimals and len(built) == len(decimals)
        repeated = [path for path, n in Counter(path for _, path in read).items() if n > 1]
        assert not repeated, (name, repeated)


def count_reads(monkeypatch) -> list:
    """The values _rational reads from here on, in read order."""
    read = []

    def recorded(value, path, rational=dataset._rational):
        read.append(value)
        return rational(value, path)

    monkeypatch.setattr(dataset, "_rational", recorded)
    return read


def test_each_distinct_text_is_read_once_per_parse(monkeypatch):
    doc = bundled_doc(SEPTIC)
    # t(g) = t(g^-1), so translates share their texts
    texts = Counter(t["value"] for t in doc["heights"]["translates"].values())
    text, n = texts.most_common(1)[0]
    assert n == 4
    read = count_reads(monkeypatch)
    first = parse_dataset(doc)
    assert read.count(text) == 1
    assert max(Counter(v for v in read if isinstance(v, str)).values()) == 1
    # a second parse of the same document reads every text again: nothing
    # is kept from one call to the next
    reads = len(read)
    second = parse_dataset(doc)
    assert read.count(text) == 2 and len(read) == 2 * reads
    assert list(second.heights.translates.values()) == list(first.heights.translates.values())


def test_a_bad_text_read_twice_is_reported_at_its_first_field(monkeypatch):
    doc = bundled_doc(SEPTIC)
    doc["places"]["577"]["pinned"]["eps"]["u"] = "1e-1001"
    doc["heights"]["translates"]["s1"]["value"] = "1e-1001"
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == "places.577.pinned.eps.u: '1e-1001' lies beyond 10^(+-1000)"
    # with the first field mended, the second is still read and rejected
    doc["places"]["577"]["pinned"]["eps"]["u"] = "1"
    read = count_reads(monkeypatch)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert excinfo.value.path == "heights.translates.s1.value"
    assert read.count("1e-1001") == 1


def test_decimals_sharing_a_value_keep_their_own_errors():
    doc = bundled_doc(SEPTIC)
    omega = doc["analytic"]["omega_plus"]
    doc["analytic"]["characters"]["triv"]["leading_term"] = {"value": omega["value"],
                                                              "abs_error": "1e-30"}
    ds = parse_dataset(doc)
    assert ds.analytic.characters["triv"].leading_term.abs_error == Fraction(1, 10 ** 30)
    assert ds.analytic.omega_plus.abs_error == Fraction(1, 10 ** 33)


def test_a_negative_error_pair_read_twice_is_reported_at_its_first_path():
    doc = bundled_doc(SEPTIC)
    # the document lists s1 before s1^3
    for key in ("s1^3", "s1"):
        doc["heights"]["translates"][key] = {"value": "1", "abs_error": "-1e-36"}
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == "heights.translates.s1.abs_error: negative error bound"


def delete_field(doc, keys):
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block.pop(keys[-1], None)


def parse_outcome(doc):
    """The parsed dataset without its group object (so that two parses
    compare equal), or the error."""
    try:
        return repr(replace(parse_dataset(doc), group=None))
    except DatasetError as e:
        return f"DatasetError: {e}"


@pytest.mark.parametrize("name, field", [
    (QUINTIC, "curve.tamagawa_base"),
    (QUINTIC, "curve.tamagawa_quadratic"),
    (QUINTIC, "curve.manin_constant"),
    (QUINTIC, "curve.unit_count_K"),
    (QUINTIC, "places.19.pinned"),
    (SEPTIC, "analytic.omega_minus"),
    (QUINTIC, "heights"),
    (QUINTIC, "bsd"),
    (QUINTIC, "bsd.F.leading_overrides"),
    (QUINTIC, "bsd.K.regulator"),
    (QUINTIC, "bsd.F.regulator_generators"),
    (QUINTIC, "options"),
    (QUINTIC, "options.p_power_required"),
    (QUINTIC, "options.den_bound"),
    (SEPTIC, "options.gz_constant"),
    (QUINTIC, "provenance"),
])
def test_null_reads_as_absent(name, field):
    absent, null = bundled_doc(name), bundled_doc(name)
    delete_field(absent, field.split("."))
    set_field(null, field.split("."), None)
    assert parse_outcome(null) == parse_outcome(absent)


NULL_REJECTED = [
    ("tower.S_r_split", "expected an array, got None"),
    ("tower.S_bad", "expected an array, got None"),
    ("analytic.omega_plus.abs_error", "expected a rational, got None"),
    ("analytic.omega_minus.abs_error", "expected a rational, got None"),
    ("analytic.characters.ind:1.leading_term.abs_error", "expected a rational, got None"),
    ("heights.translates.s1.abs_error", "expected a rational, got None"),
    ("bsd.F.leading_overrides.eps.abs_error", "expected a rational, got None"),
    ("bsd.K.regulator.abs_error", "expected a rational, got None"),
    ("bsd.F.omega_quotient", "expected a rational, got None"),
    # once "unknown route 'None'"
    ("options.route", "expected a string, got None"),
    # once the label "None"; an absent label is "unnamed"
    ("label", "expected a string, got None"),
]


@pytest.mark.parametrize("field, message", NULL_REJECTED, ids=[f for f, _ in NULL_REJECTED])
def test_null_is_rejected_where_absent_takes_a_default(field, message):
    absent, null = bundled_doc(QUINTIC), bundled_doc(QUINTIC)
    delete_field(absent, field.split("."))
    set_field(null, field.split("."), None)
    parse_dataset(absent)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(null)
    assert str(excinfo.value) == f"{field}: {message}"


def test_absent_label_is_unnamed():
    doc = bundled_doc(QUINTIC)
    del doc["label"]
    assert parse_dataset(doc).label == "unnamed"


NON_STRING_TEXTS = [
    # null parsed, and the report read "dataset: None"
    ("label", None, "label", None),
    # {"a": 1} became the label "{'a': 1}"
    ("curve.label", {"a": 1}, "curve.label", {"a": 1}),
    ("heights.normalization", 1.5, "heights.normalization", 1.5),
    ("options.route", 5, "options.route", 5),
    ("provenance.curve", True, "provenance.curve", True),
    # 19 was read as the place "19" and parsed
    ("tower.S_r", ["2", 19], "tower.S_r[1]", 19),
    ("tower.S_r_split", [2], "tower.S_r_split[0]", 2),
    # null listed a place named "None"
    ("tower.S_bad", [None], "tower.S_bad[0]", None),
    ("places.19.inertia", [1], "places.19.inertia[0]", 1),
    ("places.19.frobenius", ["t"], "places.19.frobenius", ["t"]),
]


@pytest.mark.parametrize("field, value, path, got", NON_STRING_TEXTS,
                         ids=[path for _, _, path, _ in NON_STRING_TEXTS])
def test_reject_text_fields_that_are_not_strings(field, value, path, got):
    doc = bundled_doc(QUINTIC)
    set_field(doc, field.split("."), value)
    with pytest.raises(DatasetError) as excinfo:
        parse_dataset(doc)
    assert str(excinfo.value) == f"{path}: expected a string, got {got!r}"
