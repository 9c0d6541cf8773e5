"""Command-line behavior: subcommands, formats, exit codes, and the modules
each command loads."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_dataset import bundled_doc, z25_doc

from twistcong.cli import main
from twistcong.report import REPORT_VERSION


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_bundled_pass(capsys):
    code, out, _ = run(capsys, "verify", "--dataset", "37a1-septic-577")
    assert code == 0
    assert "S(1) = -16184/577, v_7 = 1" in out
    assert out.rstrip().endswith("verdict: PASS")


def test_verify_structured(capsys):
    code, out, _ = run(capsys, "verify", "--dataset", "21a1-quintic-19",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["report_version"] == 1
    assert doc["verdict"] == "PASS"
    assert doc["characters"]["ind:1"]["min_poly"] == ["256", "-48", "1"]


def test_verify_from_file(tmp_path, capsys):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(bundled_doc("37a1-septic-577")))
    code, out, _ = run(capsys, "verify", "--dataset", str(path))
    assert code == 0 and "verdict: PASS" in out


@pytest.mark.parametrize("name", ["21a1-quintic-19", "37a1-septic-577"])
@pytest.mark.parametrize("d_k", [4, 9])
def test_verify_d_k_squared_not_dividing_d_K_is_a_data_error(tmp_path, capsys, name, d_k):
    doc = bundled_doc(name)
    doc["tower"]["d_k_abs"] = d_k
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--dataset", str(path))
    assert code == 3
    assert "tower.d_K_abs" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "bsd-squares"])
def test_irrational_t_factor_is_a_data_error_at_its_place(tmp_path, capsys, command):
    # verify once exited 3 with "local t-factor failed to be rational" and no path
    path = tmp_path / "z25.json"
    path.write_text(json.dumps(z25_doc()))
    code, out, err = run(capsys, command, "--dataset", str(path))
    assert code == 3 and out == ""
    assert err == "twistcong: places.11: local t-factor of ind:5 failed to be rational\n"


@pytest.mark.parametrize("data", [
    b'{"spec_version": 1, "label": "\xff"}',
    b"[" * 100000 + b"]" * 100000,
    b'{"spec_version": ' + b"1" * 5000 + b"}",
], ids=["invalid-utf8", "deep-nesting", "5000-digit-integer"])
def test_verify_unreadable_json_is_a_data_error(tmp_path, capsys, data):
    # each raised a raw UnicodeDecodeError, RecursionError or ValueError: exit 1
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, _, err = run(capsys, "verify", "--dataset", str(path))
    assert code == 3
    assert err.startswith("twistcong: invalid JSON: ") and "Traceback" not in err


def test_verify_stricter_modulus_fails(capsys):
    code, out, _ = run(capsys, "verify", "--dataset", "21a1-quintic-19",
                       "--n-override", "2")
    assert code == 1
    assert "verdict: FAIL" in out


def test_verify_weak_bound_inconclusive(capsys):
    code, out, _ = run(capsys, "verify", "--dataset", "21a1-quintic-19",
                       "--den-bound", "1")
    assert code == 2
    assert "verdict: INCONCLUSIVE" in out


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_verify_nonpositive_den_bound_is_a_data_error(capsys, bound):
    # once rejected only inside verify, at options.den_bound: a field the user never wrote
    with pytest.raises(SystemExit) as e:
        main(["verify", "--dataset", "21a1-quintic-19", f"--den-bound={bound}"])
    err = capsys.readouterr().err
    assert e.value.code == 3
    assert f"--den-bound: expected a positive integer, got '{bound}'" in err
    assert "options." not in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_verify_nonpositive_n_override_is_a_usage_error(capsys, n):
    # once rejected only inside verify, at options.p_power_required
    with pytest.raises(SystemExit) as e:
        main(["verify", "--dataset", "21a1-quintic-19", "--n-override", n])
    err = capsys.readouterr().err
    assert e.value.code == 3
    assert f"--n-override: expected a positive integer, got '{n}'" in err
    assert "options." not in err and "Traceback" not in err


def test_verify_missing_dataset(capsys):
    code, _, err = run(capsys, "verify", "--dataset", "no-such-dataset")
    assert code == 3
    assert "no such file" in err


@pytest.mark.parametrize("route", ["direct", "qhat"])
def test_verify_per_character_route_is_a_usage_error(capsys, route):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--dataset", "37a1-septic-577", "--route", route])
    assert e.value.code == 3
    assert f"argument --route: invalid choice: '{route}'" in capsys.readouterr().err


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify"])                     # --dataset is required
    assert e.value.code == 3
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])                 # unknown subcommand
    assert e.value.code == 3


def test_gz_route_from_cli(capsys):
    code, out, _ = run(capsys, "verify", "--dataset", "21a1-quintic-19",
                       "--route", "gz")
    assert code == 0
    assert "S(1) = -1060/361, v_5 = 1" in out


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "--dataset", "37a1-septic-577",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert "S(1) = -16184/577, v_7 = 1" in text
    assert text.rstrip().endswith("verdict: PASS")


def test_verify_out_structured(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--dataset", "21a1-quintic-19",
                       "--format", "structured", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "PASS"


def test_out_path_unwritable(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.txt"
    code, _, err = run(capsys, "verify", "--dataset", "37a1-septic-577",
                       "--out", str(target))
    assert code == 3
    assert "missing-dir" in err


def test_bsd_squares_dataset(capsys):
    # a finite Sha has square order, so the quintic's Sha(F) = 32 falsifies
    # its F block; this exited 0
    code, out, _ = run(capsys, "bsd-squares", "--dataset", "21a1-quintic-19")
    assert code == 1
    assert "Sha(K) = 1" in out
    assert "Sha(L) = 4" in out
    assert "Sha(F) = 32   (not a square)" in out
    assert out.endswith("\nfalsified: Sha is not the square of an integer at F\n")


def test_bsd_squares_out_file(tmp_path, capsys):
    target = tmp_path / "sha.txt"
    code, out, _ = run(capsys, "bsd-squares", "--dataset", "21a1-quintic-19",
                       "--out", str(target))
    assert code == 1 and out == ""
    assert "Sha(F) = 32   (not a square)" in target.read_text()


def test_bsd_squares_structured(capsys):
    code, out, _ = run(capsys, "bsd-squares", "--dataset", "37a1-septic-577",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    rows = {r["field"]: r for r in doc["sha_predictions"]}
    assert rows["k"]["sha"] == "1" and rows["k"]["square"]
    assert rows["K"]["integral"]


@pytest.mark.parametrize("keys, value, path", [
    # each ended in a division or Gram determinant message with no field
    # named, and an omega_quotient of -1 printed "Sha(K) = -1"
    (("bsd", "K", "omega_quotient"), "0", "bsd.K.omega_quotient"),
    (("bsd", "K", "omega_quotient"), "-1", "bsd.K.omega_quotient"),
    (("bsd", "K", "regulator"), {"value": "0"}, "bsd.K.regulator"),
    (("bsd", "K", "regulator"), {"value": "-1"}, "bsd.K.regulator"),
    (("bsd", "K", "regulator_generators"), [{"1": "0"}], "bsd.K.regulator_generators"),
    (("analytic", "omega_plus", "abs_error"), "3", "bsd.K"),
])
def test_bsd_squares_names_the_field_of_a_vanishing_divisor(tmp_path, capsys, keys, value,
                                                            path):
    doc = bundled_doc("37a1-septic-577")
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    code, _, err = run(capsys, "bsd-squares", "--dataset", str(target))
    assert code == 3
    assert f"twistcong: {path}: " in err and "Traceback" not in err


@pytest.mark.parametrize("name, edit, message", [
    # a HeightDataError traceback from the field period, with exit 1
    ("37a1-septic-577",
     lambda doc: (doc["analytic"].pop("omega_minus"),
                  doc["bsd"]["K"].update(signature=[0, 1])),
     "analytic.omega_minus: bsd.K has complex places, which need the minus period"),
    # predicted Sha(K) = 13/4 from a regulator read as 1, with exit 1
    ("21a1-quintic-19", lambda doc: doc["bsd"]["K"].pop("regulator"),
     "bsd.K: Mordell-Weil rank 1 needs a regulator or regulator generators"),
])
@pytest.mark.parametrize("command", ["bsd-squares", "verify"])
def test_field_blocks_short_of_data_are_data_errors(tmp_path, capsys, name, edit, message,
                                                    command):
    doc = bundled_doc(name)
    edit(doc)
    target = tmp_path / "short.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--dataset", str(target))
    assert code == 3 and out == ""
    assert err == f"twistcong: {message}\n"


@pytest.mark.parametrize("keys, value", [
    # the two fuzz documents (seed 0, cases 70 and 333) whose predictions exited 3
    (("bsd", "k", "regulator_generators", 0, "1"), -1),
    (("bsd", "k", "d_abs"), 5),
])
def test_bsd_squares_undetermined_prediction_is_inconclusive(tmp_path, capsys, keys, value):
    doc = bundled_doc("37a1-septic-577")
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    target = tmp_path / "coarse.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bsd-squares", "--dataset", str(target))
    assert code == 2 and out == ""
    assert err.startswith("twistcong: inconclusive: no rational with denominator <= 1000000")


def test_bsd_squares_undetermined_prediction_structured(tmp_path, capsys):
    # a K regulator near pi has no rational within its bound: no document was written
    doc = bundled_doc("21a1-quintic-19")
    doc["bsd"]["K"]["regulator"] = {"value": "3.14159265358979323846264338327950288",
                                    "abs_error": "1e-30"}
    source, target = tmp_path / "coarse.json", tmp_path / "report.json"
    source.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bsd-squares", "--dataset", str(source),
                         "--format", "structured", "--out", str(target))
    assert code == 2 and out == ""
    text = target.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert sorted(report) == ["dataset", "inconclusive", "report_version"]
    assert report["report_version"] == REPORT_VERSION
    assert report["dataset"] == "21a1-quintic-19"
    assert report["inconclusive"].startswith("no rational with denominator <= 1000000")
    assert err == f"twistcong: inconclusive: {report['inconclusive']}\n"


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("edit", [lambda doc: doc.pop("bsd"), lambda doc: doc.update(bsd={})],
                         ids=["dropped", "empty"])
def test_bsd_squares_without_field_blocks_is_a_data_error(tmp_path, capsys, edit, fmt):
    # printed the dataset line alone, or no predictions, and exited 0
    doc = bundled_doc("37a1-septic-577")
    edit(doc)
    source = tmp_path / "no-bsd.json"
    source.write_text(json.dumps(doc))
    code, out, err = run(capsys, "bsd-squares", "--dataset", str(source), "--format", fmt)
    assert code == 3 and out == ""
    assert err == "twistcong: bsd: no field blocks to predict\n"


def test_bsd_squares_needs_a_mode(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bsd-squares"])
    assert e.value.code == 3
    assert "the following arguments are required: --dataset" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--random", "5"], ["--seed", "1"]])
def test_bsd_squares_has_no_synthetic_screen(capsys, option):
    with pytest.raises(SystemExit) as e:
        main(["bsd-squares", "--dataset", "37a1-septic-577", *option])
    assert e.value.code == 3
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_bsd_squares_structured_keeps_its_keys_when_falsified(capsys):
    code, out, _ = run(capsys, "bsd-squares", "--dataset", "21a1-quintic-19",
                       "--format", "structured")
    assert code == 1
    doc = json.loads(out)
    assert sorted(doc) == ["dataset", "report_version", "sha_predictions"]
    rows = {r["field"]: (r["sha"], r["integral"], r["square"]) for r in doc["sha_predictions"]}
    assert rows == {"F": ("32", True, False), "K": ("1", True, True),
                    "L": ("4", True, True), "k": ("1", True, True)}


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "all selftest checks passed" in out
    lines = [l for l in out.splitlines() if l and not l.startswith("all ")]
    assert lines and all(l.startswith("ok  ") for l in lines)


SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code; this process
    has loaded every module already."""
    script = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return set(done.stdout.split())


def cli_code(*argv):
    return f"from twistcong import cli\nassert cli.main({list(argv)!r}) == 0"


def verify_code(*route):
    return cli_code("verify", "--dataset", "21a1-quintic-19", *route, "--out", os.devnull)


def built_a_cosine_table(code):
    """code, then a check that it built the cosine table of Q(zeta_5), the
    quintic dataset's field: the cases that read the table show mpmath
    absent because the table needs none, not because nothing read it."""
    return (f"{code}\nfrom twistcong.exact import cyclotomic_field\n"
            "assert 'cosines' in cyclotomic_field(5).__dict__")


# no record class generates code: dataclasses, and the inspect it imports,
# stay out of every process
GENERATED = {"dataclasses", "inspect"}


@pytest.mark.parametrize("code, absent, present", [
    ("import twistcong.cli", {"mpmath", "twistcong.bsdsquares"}, {"twistcong.engine"}),
    ("import twistcong.dataset",
     {"twistcong.engine", "twistcong.report", "twistcong.bsdsquares"}, {"twistcong.exact"}),
    (verify_code("--route", "gz"), {"mpmath", "twistcong.bsdsquares"}, {"twistcong.report"}),
    # the auto route embeds irrational leading terms through the cosine
    # table, which is built in integers
    (built_a_cosine_table(verify_code()), {"mpmath", "twistcong.bsdsquares"}, set()),
    # the Sha predictions are rational: no cosine table is read here
    (cli_code("bsd-squares", "--dataset", "37a1-septic-577", "--out", os.devnull),
     {"mpmath"}, {"twistcong.bsdsquares"}),
    (built_a_cosine_table(cli_code("selftest")), {"mpmath", "twistcong.bsdsquares"}, set()),
], ids=["import-cli", "import-dataset", "verify-gz", "verify-auto", "bsd-squares-dataset",
        "selftest"])
def test_each_command_imports_only_what_it_runs(code, absent, present):
    loaded = modules_after(code)
    assert not (absent | GENERATED) & loaded
    assert present <= loaded
