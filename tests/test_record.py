"""The record base: equality, hashing and replace, with no generated code in
the package."""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

from twistcong.dataset import HypothesisResult, Options
from twistcong.exact import CyclotomicNumber, DecimalWithError
from twistcong.groups import DihedralGroup
from twistcong.localfactors import LocalCorrection
from twistcong.record import replace

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistcong"


def test_no_module_runs_generated_code():
    called = {node.func.id for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"exec", "eval", "compile"}


@pytest.mark.parametrize("make", [
    lambda: DecimalWithError(Fraction(1, 3), Fraction(1, 10)),
    lambda: LocalCorrection(CyclotomicNumber.zeta_power(5, 2), Fraction(4, 5)),
    lambda: HypothesisResult("a", "p is odd", "holds", "p = 5"),
])
def test_value_records_hash_and_compare_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert replace(a) == a
    assert a != Options()


def test_other_records_are_unhashable_and_characters_compare_by_identity():
    with pytest.raises(TypeError):
        hash(Options())
    triv = DihedralGroup(5, [5]).character_table.by_label["triv"]
    assert triv == triv and triv != replace(triv) and len({triv, replace(triv)}) == 2


def test_replace_takes_only_fields():
    with pytest.raises(TypeError):
        replace(Options(), no_such_field=1)
    assert replace(Options(), route="gz") == Options(route="gz")
