"""A seeded fuzz of the dataset boundary: a bundled document with one or two
of its fields replaced by a hostile value must end in a DatasetError or a
verdict, and in a DatasetError or Sha predictions, within seconds, and never
in any other exception."""
import copy
import importlib.util
import json
import random
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from twistcong.bsdsquares import field_regulator, sha_predictions
from twistcong.dataset import DatasetError, parse_dataset
from twistcong.engine import verify
from twistcong.exact import ExactArithmeticError, RecognitionError

VALUES = ["1e400", "inf", "nan", "1/0", None, [], {}, 200000, "1e100000", "x", -1, 0,
          True, 1.5, "-0", "1e-400", 5, "", [1, 2], {"a": 1}, "1e5000"]
CASES_PER_SEED = 500
SECONDS_PER_CASE = 5
ROOT = Path(__file__).resolve().parent.parent


def bundled_docs():
    root = resources.files("twistcong") / "datasets"
    return [json.loads((root / f"{name}.json").read_text())
            for name in ("21a1-quintic-19", "37a1-septic-577")]


def field_paths(node, prefix=()):
    """The path of every field below node, blocks and their members alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def replace_field(doc, path, value):
    """Put value at path, unless an earlier replacement removed the path."""
    node = doc
    for key in path[:-1]:
        if not isinstance(node, (dict, list)) or key not in (
                node if isinstance(node, dict) else range(len(node))):
            return
        node = node[key]
    if isinstance(node, dict) or (isinstance(node, list) and path[-1] < len(node)):
        node[path[-1]] = value


def mutated_docs(seed):
    rng = random.Random(seed)
    docs = bundled_docs()
    paths = [list(field_paths(doc)) for doc in docs]
    for _ in range(CASES_PER_SEED):
        i = rng.randrange(len(docs))
        doc = copy.deepcopy(docs[i])
        chosen = rng.sample(paths[i], rng.choice((1, 2)))
        for path in chosen:
            replace_field(doc, path, copy.deepcopy(rng.choice(VALUES)))
        yield chosen, doc


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hostile_fields_end_in_a_dataset_error_or_a_verdict(seed):
    # a document that parses is verified and gets its Sha predictions; a
    # prediction may also end in a RecognitionError (it is undetermined)
    raw, slow = [], []
    for paths, doc in mutated_docs(seed):
        where = [".".join(map(str, path)) for path in paths]
        start = time.perf_counter()
        for run, allowed in ((verify, DatasetError),
                             (sha_predictions, (DatasetError, RecognitionError))):
            try:
                run(parse_dataset(doc))
            except allowed:
                pass
            except Exception as e:  # any other exception is a fault of the program
                raw.append((where, f"{run.__name__}: {type(e).__name__}: {str(e)[:120]}"))
        if time.perf_counter() - start > SECONDS_PER_CASE:
            slow.append(where)
    assert raw == [] and slow == []


def resized_generator_lists(seed, cases=40):
    """Bundled documents with one or two list-length mutations of one block's
    regulator_generators: drop an entry, duplicate one, or append a translate.
    Yields the block's path, the steps, whether the length changed, and the
    document."""
    rng = random.Random(f"generators:{seed}")
    docs = bundled_docs()
    for _ in range(cases):
        doc = copy.deepcopy(rng.choice(docs))
        name = rng.choice([n for n, b in doc["bsd"].items() if b["regulator_generators"]])
        gens = doc["bsd"][name]["regulator_generators"]
        length = len(gens)
        steps = rng.sample(("drop", "duplicate", "append"), rng.choice((1, 2)))
        for step in steps:
            if step == "drop" and gens:
                del gens[rng.randrange(len(gens))]
            elif step == "duplicate" and gens:
                gens.insert(rng.randrange(len(gens) + 1), copy.deepcopy(rng.choice(gens)))
            elif step == "append":
                gens.append({rng.choice(list(doc["heights"]["translates"])): "1"})
        yield f"bsd.{name}", "+".join(steps), len(gens) != length, doc


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_resized_generator_lists_end_in_an_error_or_a_prediction(seed):
    # the command line reports a DatasetError or an ExactArithmeticError
    # (a degenerate Gram determinant) with exit 3; a count other than the
    # block's rank is a DatasetError at the list itself
    raw, slow, unchecked = [], [], []
    for block, steps, resized, doc in resized_generator_lists(seed):
        where = f"{block}: {steps}"
        start = time.perf_counter()
        try:
            sha_predictions(parse_dataset(doc))
            if resized:
                unchecked.append(where)
        except DatasetError as e:
            if resized and e.path != f"{block}.regulator_generators":
                unchecked.append(where)
        except ExactArithmeticError:
            if resized:
                unchecked.append(where)
        except Exception as e:  # any other exception is a fault of the program
            raw.append((where, f"{type(e).__name__}: {str(e)[:120]}"))
        if time.perf_counter() - start > SECONDS_PER_CASE:
            slow.append(where)
    assert raw == [] and slow == [] and unchecked == []


def test_rank_twenty_block_ends_quickly():
    # the auto-23 benchmark tower with a degree-46 block of rank 20: ten
    # induced characters of multiplicity 2 and one generator per rotation.
    # The memoized Laplace minors took 10.6 s here on 2 vCPUs. The Gram
    # matrix is a*I + b*J with a = t(1) - t(s1) and b = t(s1), so its
    # determinant is a^19 * (a + 20b)
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    doc = gen.auto_input((23, [23]), random.Random(1))["doc"]
    doc["bsd"]["F"] = {
        "degree": 46, "signature": [46, 0] if doc["tower"]["K_real"] else [0, 23],
        "d_abs": 1, "torsion": 1, "tamagawa": {},
        "leading_characters": {f"ind:{i}": 2 for i in range(1, 11)},
        "regulator_generators": [{gen.fmt_element((j,), 0): "1"} for j in range(20)],
    }
    ds = parse_dataset(doc)
    t1, ts = (Fraction(doc["heights"]["translates"][g]["value"]) for g in ("1", "s1"))
    start = time.perf_counter()
    reg = field_regulator(ds, ds.bsd["F"])
    with pytest.raises(RecognitionError, match=r"within 1\.87e-19 of 6\.97470641988e\+15"):
        sha_predictions(ds)
    assert time.perf_counter() - start < 1
    assert reg.value == (t1 - ts) ** 19 * (t1 + 19 * ts) and reg.abs_error == 0
