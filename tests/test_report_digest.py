"""The report bytes are frozen: one SHA-256 over every text and structured
report of the bundled and benchmark inputs, the center_integrality reports on
their Q-vectors, the Sha predictions, the recognized irrational orbits, the
reports of relabeled inputs, and the parse outcome of every hostile document
of tests/test_fuzz_dataset.py with the Sha predictions of each that parses
(see tools/report_digest.py).

A change that alters report bytes on purpose updates PINNED and says why."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = ("0692f255566c0564376db53755ba1619508f79d49a930c67aaedf702d7b6749b", 2239)


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_bytes_match_the_pinned_digest():
    assert load_tool().report_digest() == PINNED
