"""The report bytes are frozen: one SHA-256 over every text and structured
report of the bundled and benchmark inputs, the Sha predictions and the
recognized irrational orbits (see tools/report_digest.py).

A change that alters report bytes on purpose updates PINNED and says why."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = ("2c55ed9f3fe155d2528eeadea08aed6481fceb8b22efc243aa9c332d8656ad70", 444)


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_bytes_match_the_pinned_digest():
    assert load_tool().report_digest() == PINNED
