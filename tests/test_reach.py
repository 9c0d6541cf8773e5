"""Every function in src/ is entered by a command, or is pinned here with the
reason it is kept: a library entry point, an operator, or an error path no
command reaches."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistcong"

DATASETS = ("21a1-quintic-19", "37a1-septic-577")
FLAG_SETS = ((), ("--format", "structured"), ("--route", "gz"), ("--n-override", "1"),
             ("--n-override", "2"))
RUNS = (
    [["verify", "--dataset", name, *flags, "--out", os.devnull]
     for name in DATASETS for flags in FLAG_SETS]
    + [["bsd-squares", "--dataset", name, "--format", fmt, "--out", os.devnull]
       for name in DATASETS for fmt in ("text", "structured")]
    + [["selftest"]]
    # failing calls: a missing file and bad argv; the bad fields are below
    + [["verify", "--dataset", "no-such-dataset.json"], ["verify"]]
)

# a field that is not an object, and a residue size that is not a prime power
BAD_FIELDS = (lambda doc: doc.update(curve=[]),
              lambda doc: doc["places"]["577"].update(q=6))

# one fresh interpreter, so that no lru_cache or cached_property filled by an
# earlier test hides a call
SCRIPT = """
import contextlib, io, json, os, sys
from twistcong import cli

package = os.path.dirname(cli.__file__) + os.sep
entered = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        code = frame.f_code
        entered.add(os.path.basename(code.co_filename)[:-3] + "." + code.co_qualname)

sys.setprofile(record)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in {runs!r}:
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""

# the functions no command enters, each with the reason it stays
UNENTERED = {
    # library entry points, named in the README
    "groups.center_integrality":
        "the G-level reading of the congruence; criterion 5 and the digest",
    "groups.Character.stabilizer_units": "called by center_integrality alone",
    "groups.IntegralityReport.__init__": "built by center_integrality alone",
    "engine.relabel_dataset": "the metamorphic relabeling; criterion 2, the digest and a demo",
    "engine.relabel_dataset.<locals>.move": "relabel_dataset's element map",
    # operators and displays that complete the value types
    "exact.CyclotomicNumber.__pow__": "tests/test_exact.py checks it against a reference",
    "exact.CyclotomicNumber.__sub__": "operator",
    "exact.CyclotomicNumber.__rsub__": "operator",
    "exact.CyclotomicNumber.__repr__": "display",
    "exact.DecimalWithError.__add__": "operator",
    "exact.DecimalWithError.__neg__": "operator",
    "exact.DecimalWithError.__sub__": "operator",
    "exact.DecimalWithError.__repr__": "display",
    "exact.DecimalWithError.contains": "predicate; the tests check intervals by it",
    # the record base: its methods that no command calls
    "record.Record.__init_subclass__":
        "runs once per record class as its module is imported, before any command",
    "record.Record.__eq__": "record equality; the tests compare results and datasets by it",
    "record.Record.__repr__": "display; tools/report_digest.py hashes an IntegralityReport's",
    "record.Record._hash": "value hashing of the hashable records, which no command hashes",
    # error paths that the bundled data cannot reach
    "engine.RouteDataError.__init__":
        "the gz route on a dataset without its curve constants; both bundled ones have them",
    "groups.NotEquivariantError.__init__":
        "sums that are not Galois-equivariant, which recognized values cannot give",
}


def defined_functions() -> set[str]:
    """module.qualname of every def in the package, as co_qualname spells it."""
    names = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def test_every_function_is_entered_or_pinned(tmp_path):
    runs = list(RUNS)
    for i, edit in enumerate(BAD_FIELDS):
        doc = json.loads((PACKAGE / "datasets" / "37a1-septic-577.json").read_text())
        edit(doc)
        bad = tmp_path / f"bad-{i}.json"
        bad.write_text(json.dumps(doc))
        runs.append(["verify", "--dataset", str(bad)])
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(runs=runs)],
                          env=env, capture_output=True, text=True, check=True)
    entered = set(json.loads(done.stdout))
    defined = defined_functions()
    assert sorted(defined - entered) == sorted(UNENTERED)
