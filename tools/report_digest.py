"""Print one SHA-256 over the reports of every bundled and benchmark input.

Run from the root of a checkout:

    python3 tools/report_digest.py

Hashed, in a fixed order: the text and structured reports of the two
bundled datasets and of every `perfbench/gen.py` input of the `towers-gz`
and `towers-auto` workloads at seeds 1 and 2, each verified under the
defaults, `n_override=1`, `n_override=2` and `route="gz"`, and after the
defaults the `center_integrality` report on the Q-vector (none when that
verification returned before recognition); then the `sha_predictions` of
both bundled datasets; then `recognize_orbit` on the irrational orbits
listed in ORBITS, of sizes 2, 3 and 5 at m = p and 10, 9, 21, 55 and 147
at m = 25, 27, 49, 121 and 343; then the text and structured reports of
`verify(relabel_dataset(ds, a))` for both bundled datasets at every unit
a != 1 modulo the exponent of P, and for every benchmark input at a = 2;
then the outcome of `parse_dataset` on each of the 1500 hostile documents of
`tests/test_fuzz_dataset.py` (`mutated_docs` at seeds 0, 1 and 2): "ok", or
the error with its dotted path, and for each document that parses its
`sha_predictions`. A call that raises is hashed as its exception type and
message. The output is one line per part, "outputs:" and then
"fuzz_outcomes:", each with its own digest and count, so a change that moves
only parse outcomes shows that the reports held. The last line is the
digest and the number of outputs over both parts; two checkouts that print
the same line gave byte-identical reports and boundary messages.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from twistcong.bsdsquares import sha_predictions  # noqa: E402
from twistcong.dataset import parse_dataset  # noqa: E402
from twistcong.engine import relabel_dataset, verify  # noqa: E402
from twistcong.exact import (CyclotomicNumber, DecimalWithError, real_embedding,  # noqa: E402
                             recognize_orbit)
from twistcong.groups import DihedralGroup, center_integrality, orbit_units  # noqa: E402
from twistcong.report import render  # noqa: E402

SEEDS = (1, 2)
FUZZ_SEEDS = (0, 1, 2)
VARIANTS = (("defaults", {}), ("n_override=1", {"n_override": 1}),
            ("n_override=2", {"n_override": 2}), ("route=gz", {"route": "gz"}))
# (p, m, r, {k: c_k}): the orbit of x = r + sum_k c_k (zeta_m^k + zeta_m^-k),
# aligned as the induced orbit of size phi(m)/2 of the dihedral group of
# order 2m; at m = p^n with n > 1 the coordinates of x couple modulo p^(n-1)
ORBITS = ((5, 5, Fraction(32), {1: 16}), (7, 7, Fraction(3), {1: 2}),
          (11, 11, Fraction(1, 3), {1: 1, 2: -2}),
          (5, 25, Fraction(1, 2), {1: 1, 2: -3, 5: 2}),
          (3, 27, Fraction(2), {1: Fraction(1, 2), 4: 1, 9: -1}),
          (7, 49, Fraction(-1, 3), {1: 1, 3: Fraction(2, 5), 7: 2}),
          (11, 121, Fraction(3, 2), {1: 1, 5: -2, 11: Fraction(1, 3)}),
          (7, 343, Fraction(2, 3), {1: 1, 2: Fraction(-1, 2), 49: 3}))


def inputs() -> list[tuple[str, dict]]:
    out = [(f"bundled/{i['name']}", i["doc"]) for i in gen.bundled_inputs(ROOT / "src")]
    for workload in ("towers-gz", "towers-auto"):
        for seed in SEEDS:
            out += [(f"{workload}:{seed}/{i['name']}", i["doc"])
                    for i in gen.make_inputs(workload, seed, ROOT / "src")]
    return out


def outputs():
    """(label, text) for every hashed output, in a fixed order."""
    for name, doc in inputs():
        for variant, kwargs in VARIANTS:
            label = f"{name} [{variant}]"
            try:
                result = verify(ds := parse_dataset(doc), **kwargs)
            except Exception as e:  # recorded, not hidden: it is part of the digest
                yield label, f"{type(e).__name__}: {e}"
                continue
            for fmt in ("text", "structured"):
                yield f"{label} {fmt}", render(result, fmt)
            if variant == "defaults" and result.characters:
                q_values = {lbl: r.q_value for lbl, r in result.characters.items()}
                try:
                    text = repr(center_integrality(q_values, ds.group))
                except Exception as e:
                    text = f"{type(e).__name__}: {e}"
                yield f"{name} center_integrality", text
    for entry in gen.bundled_inputs(ROOT / "src"):
        label = f"sha_predictions {entry['name']}"
        try:
            text = repr(sorted(sha_predictions(parse_dataset(entry["doc"])).items()))
        except Exception as e:
            text = f"{type(e).__name__}: {e}"
        yield label, text
    for p, m, r, cs in ORBITS:
        units = orbit_units(DihedralGroup(p, [m]))[2]
        x = r + sum((c * (CyclotomicNumber.zeta_power(m, k) + CyclotomicNumber.zeta_power(m, -k))
                     for k, c in cs.items()), CyclotomicNumber.rational(0))
        xs = [DecimalWithError(real_embedding(x.galois_apply(a)).value, Fraction(1, 10 ** 30))
              for a in units]
        try:
            orb = recognize_orbit(xs, m, units)
            text = repr(([[str(c) for c in v.coeffs] for v in orb.values],
                         [str(c) for c in orb.min_poly]))
        except Exception as e:
            text = f"{type(e).__name__}: {e}"
        yield f"recognize_orbit m={m} size={len(units)}", text
    for name, doc in inputs():
        try:
            ds = parse_dataset(doc)
        except Exception as e:
            yield f"{name} relabel", f"{type(e).__name__}: {e}"
            continue
        bundled = name.startswith("bundled/")
        for a in [a for a in ds.group.galois_unit_reps() if a != 1] if bundled else [2]:
            label = f"{name} relabel a={a}"
            try:
                result = verify(relabel_dataset(ds, a))
            except Exception as e:
                yield label, f"{type(e).__name__}: {e}"
                continue
            for fmt in ("text", "structured"):
                yield f"{label} {fmt}", render(result, fmt)


def fuzz_outcomes():
    """(label, outcome) of parse_dataset on every hostile fuzz document, and
    of sha_predictions on each that parses; the generator is loaded from the
    test file, not copied."""
    path = ROOT / "tests" / "test_fuzz_dataset.py"
    spec = importlib.util.spec_from_file_location("test_fuzz_dataset", path)
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    for seed in FUZZ_SEEDS:
        for case, (_, doc) in enumerate(fuzz.mutated_docs(seed)):
            label = f"fuzz seed={seed} case={case}"
            try:
                ds = parse_dataset(doc)
            except Exception as e:
                yield label, f"{type(e).__name__}: {e}"
                continue
            yield label, "ok"
            try:
                text = repr(sorted(sha_predictions(ds).items()))
            except Exception as e:
                text = f"{type(e).__name__}: {e}"
            yield f"{label} sha_predictions", text


def digests() -> list[tuple[str, str, int]]:
    """(name, SHA-256 hex digest, number of outputs) for outputs(), for
    fuzz_outcomes(), and last for both in that order ("total"), in one pass."""
    total, out, count = hashlib.sha256(), [], 0
    for name, pairs in (("outputs", outputs()), ("fuzz_outcomes", fuzz_outcomes())):
        section, n = hashlib.sha256(), 0
        for label, text in pairs:
            for part in (label, text):
                data = part.encode("utf-8")
                framed = len(data).to_bytes(8, "big") + data
                section.update(framed)
                total.update(framed)
            n += 1
        out.append((name, section.hexdigest(), n))
        count += n
    return out + [("total", total.hexdigest(), count)]


def report_digest() -> tuple[str, int]:
    """The SHA-256 hex digest over every output, and the number of outputs."""
    _, hexdigest, count = digests()[-1]
    return hexdigest, count


def main() -> None:
    *sections, (_, hexdigest, count) = digests()
    for name, section_digest, n in sections:
        print(f"{name}: {section_digest} {n}")
    print(f"{hexdigest} {count}")


if __name__ == "__main__":
    main()
