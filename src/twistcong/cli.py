"""Command-line entry point.

Subcommands:

    verify       run the congruence verification on one dataset
    bsd-squares  Sha predictions for the field blocks of a dataset, each
                 checked to be the square of an integer, as the order of a
                 finite Sha is (Cassels)
    selftest     quick internal consistency checks, including both bundled
                 datasets

Exit codes: 0 verified / consistent, 1 falsified, 2 inconclusive,
3 usage or data errors.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .dataset import (ROUTES, Dataset, DatasetError, bundled_dataset_names,
                      load_bundled_dataset, load_dataset)
from .engine import verify
from .exact import ExactArithmeticError, RecognitionError, is_square_rational
from .report import REPORT_VERSION, render, write_json

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_ERROR = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 for "inconclusive" and
    # report usage problems as data errors instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _load(source: str) -> Dataset:
    try:
        return load_dataset(source)
    except FileNotFoundError:
        if source in bundled_dataset_names():
            return load_bundled_dataset(source)
        raise DatasetError(source, "no such file, and no bundled dataset with this name")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _document(**fields) -> str:
    """A bsd-squares report in the structured format: sorted JSON keys,
    report_version among them."""
    return write_json({"report_version": REPORT_VERSION, **fields}) + "\n"


def _cmd_verify(args) -> int:
    ds = _load(args.dataset)
    result = verify(ds, route=args.route, n_override=args.n_override,
                    den_bound=args.den_bound)
    _emit(render(result, args.format), args.out)
    return {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}.get(result.verdict, EXIT_INCONCLUSIVE)


def _positive_int(text: str) -> int:
    # a bound below 1 is a usage error before any data are read: verify
    # would otherwise name a dataset field the user never wrote
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _cmd_bsd_squares(args) -> int:
    from .bsdsquares import sha_predictions

    ds = _load(args.dataset)
    if not ds.bsd:
        # no prediction would read as "consistent"
        raise DatasetError("bsd", "no field blocks to predict")
    try:
        preds = sha_predictions(ds)
    except RecognitionError as e:
        # the data are well formed, but too coarse to fix a prediction
        print(f"twistcong: inconclusive: {e}", file=sys.stderr)
        if args.format == "structured":
            _emit(_document(dataset=ds.label, inconclusive=str(e)), args.out)
        return EXIT_INCONCLUSIVE
    rows = []
    bad = []
    for name in sorted(preds):
        sha = preds[name]
        integral = sha > 0 and sha.denominator == 1
        square = is_square_rational(sha)
        # a finite Sha has the square of an integer as its order
        if not (integral and square):
            bad.append(name)
        rows.append({"field": name, "sha": str(sha), "integral": integral,
                     "square": square})
    if args.format == "structured":
        body = _document(dataset=ds.label, sha_predictions=rows)
    else:
        lines = [f"dataset: {ds.label}"]
        for row in rows:
            tag = "" if row["square"] else "   (not a square)"
            lines.append(f"  Sha({row['field']}) = {row['sha']}{tag}")
        if bad:
            lines.append(f"falsified: Sha is not the square of an integer at {', '.join(bad)}")
        body = "\n".join(lines) + "\n"
    _emit(body, args.out)
    return EXIT_FAIL if bad else EXIT_PASS


def _selftest_checks():
    from .exact import DecimalWithError, real_embedding, recognize_orbit
    from .groups import (CyclotomicNumber, DihedralGroup, character_sums,
                         irreducible_characters, kolyvagin_identity, zp_P_membership)

    yield ("group-ring identity for odd m in 3..25",
           all(kolyvagin_identity(m) for m in range(3, 26, 2)))

    ortho = True
    for p, factors in ((5, [5]), (7, [7]), (3, [3, 3])):
        group = DihedralGroup(p, factors)
        chars = irreducible_characters(group)
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                acc = CyclotomicNumber.rational(0)
                for g in group.elements():
                    acc = acc + ci.value(g) * cj.value(group.inverse(g))
                want = group.order if i == j else 0
                ortho = ortho and acc == CyclotomicNumber.rational(want)
    yield ("character orthogonality (two dihedral groups and one non-cyclic)", ortho)

    group3 = DihedralGroup(3, [3])
    # character transform of 3*[1] + 2*[s] + 2*[s^2]: (7, 1, 1)
    sample = {(0,): Fraction(7), (1,): Fraction(1), (2,): Fraction(1)}
    evals = {v: CyclotomicNumber.rational(c) for v, c in sample.items()}
    good = zp_P_membership(character_sums(evals, group3), group3).ok
    broken = dict(evals)
    broken[(0,)] = CyclotomicNumber.rational(Fraction(1, 3))
    yield ("group-ring membership accepts an integral vector and rejects a "
           "non-integral one",
           good and not zp_P_membership(character_sums(broken, group3), group3).ok)

    targets = [Fraction(24, 19), Fraction(-578, 577), Fraction(0), Fraction(100003, 7)]
    xs = [DecimalWithError(t + Fraction(1, 10 ** 25), Fraction(1, 10 ** 20))
          for t in targets]
    ok = all(recognize_orbit([x], 1, (1,)).values == (t,) for x, t in zip(xs, targets))
    # the conjugates of 3 + 2(zeta_7 + zeta_7^-1), in the order of the units 1, 2, 3
    z = CyclotomicNumber.zeta_power(7, 1)
    orbit = [(3 + 2 * (z + z.conjugate())).galois_apply(a) for a in (1, 2, 3)]
    xs = [DecimalWithError(e.value, e.abs_error + Fraction(1, 10 ** 30))
          for e in map(real_embedding, orbit)]
    ok = ok and list(recognize_orbit(xs, 7, (1, 2, 3)).values) == orbit
    yield ("recognition round-trips (rationals and a cubic orbit)", ok)

    for name in bundled_dataset_names():
        ds = load_bundled_dataset(name)
        result = verify(ds)
        yield (f"bundled dataset {name} verifies", result.verdict == "PASS")


def _cmd_selftest(_args) -> int:
    failures = 0
    for desc, ok in _selftest_checks():
        print(f"{'ok  ' if ok else 'FAIL'} {desc}")
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} selftest check(s) failed")
        return EXIT_INCONCLUSIVE
    print("all selftest checks passed")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twistcong",
                     description="p-adic congruence checks for twisted elliptic "
                                 "L-value data over dihedral extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify one dataset",
                        parents=[], description="Run the full congruence "
                        "verification and print a report.")
    pv.add_argument("--dataset", required=True,
                    help="path to a dataset file, or the name of a bundled one")
    pv.add_argument("--format", choices=("text", "structured"), default="text")
    pv.add_argument("--route", choices=ROUTES, default=None,
                    help="override the dataset's verification route")
    pv.add_argument("--den-bound", type=_positive_int, default=None,
                    help="denominator bound for recognizing exact values")
    pv.add_argument("--n-override", type=_positive_int, default=None,
                    help="test divisibility by p^n for this n instead of the default")
    pv.add_argument("--out", default=None, metavar="PATH",
                    help="write the report to this file instead of standard output")
    pv.set_defaults(func=_cmd_verify)

    pb = sub.add_parser("bsd-squares",
                        help="leading-term quotients and Sha predictions")
    pb.add_argument("--dataset", required=True,
                    help="path to a dataset file, or the name of a bundled one")
    pb.add_argument("--format", choices=("text", "structured"), default="text")
    pb.add_argument("--out", default=None, metavar="PATH",
                    help="write the report to this file instead of standard output")
    pb.set_defaults(func=_cmd_bsd_squares)

    ps = sub.add_parser("selftest", help="run quick internal checks")
    ps.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ExactArithmeticError, OSError) as e:
        print(f"twistcong: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
