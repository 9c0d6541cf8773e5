"""Seeded inputs for the benchmark workloads.

Every input is one dataset document (the JSON text the program receives)
plus the constants it was synthesized from (kept by the benchmark, never
shown to the program). The same seed gives the same inputs.

    python3 perfbench/gen.py --workload towers-gz --seed 1 --out towers.json

writes the inputs of one workload to a file. The tower shapes of each
workload are fixed; the seed varies the curve, the quadratic layer, the
periods, the heights and the chosen exact values.

Synthetic towers are unramified (S_r is empty), so every local correction
is (u, t) = (1, 1) and the Q-vector is exactly the chosen values:

* `gz` towers pin the height-point constant C; Q(triv) = Q(ind) = C and
  Q(eps) = 1, so S(1) = |P| C and S(pi) = 0 for pi != 1.
* `auto` towers synthesize every leading term from chosen rationals
  Q(triv) = A, Q(eps) = B and a constant Q(ind) = q, so
  S(1) = AB + (|P| - 1) q and S(pi) = AB - q for pi != 1.

The height translates are the class function whose character contractions
are chosen rationals h_triv, h_eps and one eta for every induced character:
t(g) = (2/|G|) sum_psi psi(g) h_psi.
"""
from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath

# (label, a-invariants, conductor, rank over Q, torsion, Tamagawa numbers,
# real components); constants from the curve tables
CURVES = [
    ("37a1", [0, 0, 1, -1, 0], 37, 1, 1, {"37": 1}, 2),
    ("43a1", [0, 1, 1, 0, 0], 43, 1, 1, {"43": 1}, 1),
    ("53a1", [1, -1, 1, 0, 0], 53, 1, 1, {"53": 1}, 2),
    ("11a1", [0, -1, 1, -10, -20], 11, 0, 5, {"11": 5}, 1),
    ("21a1", [1, 0, 0, -4, -1], 21, 0, 8, {"3": 4, "7": 2}, 2),
]
# absolute discriminants of quadratic fields: (|d_K|, real, unit count)
QUADRATIC = [(4, False, 4), (3, False, 6), (7, False, 2), (8, False, 2),
             (19, False, 2), (5, True, None), (13, True, None), (17, True, None),
             (29, True, None), (41, True, None)]

# (p, cyclic factors); ROADMAP open item A sweep without |P| = 121, 125
GZ_SHAPES = [(3, [3]), (5, [5]), (7, [7]), (11, [11]), (23, [23]), (47, [47]),
             (3, [9]), (5, [25]), (3, [27]), (7, [49]),
             (3, [3, 3]), (3, [9, 3]), (5, [5, 5])]
# towers whose correct verdict is FAIL: the constant C is p * unit or unit / p
GZ_PLANTED = [((5, [5]), 1), ((3, [3, 3]), -1)]
AUTO_SHAPES = [(3, [3]), (5, [5]), (7, [7]), (11, [11]), (13, [13]), (23, [23]),
               (3, [9]), (5, [25]), (3, [3, 3]), (5, [5, 5])]
# towers whose correct verdict is FAIL: Q(triv)Q(eps) - q has valuation n - 1
AUTO_PLANTED = [(7, [7]), (3, [9])]
# the shapes kept out of towers-gz, for reference timings only
SLOW_SHAPES = [(11, [121]), (5, [125])]

DIGITS = 48


def p_order(factors) -> int:
    out = 1
    for f in factors:
        out *= f
    return out


def v_p(x, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def fmt_element(rot, flip) -> str:
    parts = [f"s{i + 1}" if r == 1 else f"s{i + 1}^{r}"
             for i, r in enumerate(rot) if r]
    if flip:
        parts.append("t")
    return "*".join(parts) if parts else "1"


def induced_labels(factors) -> list[str]:
    """One label per pair {chi, chi-bar}: the smaller exponent vector."""
    out = []
    for a in product(*(range(f) for f in factors)):
        if any(a):
            neg = tuple((-x) % f for x, f in zip(a, factors))
            rep = min(a, neg)
            label = "ind:" + ",".join(str(x) for x in rep)
            if label not in out:
                out.append(label)
    return out


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def unit_rational(rng: random.Random, p: int, bound: int) -> Fraction:
    """A random nonzero rational with numerator and denominator prime to p."""
    def part():
        while True:
            v = rng.randrange(1, bound)
            if v % p:
                return v
    return Fraction(rng.choice([-1, 1]) * part(), part())


def decimal_str(x) -> str:
    return mpmath.nstr(x, DIGITS, strip_zeros=False)


def period_str(x: Fraction) -> str:
    """The exact decimal expansion of a period drawn with 35 decimals."""
    whole, frac = divmod(x.numerator * 10 ** 35 // x.denominator, 10 ** 35)
    return f"{whole}.{frac:035d}"


def tower_doc(p: int, factors: list[int], rng: random.Random, route: str,
              q_triv: Fraction, q_eps: Fraction, q_ind: Fraction,
              label: str) -> dict:
    """One unramified tower whose normalized leading terms are exactly the
    given Q-values."""
    P = p_order(factors)
    G = 2 * P
    curves = [c for c in CURVES
              if c[2] % p and c[4] % p and all(v % p for v in c[5].values())]
    name, ainv, conductor, rank, torsion, tamagawa, c_inf = rng.choice(curves)
    d_K, K_real, units = rng.choice([q for q in QUADRATIC if q[0] % p])
    omega_plus = Fraction(rng.randrange(10 ** 35, 4 * 10 ** 35), 10 ** 35)
    omega_minus = Fraction(rng.randrange(10 ** 35, 4 * 10 ** 35), 10 ** 35)
    h_triv = Fraction(rng.randrange(20, 200), rng.randrange(7, 50))
    h_eps = Fraction(rng.randrange(20, 200), rng.randrange(7, 50))
    eta = Fraction(rng.randrange(20, 200), rng.randrange(7, 50))
    rho = "triv" if rank == 0 else "eps"
    inds = induced_labels(factors)

    # translates: the class function with contractions h_triv, h_eps, eta
    translates = {}
    for rot in product(*(range(f) for f in factors)):
        is_one = not any(rot)
        t_rot = Fraction(2, G) * (h_triv + h_eps + eta * ((P if is_one else 0) - 1))
        t_ref = Fraction(2, G) * (h_triv - h_eps)
        translates[fmt_element(rot, 0)] = {"value": frac_str(t_rot), "abs_error": "0"}
        translates[fmt_element(rot, 1)] = {"value": frac_str(t_ref), "abs_error": "0"}

    def leading(kind: str, q: Fraction) -> dict:
        # L = Q * Omega_psi * H_psi / sqrt(d_psi)
        if kind == "triv":
            omega, d = omega_plus, 1
        elif kind == "eps":
            omega = omega_plus if K_real else omega_minus
            d = d_K
        else:
            omega = omega_plus * omega_plus if K_real else omega_plus * omega_minus
            d = d_K
        height = Fraction(1) if kind == rho else {"triv": h_triv, "eps": h_eps}.get(kind, eta)
        num = q * omega * height
        with mpmath.workdps(DIGITS + 20):
            value = (mpmath.mpf(num.numerator) / num.denominator) / mpmath.sqrt(d)
            return {"value": decimal_str(value), "abs_error": "1e-40"}

    orders = {"triv": rank, "eps": 1 - rank}
    characters = {
        "triv": {"order": orders["triv"], "leading_term": leading("triv", q_triv),
                 "truncated": False},
        "eps": {"order": orders["eps"], "leading_term": leading("eps", q_eps),
                "truncated": False},
    }
    for lbl in inds:
        characters[lbl] = {"order": 1, "leading_term": leading("ind", q_ind),
                           "truncated": False}

    return {
        "spec_version": 1,
        "label": label,
        "group": {"p": p, "cyclic_factors": list(factors)},
        "curve": {
            "label": name, "conductor": conductor, "a_invariants": ainv,
            "rank_base": rank, "rank_quadratic": 1,
            "torsion": {"k": torsion, "K": torsion, "F": torsion},
            "tamagawa_base": dict(tamagawa), "tamagawa_quadratic": dict(tamagawa),
            "c_infinity": c_inf, "manin_constant": 1,
            "unit_count_K": units,
        },
        "tower": {
            "d_k_abs": 1, "d_K_abs": d_K, "K_real": K_real,
            "conductor_norms": {}, "S_r": [], "S_r_split": [],
            "S_bad": sorted({str(q) for q in tamagawa}),
        },
        "places": {},
        "analytic": {
            "omega_plus": {"value": period_str(omega_plus), "abs_error": "1e-36"},
            "omega_minus": {"value": period_str(omega_minus), "abs_error": "1e-36"},
            "characters": characters,
        },
        "heights": {"normalization": "synthetic class-function Gram", "translates": translates},
        "bsd": {},
        "options": {
            "p_power_required": None, "den_bound": 1000000, "route": route,
            "gz_constant": frac_str(q_triv) if route == "gz" else None,
            "embedding_digits": 50,
        },
        "provenance": {"tower": "synthetic unramified tower for benchmarking; "
                                "leading terms synthesized from chosen exact values"},
    }


def gz_input(shape, rng: random.Random, planted: int = 0) -> dict:
    """planted = 0: C a p-unit; +1: C = p * unit; -1: C = unit / p."""
    p, factors = shape
    C = unit_rational(rng, p, 400) * Fraction(p) ** planted
    P = p_order(factors)
    tag = "x".join(str(f) for f in factors)
    doc = tower_doc(p, factors, rng, "gz", C, Fraction(1), C,
                    f"gz-{tag}{'-planted' if planted else ''}")
    return {"name": doc["label"], "doc": doc,
            "expect": {"kind": "gz", "p": p, "n": v_p(P, p),
                       "C": frac_str(C), "verdict": "FAIL" if planted else "PASS"}}


def auto_input(shape, rng: random.Random, planted: bool = False) -> dict:
    p, factors = shape
    P = p_order(factors)
    n = v_p(P, p)
    A = unit_rational(rng, p, 60)
    B = unit_rational(rng, p, 60)
    r = unit_rational(rng, p, 12)
    base = A * B
    if planted:
        # keep q a p-unit: for n = 1 the shift must not cancel AB mod p
        while n == 1 and (base + r).numerator % p == 0:
            r = unit_rational(rng, p, 12)
        q = base + Fraction(p) ** (n - 1) * r
    else:
        q = base + Fraction(p) ** n * r
    tag = "x".join(str(f) for f in factors)
    doc = tower_doc(p, factors, rng, "auto", A, B, q,
                    f"auto-{tag}{'-planted' if planted else ''}")
    return {"name": doc["label"], "doc": doc,
            "expect": {"kind": "auto", "p": p, "n": n,
                       "A": frac_str(A), "B": frac_str(B), "q": frac_str(q),
                       "verdict": "FAIL" if planted else "PASS"}}


def bundled_inputs(src_dir: Path) -> list[dict]:
    out = []
    for name in ("37a1-septic-577", "21a1-quintic-19"):
        text = (src_dir / "twistcong" / "datasets" / f"{name}.json").read_text(encoding="utf-8")
        out.append({"name": name, "doc": json.loads(text),
                    "expect": {"kind": "bundled", "dataset": name}})
    return out


def make_inputs(workload: str, seed: int, src_dir: Path) -> list[dict]:
    if workload == "bundled":
        return bundled_inputs(src_dir)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "towers-gz":
        out = [gz_input(shape, rng) for shape in GZ_SHAPES]
        out += [gz_input(shape, rng, planted) for shape, planted in GZ_PLANTED]
        return out
    if workload == "towers-auto":
        out = [auto_input(shape, rng) for shape in AUTO_SHAPES]
        out += [auto_input(shape, rng, True) for shape in AUTO_PLANTED]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def cli_input_name(workload: str) -> str:
    """The input whose CLI run gives cli_cal."""
    return {"bundled": "21a1-quintic-19", "towers-gz": "gz-23",
            "towers-auto": "auto-13"}[workload]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("bundled", "towers-gz", "towers-auto"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    inputs = make_inputs(args.workload, args.seed, src)
    Path(args.out).write_text(json.dumps(inputs, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
