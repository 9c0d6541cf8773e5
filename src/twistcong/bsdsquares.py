"""Arithmetic consequences modulo rational squares.

Two services live here:

* order predictions for Tate-Shafarevich groups of the fields in the tower,
  obtained by solving the Birch--Swinnerton-Dyer leading-term formula for
  each field block of a dataset and recognizing the result as a rational;

* the sextic-tower (S3) consistency machinery: Tamagawa-number and
  Neron-differential bookkeeping per place, and the product congruence
  "Q(triv)Q(eps) agrees with Q(psi) up to a rational square" that the
  per-place checks guarantee for BSD-consistent data.

Everything is exact rational arithmetic; decimals only enter via the leading
terms and are recognized before any divisibility statement is made.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .dataset import Dataset, DatasetError, FieldBlock
from .exact import (SQRT_DIGITS, DecimalWithError, IntervalError, is_square_rational,
                    rational_reconstruct, sqrt_rational_approx)
from .groups import Character
from .heights import field_period, regulator_from_translates
from .localfactors import global_correction


def mod_square_equivalent(x: Fraction, y: Fraction) -> bool:
    """True when x/y is the square of a nonzero rational."""
    x, y = Fraction(x), Fraction(y)
    if x == 0 or y == 0:
        raise ValueError("mod-square comparison needs nonzero values")
    return is_square_rational(x * y)


# ---------------------------------------------------------------------------
# Sha predictions from dataset field blocks
# ---------------------------------------------------------------------------

def _detruncated_leading(ds: Dataset, label: str) -> DecimalWithError:
    ca = ds.analytic.characters[label]
    value = ca.leading_term
    if ca.truncated:
        char = Character.from_label(ds.group, label)
        places = [ds.places[s] for s in ds.tower.S_r]
        corr = global_correction(char, places)
        value = value / corr.t
    return value


def field_leading_term(ds: Dataset, fb: FieldBlock) -> DecimalWithError:
    """L*(A/E, 1) as the product of the character leading terms appearing in
    the factorization of the L-series of A over E, with any per-field
    overrides taking precedence."""
    prod = DecimalWithError.exact(1)
    for label, mult in fb.leading_characters.items():
        if label in fb.leading_overrides:
            base = fb.leading_overrides[label]
        else:
            base = _detruncated_leading(ds, label)
        for _ in range(mult):
            prod = prod * base
    return prod


def field_regulator(ds: Dataset, fb: FieldBlock) -> DecimalWithError:
    if fb.regulator is not None:
        return fb.regulator
    if fb.regulator_generators is not None:
        try:
            return regulator_from_translates(ds.group, ds.heights.translates,
                                             fb.regulator_generators, ds.group.order // fb.degree)
        except IntervalError as e:
            raise DatasetError(f"bsd.{fb.name}.regulator_generators", str(e)) from e
    return DecimalWithError.exact(1)


def bsd_quotient(ds: Dataset, fb: FieldBlock) -> DecimalWithError:
    """B_E = L*(A/E,1) * sqrt|d_E| / (Omega(A/E) * Reg(A/E))."""
    num = field_leading_term(ds, fb) * sqrt_rational_approx(fb.d_abs, SQRT_DIGITS)
    omega = field_period(fb.signature, ds.analytic.omega_plus,
                         ds.analytic.omega_minus, ds.curve.c_infinity)
    divisor = omega * field_regulator(ds, fb)
    if abs(divisor.value) <= divisor.abs_error:
        raise DatasetError(f"bsd.{fb.name}", "the period times the regulator may be 0")
    return num / divisor


def sha_prediction(ds: Dataset, field_name: str) -> Fraction:
    """Solve the leading-term formula for the Tate-Shafarevich order of the
    named field block and return it as an exact rational."""
    if field_name not in ds.bsd:
        raise DatasetError(f"bsd.{field_name}", "no such field block in this dataset")
    fb = ds.bsd[field_name]
    b = bsd_quotient(ds, fb)
    sha = b * Fraction(fb.torsion ** 2) / (Fraction(fb.tamagawa_product()) * fb.omega_quotient)
    return rational_reconstruct(sha, ds.options.den_bound)


def sha_predictions(ds: Dataset) -> dict[str, Fraction]:
    return {name: sha_prediction(ds, name) for name in ds.bsd}


# ---------------------------------------------------------------------------
# sextic-tower bookkeeping rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TamagawaRow:
    """Component-group orders of one bad place across the sextic tower:
    at the base field, at the places above it in the quadratic field, and at
    the places above it in the cubic field."""

    place: str
    c_base: int
    c_quadratic: tuple[int, ...]
    c_cubic: tuple[int, ...]
    kodaira: str | None = None

    def square_consistent(self) -> bool:
        lhs = self.c_base
        for c in self.c_quadratic:
            lhs *= c
        rhs = 1
        for c in self.c_cubic:
            rhs *= c
        return mod_square_equivalent(Fraction(lhs), Fraction(rhs))

    def case_note(self) -> str:
        if len(self.c_cubic) == 1 and self.c_base == 1 and self.c_cubic[0] == 4:
            return "unit component count grows 1 -> 4 (quadratic-twist fiber)"
        if self.c_cubic == (self.c_base,) * 3:
            return "place splits completely; counts repeat"
        return ""


@dataclass(frozen=True)
class NeronRow:
    """Valuations of the Neron differential quotients across the tower; the
    degrees force base + quadratic = cubic for the summed exponents."""

    place: str
    val_base: int
    vals_quadratic: tuple[int, ...]
    vals_cubic: tuple[int, ...]

    def consistent(self) -> bool:
        return self.val_base + sum(self.vals_quadratic) == sum(self.vals_cubic)


def tamagawa_congruence(rows: list[TamagawaRow]) -> tuple[bool, list[tuple[str, bool, str]]]:
    verdicts = [(r.place, r.square_consistent(), r.case_note()) for r in rows]
    return all(ok for _, ok, _ in verdicts), verdicts


def neron_quotient_check(rows: list[NeronRow]) -> tuple[bool, list[tuple[str, bool]]]:
    verdicts = [(r.place, r.consistent()) for r in rows]
    return all(ok for _, ok in verdicts), verdicts


# ---------------------------------------------------------------------------
# synthetic sextic-tower instances
# ---------------------------------------------------------------------------

@dataclass
class S3Instance:
    """An exact BSD-style data point over a sextic dihedral tower, carrying
    the three per-field quotients B_E and the per-place bookkeeping that
    produced them."""

    b_base: Fraction
    b_quadratic: Fraction
    b_cubic: Fraction
    c_infinity: int
    tam_rows: list[TamagawaRow] = field(default_factory=list)
    ne_rows: list[NeronRow] = field(default_factory=list)

    def q_products(self) -> tuple[Fraction, Fraction, Fraction]:
        """(Qt_1, Qt_eps, Qt_psi) with the regulator-quotient normalization.

        Archimedean accounting: the base and the cubic field each have one
        real embedding carrying the component count c_inf, the quadratic
        field is imaginary and its complex place carries the universal
        doubling; so Qt_1 = B_base*c_inf, Qt_1*Qt_eps = 2*B_quad and
        Qt_1*Qt_psi = 2*c_inf*B_cubic.
        """
        q1 = self.b_base * self.c_infinity
        qe = 2 * self.b_quadratic / q1
        qp = 2 * self.c_infinity * self.b_cubic / q1
        return q1, qe, qp

    def square_congruence_holds(self) -> bool:
        q1, qe, qp = self.q_products()
        return mod_square_equivalent(q1 * qe, qp)


# per-place Tamagawa patterns that occur for abelian-variety component groups
# across a sextic dihedral tower (split/inert/fiber-change cases); each entry
# is (c_base, c_quadratic, c_cubic, kodaira_label)
_TAM_PATTERNS: list[tuple[int, tuple[int, ...], tuple[int, ...], str | None]] = [
    (1, (1, 1), (1, 1, 1), None),          # good-reduction filler
    (2, (2, 2), (2, 2, 2), "I2"),          # splits completely, counts repeat
    (3, (3, 3), (3, 3, 3), "I3"),
    (4, (4, 4), (4, 4, 4), "I4"),
    (5, (5, 5), (5, 5, 5), "I5"),
    (1, (1,), (4,), "I0*"),                # additive fiber gaining components
    (4, (4,), (4,), "I4"),                 # inert; square count survives
    (1, (1,), (1,), "II"),
    (2, (4,), (2,), "I2"),                 # nonsplit multiplicative turning split
    (1, (2,), (2,), "I2"),                 # gains the split branch only upstairs
]


def random_s3_instance(rng: random.Random, places: int = 3) -> S3Instance:
    """A BSD-consistent synthetic instance: square Sha orders, arbitrary
    torsion and regulators cancel by construction, Tamagawa rows from the
    occurring patterns, differential rows obeying the degree bookkeeping."""
    c_inf = rng.choice([1, 2])
    tam_rows: list[TamagawaRow] = []
    ne_rows: list[NeronRow] = []
    c_prod = {"base": 1, "quad": 1, "cubic": 1}
    for i in range(places):
        cb, cq, cc, kod = rng.choice(_TAM_PATTERNS)
        label = f"v{i + 1}"
        tam_rows.append(TamagawaRow(label, cb, cq, cc, kod))
        c_prod["base"] *= cb
        for c in cq:
            c_prod["quad"] *= c
        for c in cc:
            c_prod["cubic"] *= c
        m = rng.randrange(0, 3)
        quad_vals = (m, m) if rng.random() < 0.5 else (2 * m,)
        cubic_total = m + sum(quad_vals)
        split = rng.randrange(0, cubic_total + 1)
        cubic_vals = (split, cubic_total - split)
        ne_rows.append(NeronRow(label, m, quad_vals, cubic_vals))
    sha = {k: rng.choice([1, 4, 9, 16, 25]) for k in ("base", "quad", "cubic")}
    tor = {k: rng.choice([1, 2, 3, 4, 6, 8]) for k in ("base", "quad", "cubic")}
    # differential quotients contribute u^val per place with u the uniformizer
    # valuation; consistent rows make the combined ratio 1, so any positive
    # rational works as the common scale here
    b = {}
    for k in ("base", "quad", "cubic"):
        b[k] = Fraction(sha[k] * c_prod[k], tor[k] ** 2)
    return S3Instance(
        b_base=b["base"], b_quadratic=b["quad"], b_cubic=b["cubic"],
        c_infinity=c_inf, tam_rows=tam_rows, ne_rows=ne_rows,
    )


def plant_violation(instance: S3Instance, rng: random.Random) -> S3Instance:
    """Break one Tamagawa row by a non-square factor and propagate the change
    into the cubic-field quotient, so both the row check and the product
    congruence detect it."""
    rows = list(instance.tam_rows)
    idx = rng.randrange(len(rows))
    r = rows[idx]
    bumped = tuple([r.c_cubic[0] * 2] + list(r.c_cubic[1:]))
    rows[idx] = TamagawaRow(r.place, r.c_base, r.c_quadratic, bumped, r.kodaira)
    return S3Instance(
        b_base=instance.b_base,
        b_quadratic=instance.b_quadratic,
        b_cubic=instance.b_cubic * 2,
        c_infinity=instance.c_infinity,
        tam_rows=rows,
        ne_rows=instance.ne_rows,
    )


def s3_consistency(instance: S3Instance) -> tuple[bool, dict[str, bool]]:
    """All three layers of the sextic consistency check."""
    tam_ok, _ = tamagawa_congruence(instance.tam_rows)
    ne_ok, _ = neron_quotient_check(instance.ne_rows)
    sq_ok = instance.square_congruence_holds()
    return tam_ok and ne_ok and sq_ok, {
        "tamagawa": tam_ok, "neron": ne_ok, "square_congruence": sq_ok,
    }
