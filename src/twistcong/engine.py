"""Assembly of normalized leading terms and the p-adic congruence checks.

The pipeline per dataset:

1. hypotheses on the arithmetic data (oddness, integrality, ramification
   disjointness, point counts) are re-checked from the dataset itself;
2. for each irreducible character the normalized leading term is assembled
   numerically as sqrt(d_psi) * L / (Omega_psi * H_psi); each Galois orbit of
   characters, aligned by groups.orbit_units, is recognized at once as the
   conjugates sigma_a(x) of one exact x in the real subfield of Q(zeta_e)
   whose degree is the orbit's size (exact.recognize_orbit); and the local
   correction u*t moves between the truncated and untruncated normalizations;
3. the exact values are tested for p-unitness and Galois equivariance, and
   the congruence sums S(pi) = Q(triv)Q(eps) + sum over nontrivial chi of
   chi(pi)^-1 Q(Ind chi) are tested for divisibility by p^n at every pi;
4. S(pi) is evaluated once (groups.character_sums), as one trace to Q per
   Galois orbit of characters, the orbit's terms being conjugate. By Fourier
   inversion every S(pi) is rational exactly when res_map's P-vector is
   Galois-equivariant; character_sums decides that once and otherwise raises
   NotEquivariantError, which leaves the verdict INCONCLUSIVE. The Z_p[P]
   membership formulation reads the same sums, so it does not recompute S(pi)
   independently; it tests S(pi)/|P| for p-integrality, and must agree with
   the line verdicts whenever the modulus is p^v_p(|P|), however it was set;
   so must the n = 1 shortcut Q(triv)Q(eps) + 2 sum Q(Ind chi). Every Galois
   equivariance test is groups.first_equivariance_failure: one generator of
   the cyclic (Z/p^n)^*, every unit only to name the first failure. verify
   runs it twice: on the Q-vector in unit_and_equivariance, and on its
   P-vector in character_sums.

The outcome is PASS / FAIL / INCONCLUSIVE: FAIL only when an exactly
computed quantity falsifies the congruence, INCONCLUSIVE when recognition or
a hypothesis leaves the question open.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .dataset import Dataset, DatasetError, HypothesisResult, check_hypotheses
from .exact import (SQRT_DIGITS, AmbiguousRecognitionError, CyclotomicNumber,
                    DecimalWithError, RecognitionError, integer_form, p_valuation,
                    rational_valuation, recognize_orbit, sqrt_rational_approx)
from .groups import (Character, DihedralGroup, GroupElement, NotEquivariantError,
                     character_orbits, character_sums, first_equivariance_failure,
                     irreducible_characters, orbit_units, res_map, zp_P_membership)
from .heights import character_heights, omega_factor
from .localfactors import LocalCorrection, LocalPlace, discriminant_factor, global_correction
from .record import Record, replace


class RouteDataError(DatasetError):
    """The gz route needs a curve constant the dataset does not give."""

    def __init__(self, message: str):
        super().__init__("options.route", message)


class CharacterResult(Record):
    def __init__(self, label: str, route: str, declared_order: int,
                 q_value: CyclotomicNumber, correction: LocalCorrection,
                 recognized: CyclotomicNumber, min_poly: tuple[Fraction, ...] | None,
                 p_valuation: Fraction):
        self.label, self.route, self.declared_order = label, route, declared_order
        self.q_value, self.correction, self.recognized = q_value, correction, recognized
        self.min_poly, self.p_valuation = min_poly, p_valuation


class CongruenceLine(Record):
    def __init__(self, element: str, value: Fraction, valuation: Fraction | None, ok: bool):
        # a valuation of None encodes S(pi) = 0 (infinite valuation)
        self.element, self.value, self.valuation, self.ok = element, value, valuation, ok

    def valuation_str(self) -> str:
        return "inf" if self.valuation is None else str(self.valuation)


class VerificationResult(Record):
    def __init__(self, dataset_label: str, p: int, n_required: int, route: str,
                 hypotheses: list[HypothesisResult],
                 characters: dict[str, CharacterResult] | None = None,
                 congruences: list[CongruenceLine] | None = None, unit_ok: bool = True,
                 equivariance_ok: bool = True, membership_agrees: bool | None = None,
                 shortcut_agrees: bool | None = None, verdict: str = "INCONCLUSIVE",
                 notes: list[str] | None = None):
        self.dataset_label, self.p, self.n_required = dataset_label, p, n_required
        self.route, self.hypotheses = route, hypotheses
        self.characters = {} if characters is None else characters
        self.congruences = [] if congruences is None else congruences
        self.unit_ok, self.equivariance_ok = unit_ok, equivariance_ok
        self.membership_agrees, self.shortcut_agrees = membership_agrees, shortcut_agrees
        self.verdict = verdict    # INCONCLUSIVE is what every early return of verify leaves
        self.notes = [] if notes is None else notes

    @property
    def congruences_ok(self) -> bool:
        return all(line.ok for line in self.congruences)


# ---------------------------------------------------------------------------
# numeric assembly
# ---------------------------------------------------------------------------

def height_norm(ds: Dataset, label: str,
                heights: Mapping[str, DecimalWithError] | None) -> DecimalWithError:
    """H_psi: 1 at the character carrying the Mordell-Weil rank (curve.rho_label():
    "triv" for rank 0 and "eps" for rank 1 over the base), and h_psi from the
    table of heights.character_heights otherwise. Once hypothesis (h) holds,
    every other character vanishes, and parse_dataset then requires translates."""
    if label == ds.curve.rho_label():
        return DecimalWithError.exact(1)
    return heights[label]


def assemble_numeric(ds: Dataset, orbit: Sequence[Character],
                     leading: Sequence[DecimalWithError],
                     norms: Sequence[DecimalWithError],
                     factors: dict | None = None) -> list[DecimalWithError]:
    """sqrt(d_psi) * L_psi / (Omega_psi * N_psi) for each psi of one Galois
    orbit, as intervals; a RecognitionError naming psi when the divisor
    interval contains 0. leading and norms are aligned with orbit.

    The interval is the one DecimalWithError's operators give, in one closed
    formula over integers: with A +- Ae = sqrt_d * L and B +- Be = Omega * N
    over the denominators DA and DB, the value is A DB / (DA B) and the error
    (Ae |B| + |A| Be) DB / (DA |B| (|B| - Be)), the monotone bound of
    DecimalWithError.__truediv__.

    factors maps (kind, conductor norm) to the integer forms of sqrt(d_psi)
    and Omega_psi, for the orbits of one recognize_characters call. Conjugate
    characters have the same kind and, by parse_dataset, the same conductor
    norm, so both are computed at most once per orbit."""
    c = orbit[0]
    conductor_norm = ds.tower.conductor_norms.get(c.label, 1)
    factors = {} if factors is None else factors
    if (found := factors.get((c.kind, conductor_norm))) is None:
        d = discriminant_factor(c, ds.tower.d_k_abs, ds.tower.d_K_abs, conductor_norm)
        omega = omega_factor(c, ds.analytic.omega_plus, ds.analytic.omega_minus,
                             ds.tower.K_real)
        found = factors[c.kind, conductor_norm] = (
            integer_form(sqrt_rational_approx(d, SQRT_DIGITS)), integer_form(omega))
    (sv, se, sd), (ov, oe, od) = found
    out = []
    for c, lead, norm in zip(orbit, leading, norms):
        lv, le, ld = integer_form(lead)
        nv, ne, nd = integer_form(norm)
        a, ae = sv * lv, abs(sv) * le + abs(lv) * se + se * le
        b, be = ov * nv, abs(ov) * ne + abs(nv) * oe + oe * ne
        if abs(b) <= be:
            # declared error bounds that swallow Omega_psi * N_psi leave no value
            raise RecognitionError(
                f"the period-height divisor of {c.label} is an interval containing 0")
        da, db = sd * ld, od * nd
        out.append(DecimalWithError(
            Fraction(a * db, da * b),
            Fraction((ae * abs(b) + abs(a) * be) * db, da * abs(b) * (abs(b) - be))))
    return out


# the correction over no ramified places, which global_correction(c, []) equals
UNRAMIFIED = LocalCorrection(u=CyclotomicNumber.rational(1), t=Fraction(1))


def _character_result(ds: Dataset, c: Character, recognized: CyclotomicNumber,
                      places: Sequence[LocalPlace], products: dict,
                      min_poly: tuple[Fraction, ...] | None = None,
                      route: str | None = None) -> CharacterResult:
    """The result for c: Q = recognized * u * t on the qhat route, or
    recognized * u alone on the direct route, the one of a truncated leading
    term. Unless a route is given, c's truncation flag chooses between them.
    places are the ramified places S_r, listed once per pass; without them the
    correction is UNRAMIFIED and Q is recognized itself.

    products maps the stored form (m, num, den) of recognized and of u, with
    t, to Q and v_p(Q), for the calls of one pass over the characters: on the
    gz route every induced character has the value C and, without ramified
    places, the correction (1, 1). A rational equals its copy in another
    conductor, but Q's report prints the conductor, so the key is the stored
    form."""
    if route is None:
        route = "direct" if ds.analytic.characters[c.label].truncated else "qhat"
    corr = global_correction(c, places) if places else UNRAMIFIED
    t = 1 if route == "direct" else corr.t
    u = corr.u
    key = (recognized.m, recognized.num, recognized.den, u.m, u.num, u.den, t)
    if (found := products.get(key)) is None:
        q = recognized * u * t if places else recognized
        v = p_valuation(q, ds.group.p) if not q.is_zero() else Fraction(0)
        found = products[key] = q, v
    q, v = found
    return CharacterResult(
        label=c.label, route=route, declared_order=ds.analytic.characters[c.label].order,
        q_value=q, correction=corr, recognized=recognized, min_poly=min_poly, p_valuation=v)


def recognize_characters(ds: Dataset) -> dict[str, CharacterResult]:
    """Recognize all normalized leading terms, one Galois orbit at a time."""
    group = ds.group
    heights = character_heights(group, ds.heights.translates) if ds.heights else None
    out: dict[str, CharacterResult] = {}
    places = [ds.places[s] for s in ds.tower.S_r]
    products: dict = {}
    factors: dict = {}
    for orbit, units in zip(character_orbits(group), orbit_units(group)):
        numerics = assemble_numeric(
            ds, orbit, [ds.analytic.characters[c.label].leading_term for c in orbit],
            [height_norm(ds, c.label, heights) for c in orbit], factors)
        orb = recognize_orbit(numerics, group.exponent, units, ds.options.den_bound)
        for c, recognized in zip(orbit, orb.values):
            out[c.label] = _character_result(ds, c, recognized, places, products,
                                             orb.min_poly if len(orbit) > 1 else None)
    return out


# ---------------------------------------------------------------------------
# the Heegner-point route: one curve constant instead of L-data
# ---------------------------------------------------------------------------

def gz_constant(ds: Dataset) -> Fraction:
    """The constant C relating derivative leading terms to heights of
    Heegner-style points: 4*c_inf / (manin^2 * unit_count^2) over an imaginary
    quadratic layer; datasets over a real layer must pin it explicitly."""
    if ds.options.gz_constant is not None:
        return ds.options.gz_constant
    if ds.tower.K_real:
        raise RouteDataError(
            "the height-point route over a real quadratic layer needs an explicit "
            "gz_constant option")
    if ds.curve.unit_count_K is None:
        raise RouteDataError("the height-point route needs unit_count_K")
    c = ds.curve.manin_constant
    w = ds.curve.unit_count_K
    return Fraction(4 * ds.curve.c_infinity, c * c * w * w)


def gz_q_vector(ds: Dataset, constant: Fraction | None = None
                ) -> dict[str, CharacterResult]:
    """Q-vector predicted by the height-point formula: the curve constant C
    sits at the rank-growing characters and the quadratic character keeps
    only its local correction."""
    C = constant if constant is not None else gz_constant(ds)
    one, c_value = CyclotomicNumber.rational(Fraction(1)), CyclotomicNumber.rational(C)
    places = [ds.places[s] for s in ds.tower.S_r]
    products: dict = {}
    return {c.label: _character_result(ds, c, one if c.kind == "eps" else c_value, places,
                                       products, route="gz")
            for c in irreducible_characters(ds.group)}


# ---------------------------------------------------------------------------
# the congruence checks proper
# ---------------------------------------------------------------------------

def congruence_lines(group: DihedralGroup, sums: Mapping[tuple[int, ...], Fraction],
                     n_required: int) -> list[CongruenceLine]:
    """The divisibility verdict of S(pi) by p^n_required for every pi in P, read
    from sums = character_sums(res_map(Q, group), group)."""
    lines: list[CongruenceLine] = []
    for pi in group.p_elements():
        s = sums[pi.rot]
        v = None if s == 0 else p_valuation(s, group.p)
        lines.append(CongruenceLine(group.format_element(pi), s, v,
                                    v is None or v >= n_required))
    return lines


def unit_and_equivariance(group: DihedralGroup, results: dict[str, CharacterResult]
                          ) -> tuple[bool, bool, list[str]]:
    """Condition (i): every Q a p-unit fixed by its stabilizer, and the
    orbit map sigma_a(Q_psi) = Q_(psi^a).

    The orbit map (groups.first_equivariance_failure) implies the stabilizer
    condition: if a fixes psi, sigma_a(Q_psi) = Q_(psi^a) = Q_psi. Only when
    it fails are the stabilizers searched; the notes name every label its
    stabilizer moves, then the first failing label and a."""
    notes: list[str] = []
    for label, res in results.items():
        if res.q_value.is_zero():
            notes.append(f"Q({label}) = 0")
        elif res.p_valuation != 0:
            notes.append(f"Q({label}) has valuation {res.p_valuation}, not a p-unit")
    unit_ok = not notes
    failure = first_equivariance_failure(
        {label: res.q_value for label, res in results.items()}, group.galois_label,
        group.exponent)
    if failure is None:
        return unit_ok, True, notes
    units = group.galois_unit_reps()
    for label, res in results.items():
        q = res.q_value
        if label.startswith("ind:") and any(
                group.galois_label(label, a) == label and q.galois_apply(a) != q
                for a in units):
            notes.append(f"Q({label}) not fixed by its stabilizer")
    a, label = failure
    notes.append(f"sigma_{a}(Q({label})) != Q({group.galois_label(label, a)})")
    return unit_ok, False, notes


def verify(ds: Dataset, route: str | None = None, n_override: int | None = None,
           den_bound: int | None = None) -> VerificationResult:
    """Full verification of one dataset; never raises on a mathematical
    failure, only on malformed or insufficient data."""
    # the overrides go into one copy of the options, which checks them; the
    # caller's dataset is untouched
    overrides = {"route": route, "p_power_required": n_override, "den_bound": den_bound}
    ds = replace(ds, options=replace(ds.options, **{
        key: value for key, value in overrides.items() if value is not None}))
    # v_p(|P|): the exponent n of a cyclic P, the group-ring bound otherwise
    bound = rational_valuation(ds.group.p_order, ds.group.p)
    n_required = ds.options.p_power_required or bound

    result = VerificationResult(
        dataset_label=ds.label,
        p=ds.group.p,
        n_required=n_required,
        route=ds.options.route,
        hypotheses=check_hypotheses(ds),
    )
    failed_hyps = [h for h in result.hypotheses if h.status == "fails"]
    if failed_hyps:
        result.notes.extend(f"hypothesis ({h.key}) fails: {h.description}"
                            for h in failed_hyps)
        return result
    if not ds.group.is_cyclic() and n_required == bound:
        result.notes.append(
            f"non-cyclic p-part: testing modulus p^{n_required} from the group-ring bound")

    try:
        results = gz_q_vector(ds) if ds.options.route == "gz" else recognize_characters(ds)
    except AmbiguousRecognitionError as e:
        result.notes.append(f"recognition ambiguous: {e}")
        return result
    except RecognitionError as e:
        result.notes.append(f"recognition failed: {e}")
        return result
    result.characters = results

    unit_ok, eq_ok, notes = unit_and_equivariance(ds.group, results)
    result.unit_ok = unit_ok
    result.equivariance_ok = eq_ok
    result.notes.extend(notes)

    q_values = {label: r.q_value for label, r in results.items()}
    evals = res_map(q_values, ds.group)
    try:
        sums = character_sums(evals, ds.group)
    except NotEquivariantError as e:
        result.notes.append(f"congruence sums not rational: the P-vector is {e}")
        return result
    result.congruences = congruence_lines(ds.group, sums, n_required)

    # internal identity: sum over P of S(pi) equals |P| * Q(triv) * Q(eps)
    total = sum((line.value for line in result.congruences), Fraction(0))
    base = q_values["triv"] * q_values["eps"]
    if total != ds.group.p_order * base:
        result.notes.append("internal identity sum_pi S(pi) = |P| Q(triv)Q(eps) violated")
        return result

    # the Z_p[P] reading of the same sums must agree at the group-ring bound v_p(|P|)
    if n_required == bound:
        membership = zp_P_membership(sums, ds.group)
        scaled_ok = result.congruences_ok and eq_ok
        result.membership_agrees = (membership.ok == scaled_ok)
        if not result.membership_agrees:
            result.notes.append(
                "group-ring membership check disagrees with the congruence sums")
            return result

    # one-line shortcut at modulus p: S(1) = Q(triv)Q(eps) + 2 sum Q(Ind chi),
    # rational as a sum over whole orbits of the equivariant P-vector
    if n_required == 1:
        induced = sum((q for label, q in q_values.items() if label.startswith("ind:")),
                      CyclotomicNumber.rational(0))
        s = (base + 2 * induced).rational_part()
        shortcut_ok = s == 0 or p_valuation(s, ds.group.p) >= 1
        line_one = next(l for l in result.congruences if l.element == "1")
        result.shortcut_agrees = (shortcut_ok == line_one.ok)
        if not result.shortcut_agrees:
            result.notes.append("shortcut congruence disagrees with S(1)")
            return result

    if unit_ok and eq_ok and result.congruences_ok:
        result.verdict = "PASS"
    else:
        result.verdict = "FAIL"
    return result


# ---------------------------------------------------------------------------
# labeling invariance
# ---------------------------------------------------------------------------

def relabel_dataset(ds: Dataset, a: int) -> Dataset:
    """The same dataset with the p-part generators replaced by their a-th
    powers (a coprime to the exponent). Physical content is unchanged; every
    label moves along. Verification must give the same verdict.

    The typed values are walked, not named: a GroupElement with rot r moves to
    a^-1 * r (the new generator is s^a); a string that is a character label
    moves to the label of psi^sigma_a; dicts, lists, tuples and records are
    rebuilt from their moved parts; everything else, the shared group object
    and the numbers included, is kept. So a place name or a dataset label that
    equals a character label moves too, with every other occurrence of it.
    """
    group = ds.group
    if gcd(a, group.exponent) != 1:
        raise DatasetError("relabel", f"{a} is not coprime to the exponent {group.exponent}")
    a_inv = pow(a, -1, group.exponent)
    labels = {c.label for c in irreducible_characters(group)}

    def move(x):
        if isinstance(x, GroupElement):
            return group.element(tuple(a_inv * r for r in x.rot), x.flip)
        if isinstance(x, str):
            return group.galois_label(x, a) if x in labels else x
        if isinstance(x, dict):
            return {move(k): move(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return type(x)(move(v) for v in x)
        if isinstance(x, Record):
            return type(x)(*map(move, x._values()))
        return x

    return move(ds)
