"""Dataset files: schema, parsing, validation.

A dataset bundles everything one congruence verification needs: the Galois
group shape, curve constants, tower discriminants, ramified-place data,
leading terms of the twisted L-series with explicit error bounds, height
translates of a generating point, and optional per-field blocks for the
Birch--Swinnerton-Dyer mod-squares checks.

All numbers arrive as strings ("24/19", "3.25", "1e-33") and are parsed into
exact rationals, each string once and here alone; nothing in this module rounds.
"""
from __future__ import annotations

import decimal
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .exact import DecimalWithError, rational_valuation
from .groups import (Character, DihedralGroup, GroupElement, GroupError, character_orbits,
                     irreducible_characters)
from .heights import HeightDataError, validate_translates
from .localfactors import (LocalDataError, LocalPlace, check_pinned_corrections,
                           parse_local_place, quadratic_point_count)

SPEC_VERSION = 1

# largest |P| a dataset may declare: every character of P is enumerated, and
# the congruence sums cost O(|P|^2) shifts
MAX_P_ORDER = 1000

# a rational in a dataset has |numerator| and denominator at most 10^MAX_EXPONENT:
# Fraction expands "1e<k>" into k digits, and verify prints values in messages
MAX_EXPONENT = 1000
_LIMIT = 10 ** MAX_EXPONENT


class DatasetError(ValueError):
    """Malformed dataset; message carries a dotted path to the offending field,
    or is the message alone when the path is empty (the whole document)."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _need(obj: Any, key: str, path: str) -> Any:
    """obj[key] of the JSON object obj at path; anything else is a DatasetError."""
    if key not in _object(obj, path):
        raise DatasetError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _object(value: Any, path: str) -> Mapping[str, Any]:
    """value when it is a JSON object; anything else is a DatasetError at path."""
    if not isinstance(value, Mapping):
        raise DatasetError(path, f"expected an object, got {value!r}")
    return value


def _required_object(obj: Any, key: str, path: str) -> Mapping[str, Any]:
    """obj[key] when it is a JSON object; anything else is a DatasetError."""
    return _object(_need(obj, key, path), f"{path}.{key}" if path else key)


def _optional_object(obj: Mapping[str, Any], key: str, path: str) -> Mapping[str, Any]:
    """obj[key] when it is a JSON object, {} when absent or null."""
    value = obj.get(key)
    return {} if value is None else _object(value, f"{path}.{key}" if path else key)


def _list(value: Any, path: str) -> list[Any]:
    """value when it is a JSON array; anything else is a DatasetError at path."""
    if not isinstance(value, list):
        raise DatasetError(path, f"expected an array, got {value!r}")
    return value


def _flag(obj: Mapping[str, Any], key: str, path: str) -> bool:
    """A required JSON true/false; a quoted or numeric stand-in is rejected."""
    value = _need(obj, key, path)
    if not isinstance(value, bool):
        raise DatasetError(f"{path}.{key}", f"expected true or false, got {value!r}")
    return value


def _integer(value: Any, path: str, lo: int | None, hi: int | None = None) -> int:
    """A JSON integer or decimal-integer string within [lo, hi] (lo None: no
    lower bound); anything else, a bool or a float included, is a DatasetError
    at path."""
    if isinstance(value, (bool, float)):
        raise DatasetError(path, f"expected an integer, got {value!r}")
    try:
        n = int(value)
    except (ValueError, TypeError, OverflowError) as e:
        raise DatasetError(path, f"expected an integer, got {value!r}") from e
    if (lo is not None and n < lo) or (hi is not None and n > hi):
        bounds = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise DatasetError(path, f"must be {bounds}, got {n}")
    return n


def _required_integer(obj: Any, key: str, path: str, lo: int | None,
                      hi: int | None = None) -> int:
    """The integer obj[key] of the block at path, within [lo, hi]."""
    return _integer(_need(obj, key, path), f"{path}.{key}", lo, hi)


def _optional_integer(obj: Mapping[str, Any], key: str, path: str, default: int | None,
                      lo: int) -> int | None:
    """The integer obj[key] of the block at path; absent or null gives default."""
    value = obj.get(key)
    return default if value is None else _integer(value, f"{path}.{key}", lo)


def _rational(value: Any, path: str) -> Fraction:
    """An exact rational from a number or a "p/q" or decimal string, with
    |numerator| and denominator at most 10^MAX_EXPONENT; anything else is a
    DatasetError at path."""
    s = str(value).strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            x = Fraction(int(num), int(den))
        else:
            # the exponent is bounded before Fraction expands it into digits
            d = decimal.Decimal(s)
            x = None if abs(d.adjusted()) > MAX_EXPONENT else Fraction(d)
    except (ValueError, ArithmeticError) as e:
        raise DatasetError(path, f"expected a rational, got {value!r}") from e
    if x is None or max(abs(x.numerator), x.denominator) > _LIMIT:
        raise DatasetError(path, f"{value!r} lies beyond 10^(+-{MAX_EXPONENT})")
    return x


def _decimal(obj: Any, path: str) -> DecimalWithError:
    value = _rational(_need(obj, "value", path), f"{path}.value")
    error = _rational(obj.get("abs_error", "0"), f"{path}.abs_error")
    if error < 0:
        raise DatasetError(f"{path}.abs_error", "negative error bound")
    return DecimalWithError(value, error)


@dataclass
class CurveInfo:
    label: str
    conductor: int
    a_invariants: tuple[int, ...]
    rank_base: int
    rank_quadratic: int
    torsion: dict[str, int]
    tamagawa_base: dict[str, int]
    tamagawa_quadratic: dict[str, int]
    c_infinity: int
    manin_constant: int = 1
    unit_count_K: int | None = None


@dataclass
class TowerInfo:
    d_k_abs: int
    d_K_abs: int
    K_real: bool
    conductor_norms: dict[str, int]
    S_r: tuple[str, ...]
    S_r_split: tuple[str, ...]
    S_bad: tuple[str, ...]


@dataclass
class CharacterAnalytic:
    order: int
    leading_term: DecimalWithError
    truncated: bool


@dataclass
class AnalyticBlock:
    omega_plus: DecimalWithError
    omega_minus: DecimalWithError | None
    characters: dict[str, CharacterAnalytic]


@dataclass
class HeightBlock:
    normalization: str
    translates: dict[GroupElement, DecimalWithError]


@dataclass
class FieldBlock:
    name: str
    degree: int
    signature: tuple[int, int]
    d_abs: int
    torsion: int
    tamagawa: dict[str, tuple[int, ...]]
    leading_characters: dict[str, int]
    regulator: DecimalWithError | None = None
    regulator_generators: list[dict[GroupElement, Fraction]] | None = None
    leading_overrides: dict[str, DecimalWithError] = field(default_factory=dict)
    omega_quotient: Fraction = Fraction(1)

    def tamagawa_product(self) -> int:
        prod = 1
        for cs in self.tamagawa.values():
            for c in cs:
                prod *= c
        return prod


ROUTES = ("auto", "direct", "qhat", "gz")


@dataclass
class Options:
    p_power_required: int | None = None
    den_bound: int = 10 ** 6
    route: str = "auto"
    gz_constant: Fraction | None = None


@dataclass
class Dataset:
    label: str
    group: DihedralGroup
    curve: CurveInfo
    tower: TowerInfo
    places: dict[str, LocalPlace]
    analytic: AnalyticBlock
    heights: HeightBlock | None
    bsd: dict[str, FieldBlock]
    options: Options
    provenance: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def characters(self) -> list[Character]:
        return irreducible_characters(self.group)

    def rho_label(self) -> str:
        """The linear character carrying the generic (rank) component."""
        return "triv" if self.curve.rank_base == 0 else "eps"

    def expected_vanishing_orders(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.characters():
            if c.kind == "triv":
                out[c.label] = self.curve.rank_base
            elif c.kind == "eps":
                out[c.label] = self.curve.rank_quadratic - self.curve.rank_base
            else:
                out[c.label] = 1
        return out

    def required_p_power(self) -> int:
        if self.options.p_power_required is not None:
            return self.options.p_power_required
        # v_p(|P|); equals n for cyclic P, the group-ring bound otherwise
        return rational_valuation(self.group.p_order, self.group.p)


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisResult:
    key: str
    description: str
    status: str       # "holds" | "fails" | "undetermined"
    detail: str = ""


def check_hypotheses(ds: Dataset) -> list[HypothesisResult]:
    p = ds.group.p
    out: list[HypothesisResult] = []

    def add(key, desc, ok: bool | None, detail=""):
        status = "undetermined" if ok is None else ("holds" if ok else "fails")
        out.append(HypothesisResult(key, desc, status, detail))

    add("a", "p is odd and the curve has good reduction at p",
        p % 2 == 1 and ds.curve.conductor % p != 0,
        f"p = {p}, conductor = {ds.curve.conductor}")
    bad_tor = [f"{k}:{v}" for k, v in ds.curve.torsion.items() if v % p == 0]
    add("b", "p does not divide any torsion order in the tower",
        not bad_tor, ", ".join(bad_tor))
    bad_tam = [f"{k}:{v}" for k, v in
               list(ds.curve.tamagawa_base.items()) + list(ds.curve.tamagawa_quadratic.items())
               if v % p == 0]
    add("c", "p does not divide the Tamagawa numbers over the base or quadratic layer",
        not bad_tam, ", ".join(bad_tam))
    overlap = sorted(set(ds.tower.S_r) & set(ds.tower.S_bad))
    add("d", "ramified places of the tower are places of good reduction",
        not overlap, ", ".join(overlap))
    ram_at_p = (ds.tower.d_K_abs % p == 0
                or any(norm % p == 0 for norm in ds.tower.conductor_norms.values())
                or any(pl.q % p == 0 for pl in ds.places.values()))
    add("e", "p is unramified in the tower", not ram_at_p)
    bad_counts = []
    for label, pl in ds.places.items():
        n_v = pl.q + 1 - pl.a
        n_w = quadratic_point_count(n_v, pl.q)
        if n_v % p == 0 or n_w % p == 0:
            bad_counts.append(f"{label}: N_v = {n_v}")
    add("f", "reduction point counts at ramified places are p-units",
        not bad_counts, ", ".join(bad_counts))
    add("g", "the Tate-Shafarevich group over the tower is finite", None, "assumed")
    declared = {lbl: ca.order for lbl, ca in ds.analytic.characters.items()}
    expected = ds.expected_vanishing_orders()
    order_ok = declared == expected
    add("h", "declared vanishing orders match the rank pattern", order_ok,
        f"declared {declared}, expected {expected}" if not order_ok else "")
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_dataset(doc: Mapping[str, Any]) -> Dataset:
    if not isinstance(doc, Mapping):
        raise DatasetError("", "dataset document must be a JSON object")
    version = _need(doc, "spec_version", "")
    if version != SPEC_VERSION:
        raise DatasetError("spec_version", f"unsupported version {version!r}")

    gobj = _need(doc, "group", "")
    p = _required_integer(gobj, "p", "group", None)
    factors = [_integer(f, f"group.cyclic_factors[{i}]", None) for i, f in
               enumerate(_list(_need(gobj, "cyclic_factors", "group"), "group.cyclic_factors"))]
    # every cyclic factor is a power of p, so |P| >= p: the bound is checked
    # before a primality test on a p of thousands of digits
    if p > MAX_P_ORDER:
        raise DatasetError("group.p", f"p exceeds the supported |P| <= {MAX_P_ORDER}")
    try:
        group = DihedralGroup(p, factors)
    except GroupError as e:
        raise DatasetError("group", str(e)) from e
    if group.p_order > MAX_P_ORDER:
        raise DatasetError("group.cyclic_factors",
                           f"|P| = {group.p_order} exceeds the supported {MAX_P_ORDER}")
    char_labels = {c.label for c in irreducible_characters(group)}

    def character(label: str, path: str) -> str:
        if label not in char_labels:
            raise DatasetError(path, "unknown character label")
        return label

    def distinct(g: GroupElement, key: str, keys: dict[GroupElement, str], path: str
                 ) -> GroupElement:
        """g, which the key at path names, unless an earlier key of its object
        did ("s1^6" is "s1" at |P| = 5)."""
        if g in keys:
            raise DatasetError(path, f"names the same group element as {keys[g]!r}")
        keys[g] = key
        return g

    cobj = _required_object(doc, "curve", "")

    def counts(key: str, block: Mapping[str, Any]) -> dict[str, int]:
        return {str(k): _integer(v, f"curve.{key}.{k}", 1) for k, v in block.items()}

    curve = CurveInfo(
        label=str(_need(cobj, "label", "curve")),
        conductor=_required_integer(cobj, "conductor", "curve", 1),
        a_invariants=tuple(_integer(x, f"curve.a_invariants[{i}]", None) for i, x in
                           enumerate(_list(_need(cobj, "a_invariants", "curve"),
                                           "curve.a_invariants"))),
        rank_base=_required_integer(cobj, "rank_base", "curve", 0),
        rank_quadratic=_required_integer(cobj, "rank_quadratic", "curve", 0),
        torsion=counts("torsion", _required_object(cobj, "torsion", "curve")),
        tamagawa_base=counts("tamagawa_base", _optional_object(cobj, "tamagawa_base", "curve")),
        tamagawa_quadratic=counts("tamagawa_quadratic",
                                  _optional_object(cobj, "tamagawa_quadratic", "curve")),
        c_infinity=_required_integer(cobj, "c_infinity", "curve", 1),
        manin_constant=_optional_integer(cobj, "manin_constant", "curve", 1, 1),
        unit_count_K=_optional_integer(cobj, "unit_count_K", "curve", None, 1),
    )
    if len(curve.a_invariants) != 5:
        raise DatasetError("curve.a_invariants", "expected five Weierstrass coefficients")
    if curve.rank_base not in (0, 1):
        raise DatasetError("curve.rank_base", "only ranks 0 and 1 are supported")

    tobj = _required_object(doc, "tower", "")
    tower = TowerInfo(
        d_k_abs=_required_integer(tobj, "d_k_abs", "tower", 1),
        d_K_abs=_required_integer(tobj, "d_K_abs", "tower", 1),
        K_real=_flag(tobj, "K_real", "tower"),
        conductor_norms={character(k, f"tower.conductor_norms.{k}"):
                         _integer(v, f"tower.conductor_norms.{k}", 1)
                         for k, v in _required_object(tobj, "conductor_norms", "tower").items()},
        S_r=tuple(str(x) for x in _list(_need(tobj, "S_r", "tower"), "tower.S_r")),
        S_r_split=tuple(str(x) for x in _list(tobj.get("S_r_split", []), "tower.S_r_split")),
        S_bad=tuple(str(x) for x in _list(tobj.get("S_bad", []), "tower.S_bad")),
    )
    repeated = sorted(s for s, n in Counter(tower.S_r).items() if n > 1)
    if repeated:
        raise DatasetError("tower.S_r", f"places listed more than once: {repeated}")

    pobj = _required_object(doc, "places", "")
    places: dict[str, LocalPlace] = {}
    for label, entry in pobj.items():
        path = f"places.{label}"
        q = _required_integer(entry, "q", path, 2)
        a = _required_integer(entry, "a", path, None)
        inertia = [str(x) for x in _list(_need(entry, "inertia", path), f"{path}.inertia")]
        frobenius = str(_need(entry, "frobenius", path))
        pins = [(character(lbl, f"{path}.pinned.{lbl}"),
                 _rational(_need(pin, "u", f"{path}.pinned.{lbl}"), f"{path}.pinned.{lbl}.u"),
                 _rational(_need(pin, "t", f"{path}.pinned.{lbl}"), f"{path}.pinned.{lbl}.t"))
                for lbl, pin in _optional_object(entry, "pinned", path).items()]
        try:
            places[label] = parse_local_place(group, q, a, inertia, frobenius, pins)
            check_pinned_corrections(group, places[label])
        except LocalDataError as e:
            raise DatasetError(path, str(e)) from e
    missing_places = [s for s in tower.S_r if s not in places]
    if missing_places:
        raise DatasetError("places", f"no local data for ramified places {missing_places}")
    stray = [s for s in places if s not in tower.S_r]
    if stray:
        raise DatasetError("places", f"local data for places outside S_r: {stray}")

    aobj = _required_object(doc, "analytic", "")
    omega_plus = _decimal(_need(aobj, "omega_plus", "analytic"), "analytic.omega_plus")
    omega_minus = (_decimal(aobj["omega_minus"], "analytic.omega_minus")
                   if aobj.get("omega_minus") is not None else None)
    cblock = _required_object(aobj, "characters", "analytic")
    analytic_chars: dict[str, CharacterAnalytic] = {}
    for label, entry in cblock.items():
        path = f"analytic.characters.{label}"
        character(label, path)
        entry = _object(entry, path)
        analytic_chars[label] = CharacterAnalytic(
            order=_required_integer(entry, "order", path, 0),
            leading_term=_decimal(_need(entry, "leading_term", path), f"{path}.leading_term"),
            truncated=_flag(entry, "truncated", path),
        )
    missing_chars = sorted(char_labels - set(analytic_chars))
    if missing_chars:
        raise DatasetError("analytic.characters", f"missing characters {missing_chars}")
    analytic = AnalyticBlock(omega_plus=omega_plus, omega_minus=omega_minus,
                             characters=analytic_chars)

    heights: HeightBlock | None = None
    if doc.get("heights") is not None:
        hobj = _object(doc["heights"], "heights")
        translates: dict[GroupElement, DecimalWithError] = {}
        keys: dict[GroupElement, str] = {}
        for gs, entry in _required_object(hobj, "translates", "heights").items():
            path = f"heights.translates.{gs}"
            try:
                g = group.parse_element(gs)
            except GroupError as e:
                raise DatasetError(path, str(e)) from e
            translates[distinct(g, gs, keys, path)] = _decimal(entry, path)
        missing_tr = [group.format_element(g) for g in group.elements() if g not in translates]
        if missing_tr:
            raise DatasetError("heights.translates", f"missing elements {missing_tr}")
        heights = HeightBlock(normalization=str(_need(hobj, "normalization", "heights")),
                              translates=translates)

    bsd: dict[str, FieldBlock] = {}
    for name, fobj in _optional_object(doc, "bsd", "").items():
        path = f"bsd.{name}"
        fobj = _object(fobj, path)
        sig = _need(fobj, "signature", path)
        if not (isinstance(sig, (list, tuple)) and len(sig) == 2):
            raise DatasetError(f"{path}.signature", "expected [r1, r2]")
        r1, r2 = (_integer(r, f"{path}.signature[{i}]", 0) for i, r in enumerate(sig))
        # the multiplicity of psi in the L-series of a field is at most psi(1) <= 2
        leading = {character(k, f"{path}.leading_characters.{k}"):
                   _integer(v, f"{path}.leading_characters.{k}", 1, 2)
                   for k, v in _required_object(fobj, "leading_characters", path).items()}
        overrides = {character(k, f"{path}.leading_overrides.{k}"):
                     _decimal(v, f"{path}.leading_overrides.{k}")
                     for k, v in _optional_object(fobj, "leading_overrides", path).items()}
        reg = (_decimal(fobj["regulator"], f"{path}.regulator")
               if fobj.get("regulator") is not None else None)
        gens = None
        if fobj.get("regulator_generators") is not None:
            gens = []
            for i, combo in enumerate(_list(fobj["regulator_generators"],
                                            f"{path}.regulator_generators")):
                gpath = f"{path}.regulator_generators[{i}]"
                gen: dict[GroupElement, Fraction] = {}
                keys = {}
                for k, v in _object(combo, gpath).items():
                    try:
                        g = group.parse_element(k)
                    except GroupError as e:
                        raise DatasetError(gpath, str(e)) from e
                    gen[distinct(g, k, keys, f"{gpath}.{k}")] = _rational(v, f"{gpath}.{k}")
                gens.append(gen)
        degree = _required_integer(fobj, "degree", path, 1)
        if group.order % degree != 0:
            raise DatasetError(f"{path}.degree", f"degree {degree} does not divide {group.order}")
        if r1 + 2 * r2 != degree:
            raise DatasetError(f"{path}.signature", "r1 + 2*r2 must equal the degree")
        bsd[name] = fb = FieldBlock(
            name=name,
            degree=degree,
            signature=(r1, r2),
            d_abs=_required_integer(fobj, "d_abs", path, 1),
            torsion=_required_integer(fobj, "torsion", path, 1),
            tamagawa={str(k): tuple(_integer(x, f"{path}.tamagawa.{k}[{i}]", 1)
                                    for i, x in enumerate(_list(v, f"{path}.tamagawa.{k}")))
                      for k, v in _required_object(fobj, "tamagawa", path).items()},
            leading_characters=leading,
            regulator=reg,
            regulator_generators=gens,
            leading_overrides=overrides,
            omega_quotient=_rational(fobj.get("omega_quotient", "1"), f"{path}.omega_quotient"),
        )
        if fb.regulator is not None and not fb.regulator.is_positive():
            raise DatasetError(f"{path}.regulator", "regulator is not certifiably positive")
        if fb.omega_quotient <= 0:
            raise DatasetError(f"{path}.omega_quotient",
                               f"must be positive, got {fb.omega_quotient}")

    oobj = _optional_object(doc, "options", "")
    options = Options(
        p_power_required=_optional_integer(oobj, "p_power_required", "options", None, 1),
        den_bound=_optional_integer(oobj, "den_bound", "options", 10 ** 6, 1),
        route=str(oobj.get("route", "auto")),
        gz_constant=(_rational(oobj["gz_constant"], "options.gz_constant")
                     if oobj.get("gz_constant") is not None else None),
    )
    if options.route not in ROUTES:
        raise DatasetError("options.route", f"unknown route {options.route!r}")

    ds = Dataset(
        label=str(doc.get("label", "unnamed")),
        group=group,
        curve=curve,
        tower=tower,
        places=places,
        analytic=analytic,
        heights=heights,
        bsd=bsd,
        options=options,
        provenance={str(k): str(v)
                    for k, v in _optional_object(doc, "provenance", "").items()},
    )
    _cross_validate(ds)
    return ds


def _cross_validate(ds: Dataset) -> None:
    if ds.curve.rank_quadratic not in (0, 1, 2):
        raise DatasetError("curve.rank_quadratic", "implausible quadratic rank")
    if ds.curve.rank_quadratic != 1:
        raise DatasetError(
            "curve.rank_quadratic",
            "the height normalization needs exactly one generic linear character "
            "(quadratic-layer rank 1)")
    if not ds.tower.K_real and ds.analytic.omega_minus is None:
        raise DatasetError("analytic.omega_minus",
                           "imaginary quadratic layer needs the minus period")
    # the quadratic character's discriminant factor is the norm |d_K|/|d_k|^2
    if ds.tower.d_K_abs % ds.tower.d_k_abs ** 2:
        raise DatasetError("tower.d_K_abs", f"|d_K| = {ds.tower.d_K_abs} is not divisible "
                                            f"by |d_k|^2 = {ds.tower.d_k_abs ** 2}")
    for s in ds.tower.S_r_split:
        if s not in ds.tower.S_r:
            raise DatasetError("tower.S_r_split", f"{s} is not in S_r")
    # orders must be 0 or 1 and need heights when any is 1
    needs_heights = False
    for lbl, ca in ds.analytic.characters.items():
        if ca.order not in (0, 1):
            raise DatasetError(f"analytic.characters.{lbl}.order",
                               "only orders 0 and 1 are supported")
        if ca.order == 1 and lbl != ds.rho_label():
            needs_heights = True
    if needs_heights and ds.heights is None:
        raise DatasetError("heights", "vanishing characters require height translates")
    # a regulator needs one generator per unit of Mordell-Weil rank: sum
    # mult * ord_psi over the block's L-series characters, with ord_psi from
    # the rank pattern, so declared orders that break it stay hypothesis (h)
    expected = ds.expected_vanishing_orders()
    for name, fb in ds.bsd.items():
        if fb.regulator_generators is None:
            continue
        rank = sum(mult * expected[lbl] for lbl, mult in fb.leading_characters.items())
        if len(fb.regulator_generators) != rank:
            raise DatasetError(f"bsd.{name}.regulator_generators",
                               f"{len(fb.regulator_generators)} generators for "
                               f"Mordell-Weil rank {rank}")
    if ds.heights is not None:
        try:
            validate_translates(ds.group, ds.heights.translates)
        except HeightDataError as e:
            raise DatasetError("heights.translates", str(e)) from e
    # conjugate characters share the truncation flag and the conductor norm,
    # so the engine computes one discriminant factor per Galois orbit
    for orbit in character_orbits(ds.group)[2:]:
        for path, what, values in (
                ("analytic.characters", "mixed truncation flags",
                 {ds.analytic.characters[c.label].truncated for c in orbit}),
                ("tower.conductor_norms", "mixed conductor norms",
                 {ds.tower.conductor_norms.get(c.label, 1) for c in orbit})):
            if len(values) > 1:
                raise DatasetError(path, f"{what} inside the Galois orbit of {orbit[0].label}")


def _read_json(source, label: str) -> Any:
    """The JSON document in source, a Path or a package resource; invalid UTF-8,
    over-long integers and deep nesting too are DatasetErrors at label."""
    try:
        return json.loads(source.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        raise DatasetError(label, f"invalid JSON: {e}") from e


def load_dataset(path: str) -> Dataset:
    return parse_dataset(_read_json(Path(path), ""))


def bundled_dataset_names() -> list[str]:
    from importlib import resources
    root = resources.files(__package__) / "datasets"
    return sorted(entry.name[:-5] for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def load_bundled_dataset(name: str) -> Dataset:
    from importlib import resources
    entry = resources.files(__package__) / "datasets" / f"{name}.json"
    if not entry.is_file():
        raise DatasetError("datasets", f"no bundled dataset named {name!r}")
    return parse_dataset(_read_json(entry, name))
