"""Dataset files: schema, parsing, validation.

A dataset bundles everything one congruence verification needs: the Galois
group shape, curve constants, tower discriminants, ramified-place data,
leading terms of the twisted L-series with explicit error bounds, height
translates of a generating point, and optional per-field blocks for the
Birch--Swinnerton-Dyer mod-squares checks.

All numbers arrive as strings ("24/19", "3.25", "1e-33") and are parsed into
exact rationals, each distinct text once per document and here alone; nothing
in this module rounds. Raw JSON becomes typed values in one place, the reader
_Json, which carries the dotted path of each value so that every DatasetError
names its field.
"""
from __future__ import annotations

import decimal
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, NoReturn

from .exact import DEFAULT_DEN_BOUND, DecimalWithError, brief
from .groups import DihedralGroup, GroupElement, GroupError, dihedral_group
from .localfactors import LocalDataError, LocalPlace, parse_local_place, quadratic_point_count
from .record import Record

SPEC_VERSION = 1

# largest |P| a dataset may declare: every character of P is enumerated, and
# CyclotomicField.cosines proves its error bound only for conductors m <= 1000
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
            # zero is 0/1 whatever its exponent, and Fraction does not expand it
            x = None if d and abs(d.adjusted()) > MAX_EXPONENT else Fraction(d)
    except (ValueError, ArithmeticError) as e:
        raise DatasetError(path, f"expected a rational, got {value!r}") from e
    if x is None or max(abs(x.numerator), x.denominator) > _LIMIT:
        raise DatasetError(path, f"{value!r} lies beyond 10^(+-{MAX_EXPONENT})")
    return x


class _Json:
    """A JSON value and the dotted path it was read at ("" for the document).
    Each reader returns a typed value or raises a DatasetError at that path.
    The nodes of one document share memo, which maps each number text, and
    each decimal's pair of texts, to the value read at its first occurrence;
    a text that failed is never stored, so it fails again where it is next
    read. parse_dataset makes the memo, and nothing keeps it after the parse."""

    __slots__ = ("value", "path", "memo")

    def __init__(self, value: Any, path: str, memo: dict):
        self.value = value
        self.path = path
        self.memo = memo

    def fail(self, message: str) -> NoReturn:
        raise DatasetError(self.path, message)

    def _object(self) -> dict[str, Any]:
        if not isinstance(self.value, dict):
            self.fail(f"expected an object, got {self.value!r}")
        return self.value

    # the member reads below run once per field, so they check the object
    # and join the member's path inline rather than through helper calls

    def __getitem__(self, key: str) -> _Json:
        """The required member key of this object."""
        obj = self.value if isinstance(self.value, dict) else self._object()
        path = f"{self.path}.{key}" if self.path else key
        if key not in obj:
            raise DatasetError(path, "missing required field")
        return _Json(obj[key], path, self.memo)

    def get(self, key: str, default: Any) -> _Json:
        """The member key, or default when it is absent; a null member is read
        as null, which no reader accepts."""
        obj = self.value if isinstance(self.value, dict) else self._object()
        return _Json(obj.get(key, default), f"{self.path}.{key}" if self.path else key,
                     self.memo)

    def optional(self, key: str, default: Any = None) -> _Json | None:
        """The member key; when it is absent or null, None for a None default
        and default read at the member's path otherwise."""
        obj = self.value if isinstance(self.value, dict) else self._object()
        value = obj.get(key)
        if value is None:
            if default is None:
                return None
            value = default
        return _Json(value, f"{self.path}.{key}" if self.path else key, self.memo)

    def members(self) -> list[tuple[str, _Json]]:
        """The (key, value) pairs of this object, in document order."""
        obj = self.value if isinstance(self.value, dict) else self._object()
        prefix = f"{self.path}." if self.path else ""
        return [(key, _Json(value, prefix + key, self.memo)) for key, value in obj.items()]

    def array(self) -> list[_Json]:
        if not isinstance(self.value, list):
            self.fail(f"expected an array, got {self.value!r}")
        return [_Json(x, f"{self.path}[{i}]", self.memo) for i, x in enumerate(self.value)]

    def elements(self, group: DihedralGroup, read: Callable[[_Json], Any]
                 ) -> dict[GroupElement, Any]:
        """The members of this object keyed by the group elements their keys
        name (looked up in the group's label table, or else parsed), each value
        read by read; a key naming the same element as an earlier one ("s1^6"
        is "s1" at |P| = 5) is rejected."""
        out: dict[GroupElement, Any] = {}
        keys: dict[GroupElement, str] = {}
        for key, node in self.members():
            if (g := group.element_labels.get(key)) is None:
                try:
                    g = group.parse_element(key)
                except GroupError as e:
                    node.fail(str(e))
            if g in keys:
                node.fail(f"names the same group element as {keys[g]!r}")
            keys[g] = key
            out[g] = read(node)
        return out

    def int(self, lo: int | None = None, hi: int | None = None) -> int:
        """A JSON integer or decimal-integer string within [lo, hi] (lo None: no
        lower bound); a bool or a float is rejected."""
        value = self.value
        if isinstance(value, (bool, float)):
            self.fail(f"expected an integer, got {value!r}")
        try:
            n = int(value)
        except (ValueError, TypeError, OverflowError):
            self.fail(f"expected an integer, got {value!r}")
        if (lo is not None and n < lo) or (hi is not None and n > hi):
            bounds = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
            self.fail(f"must be {bounds}, got {n}")
        return n

    def rational(self) -> Fraction:
        text = self.value
        if not isinstance(text, str):
            return _rational(text, self.path)
        if (x := self.memo.get(text)) is None:
            x = self.memo[text] = _rational(text, self.path)
        return x

    def decimal(self) -> DecimalWithError:
        """An object {"value": v, "abs_error": e}, e >= 0 and "0" when absent."""
        obj = self.value if isinstance(self.value, dict) else self._object()
        texts = (obj.get("value"), obj.get("abs_error", "0"))
        keyed = isinstance(texts[0], str) and isinstance(texts[1], str)
        if keyed and (x := self.memo.get(texts)) is not None:
            return x
        value = self["value"].rational()
        error = self.get("abs_error", "0")
        bound = error.rational()
        if bound < 0:
            error.fail("negative error bound")
        x = DecimalWithError(value, bound)
        if keyed:
            self.memo[texts] = x
        return x

    def flag(self) -> bool:
        """JSON true or false; a quoted or numeric stand-in is rejected."""
        if not isinstance(self.value, bool):
            self.fail(f"expected true or false, got {self.value!r}")
        return self.value

    def text(self) -> str:
        """A JSON string; any other value, null included, is rejected, where
        str() would make null a place named "None"."""
        if not isinstance(self.value, str):
            self.fail(f"expected a string, got {self.value!r}")
        return self.value


class CurveInfo(Record):
    def __init__(self, label: str, conductor: int, a_invariants: tuple[int, ...],
                 rank_base: int, rank_quadratic: int, torsion: dict[str, int],
                 tamagawa_base: dict[str, int], tamagawa_quadratic: dict[str, int],
                 c_infinity: int, manin_constant: int = 1, unit_count_K: int | None = None):
        self.label, self.conductor, self.a_invariants = label, conductor, a_invariants
        self.rank_base, self.rank_quadratic, self.torsion = rank_base, rank_quadratic, torsion
        self.tamagawa_base, self.tamagawa_quadratic = tamagawa_base, tamagawa_quadratic
        self.c_infinity, self.manin_constant = c_infinity, manin_constant
        self.unit_count_K = unit_count_K

    def rho_label(self) -> str:
        """The linear character carrying the generic (rank) component."""
        return "triv" if self.rank_base == 0 else "eps"

    def vanishing_orders(self, group: DihedralGroup) -> dict[str, int]:
        """ord_psi by label from the rank pattern: rank_base at triv,
        rank_quadratic - rank_base at eps and 1 at every induced psi."""
        linear = {"triv": self.rank_base, "eps": self.rank_quadratic - self.rank_base}
        return {label: linear.get(label, 1) for label in group.character_table.by_label}


class TowerInfo(Record):
    def __init__(self, d_k_abs: int, d_K_abs: int, K_real: bool,
                 conductor_norms: dict[str, int], S_r: tuple[str, ...],
                 S_bad: tuple[str, ...]):
        self.d_k_abs, self.d_K_abs, self.K_real = d_k_abs, d_K_abs, K_real
        self.conductor_norms, self.S_r, self.S_bad = conductor_norms, S_r, S_bad


class CharacterAnalytic(Record):
    def __init__(self, order: int, leading_term: DecimalWithError, truncated: bool):
        self.order, self.leading_term, self.truncated = order, leading_term, truncated


class AnalyticBlock(Record):
    def __init__(self, omega_plus: DecimalWithError, omega_minus: DecimalWithError | None,
                 characters: dict[str, CharacterAnalytic]):
        self.omega_plus, self.omega_minus = omega_plus, omega_minus
        self.characters = characters


class HeightBlock(Record):
    def __init__(self, normalization: str, translates: dict[GroupElement, DecimalWithError]):
        self.normalization, self.translates = normalization, translates


class FieldBlock(Record):
    def __init__(self, name: str, degree: int, signature: tuple[int, int], d_abs: int,
                 torsion: int, tamagawa: dict[str, tuple[int, ...]],
                 leading_characters: dict[str, int], regulator: DecimalWithError | None = None,
                 regulator_generators: list[dict[GroupElement, Fraction]] | None = None,
                 leading_overrides: dict[str, DecimalWithError] | None = None,
                 omega_quotient: Fraction = Fraction(1)):
        self.name, self.degree, self.signature, self.d_abs = name, degree, signature, d_abs
        self.torsion, self.tamagawa, self.regulator = torsion, tamagawa, regulator
        self.leading_characters = leading_characters
        self.regulator_generators = regulator_generators
        self.leading_overrides = {} if leading_overrides is None else leading_overrides
        self.omega_quotient = omega_quotient

    def tamagawa_product(self) -> int:
        prod = 1
        for cs in self.tamagawa.values():
            for c in cs:
                prod *= c
        return prod


ROUTES = ("auto", "gz")


class Options(Record):
    """The verification options; each construction checks their ranges, so
    verify's overrides are checked as the dataset's own options are."""

    def __init__(self, p_power_required: int | None = None,
                 den_bound: int = DEFAULT_DEN_BOUND, route: str = "auto",
                 gz_constant: Fraction | None = None):
        self.p_power_required, self.den_bound = p_power_required, den_bound
        self.route, self.gz_constant = route, gz_constant
        for key in ("p_power_required", "den_bound"):
            if (n := getattr(self, key)) is not None and n < 1:
                raise DatasetError(f"options.{key}", f"must be at least 1, got {n}")
        if self.route not in ROUTES:
            raise DatasetError("options.route", f"unknown route {self.route!r}")


class Dataset(Record):
    def __init__(self, label: str, group: DihedralGroup, curve: CurveInfo, tower: TowerInfo,
                 places: dict[str, LocalPlace], analytic: AnalyticBlock,
                 heights: HeightBlock | None, bsd: dict[str, FieldBlock], options: Options,
                 provenance: dict[str, str] | None = None):
        self.label, self.group, self.curve, self.tower = label, group, curve, tower
        self.places, self.analytic, self.heights = places, analytic, heights
        self.bsd, self.options = bsd, options
        self.provenance = {} if provenance is None else provenance


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

class HypothesisResult(Record, hashable=True):
    def __init__(self, key: str, description: str, status: str, detail: str = ""):
        # status is "holds", "fails" or "undetermined"
        self.key, self.description, self.status, self.detail = key, description, status, detail


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
    expected = ds.curve.vanishing_orders(ds.group)
    order_ok = declared == expected
    add("h", "declared vanishing orders match the rank pattern", order_ok,
        f"declared {declared}, expected {expected}" if not order_ok else "")
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_dataset(doc: Any) -> Dataset:
    if not isinstance(doc, dict):
        raise DatasetError("", "dataset document must be a JSON object")
    root = _Json(doc, "", {})
    version = root["spec_version"]
    # a JSON integer alone: true and 1.0 compare equal to 1
    if type(version.value) is not int or version.value != SPEC_VERSION:
        version.fail(f"unsupported version {version.value!r}")

    gobj = root["group"]
    p = gobj["p"].int()
    factors = [f.int() for f in gobj["cyclic_factors"].array()]
    # every cyclic factor is a power of p, so |P| >= p: the bound is checked
    # before a primality test on a p of thousands of digits
    if p > MAX_P_ORDER:
        gobj["p"].fail(f"p exceeds the supported |P| <= {MAX_P_ORDER}")
    try:
        group = dihedral_group(p, tuple(factors))
    except GroupError as e:
        gobj.fail(str(e))
    if group.p_order > MAX_P_ORDER:
        gobj["cyclic_factors"].fail(
            f"|P| = {brief(group.p_order)} exceeds the supported {MAX_P_ORDER}")
    table = group.character_table

    def characters(block: _Json) -> Iterator[tuple[str, _Json]]:
        """The members of block, each keyed by the label of a character."""
        for label, node in block.members():
            if label not in table.by_label:
                node.fail("unknown character label")
            yield label, node

    def counts(block: _Json) -> dict[str, int]:
        return {k: v.int(1) for k, v in block.members()}

    cobj = root["curve"]
    curve = CurveInfo(
        label=cobj["label"].text(),
        conductor=cobj["conductor"].int(1),
        a_invariants=tuple(x.int() for x in cobj["a_invariants"].array()),
        rank_base=cobj["rank_base"].int(0),
        rank_quadratic=cobj["rank_quadratic"].int(0),
        torsion=counts(cobj["torsion"]),
        tamagawa_base=counts(cobj.optional("tamagawa_base", {})),
        tamagawa_quadratic=counts(cobj.optional("tamagawa_quadratic", {})),
        c_infinity=cobj["c_infinity"].int(1),
        manin_constant=cobj.optional("manin_constant", 1).int(1),
        unit_count_K=u.int(1) if (u := cobj.optional("unit_count_K")) else None,
    )
    if len(curve.a_invariants) != 5:
        cobj["a_invariants"].fail("expected five Weierstrass coefficients")
    if curve.rank_base not in (0, 1):
        cobj["rank_base"].fail("only ranks 0 and 1 are supported")
    if curve.rank_quadratic != 1:
        cobj["rank_quadratic"].fail(
            "implausible quadratic rank" if curve.rank_quadratic > 2 else
            "the height normalization needs exactly one generic linear character "
            "(quadratic-layer rank 1)")

    tobj = root["tower"]
    d_k_abs, d_K_abs, K_real = tobj["d_k_abs"].int(1), tobj["d_K_abs"].int(1), tobj["K_real"].flag()
    # the quadratic character's discriminant factor is the norm |d_K|/|d_k|^2
    if d_K_abs % d_k_abs ** 2:
        tobj["d_K_abs"].fail(f"|d_K| = {d_K_abs} is not divisible by |d_k|^2 = {d_k_abs ** 2}")
    norms = tobj["conductor_norms"]
    conductor_norms = {k: v.int(1) for k, v in characters(norms)}
    S_r = tuple(x.text() for x in tobj["S_r"].array())
    # S_r_split enters no computation; its entries must still be places of S_r
    for x in tobj.get("S_r_split", []).array():
        if (place := x.text()) not in S_r:
            x.fail(f"{place} is not in S_r")
    S_bad = tuple(x.text() for x in tobj.get("S_bad", []).array())
    tower = TowerInfo(d_k_abs, d_K_abs, K_real, conductor_norms, S_r, S_bad)
    repeated = sorted(s for s, n in Counter(tower.S_r).items() if n > 1)
    if repeated:
        tobj["S_r"].fail(f"places listed more than once: {repeated}")

    pobj = root["places"]
    places: dict[str, LocalPlace] = {}
    for label, entry in pobj.members():
        q = entry["q"].int(2)
        a = entry["a"].int()
        inertia = [x.text() for x in entry["inertia"].array()]
        frobenius = entry["frobenius"].text()
        pins = [(lbl, pin["u"].rational(), pin["t"].rational())
                for lbl, pin in characters(entry.optional("pinned", {}))]
        try:
            places[label] = parse_local_place(group, q, a, inertia, frobenius, pins)
        except LocalDataError as e:
            entry.fail(str(e))
    missing_places = [s for s in tower.S_r if s not in places]
    if missing_places:
        pobj.fail(f"no local data for ramified places {missing_places}")
    stray = [s for s in places if s not in tower.S_r]
    if stray:
        pobj.fail(f"local data for places outside S_r: {stray}")

    aobj = root["analytic"]
    omega_plus = aobj["omega_plus"].decimal()
    minus = aobj.get("omega_minus", None)
    omega_minus = minus.decimal() if minus.value is not None else None
    if omega_minus is None and not K_real:
        minus.fail("imaginary quadratic layer needs the minus period")
    cblock = aobj["characters"]
    analytic_chars: dict[str, CharacterAnalytic] = {}
    for label, entry in characters(cblock):
        if (order := entry["order"].int(0)) > 1:
            entry["order"].fail("only orders 0 and 1 are supported")
        analytic_chars[label] = CharacterAnalytic(order, entry["leading_term"].decimal(),
                                                  entry["truncated"].flag())
    missing_chars = sorted(set(table.by_label) - set(analytic_chars))
    if missing_chars:
        cblock.fail(f"missing characters {missing_chars}")
    analytic = AnalyticBlock(omega_plus=omega_plus, omega_minus=omega_minus,
                             characters=analytic_chars)
    # conjugate characters share the truncation flag and the conductor norm,
    # so the engine computes one discriminant factor per Galois orbit
    for orbit, _ in table.orbits[2:]:
        labels = [c.label for c in orbit]
        for node, what, values in (
                (cblock, "mixed truncation flags", {analytic_chars[c].truncated for c in labels}),
                (norms, "mixed conductor norms", {conductor_norms.get(c, 1) for c in labels})):
            if len(values) > 1:
                node.fail(f"{what} inside the Galois orbit of {labels[0]}")

    heights: HeightBlock | None = None
    hobj = root.get("heights", None)
    if hobj.value is not None:
        tnode = hobj["translates"]
        translates = tnode.elements(group, _Json.decimal)
        # the keys name distinct elements, so none is missing when they are as many
        if len(translates) < group.order:
            missing_tr = [k for k, g in group.element_labels.items() if g not in translates]
            tnode.fail(f"missing elements {missing_tr}")
        # the pairing is symmetric: t(g) agrees with t(g^-1) within the error bounds, once
        # per pair of rotations (a reflection is its own inverse); a key (rot, 0) finds g^-1
        for g, inverse in zip(group.p_elements(), group.inverse_rots()):
            if g.rot < inverse and not translates[g].overlaps(translates[inverse, 0]):
                tnode.fail(f"translates at {group.format_element(g)} and its inverse disagree")
        heights = HeightBlock(normalization=hobj["normalization"].text(), translates=translates)
    elif any(ca.order == 1 and lbl != curve.rho_label() for lbl, ca in analytic_chars.items()):
        hobj.fail("vanishing characters require height translates")

    expected = curve.vanishing_orders(group)
    bsd: dict[str, FieldBlock] = {}
    for name, fobj in root.optional("bsd", {}).members():
        sig = fobj["signature"]
        if not (isinstance(sig.value, list) and len(sig.value) == 2):
            sig.fail("expected [r1, r2]")
        r1, r2 = (r.int(0) for r in sig.array())
        # the multiplicity of psi in the L-series of a field is at most psi(1) <= 2
        leading = {k: v.int(1, 2) for k, v in characters(fobj["leading_characters"])}
        overrides = {}
        for k, v in characters(fobj.optional("leading_overrides", {})):
            if k not in leading:
                v.fail(f"{k} is not among the block's leading_characters")
            overrides[k] = v.decimal()
        reg = rg.decimal() if (rg := fobj.optional("regulator")) else None
        if reg is not None and not reg.is_positive():
            rg.fail("regulator is not certifiably positive")
        # the Mordell-Weil rank is sum mult * ord_psi over the L-series
        # characters, with ord_psi from the rank pattern, so declared orders
        # that break it stay hypothesis (h); a regulator needs one generator per unit
        rank = sum(mult * expected[lbl] for lbl, mult in leading.items())
        gens = None
        if gs := fobj.optional("regulator_generators"):
            if heights is None:
                gs.fail("regulator generators need height translates")
            gens = [combo.elements(group, _Json.rational) for combo in gs.array()]
            if reg is not None:
                fobj.fail("give a regulator or regulator generators, not both")
            if len(gens) != rank:
                gs.fail(f"{len(gens)} generators for Mordell-Weil rank {rank}")
        elif reg is None and rank > 0:
            fobj.fail(f"Mordell-Weil rank {rank} needs a regulator or regulator generators")
        degree = fobj["degree"].int(1)
        if group.order % degree != 0:
            fobj["degree"].fail(f"degree {degree} does not divide {group.order}")
        if r1 + 2 * r2 != degree:
            sig.fail("r1 + 2*r2 must equal the degree")
        if r2 and omega_minus is None:
            minus.fail(f"bsd.{name} has complex places, which need the minus period")
        bsd[name] = fb = FieldBlock(
            name=name,
            degree=degree,
            signature=(r1, r2),
            d_abs=fobj["d_abs"].int(1),
            torsion=fobj["torsion"].int(1),
            tamagawa={k: tuple(x.int(1) for x in v.array())
                      for k, v in fobj["tamagawa"].members()},
            leading_characters=leading,
            regulator=reg,
            regulator_generators=gens,
            leading_overrides=overrides,
            omega_quotient=fobj.get("omega_quotient", "1").rational(),
        )
        if fb.omega_quotient <= 0:
            fobj["omega_quotient"].fail(f"must be positive, got {fb.omega_quotient}")

    # Options checks the ranges; here only the types are read
    oobj = root.optional("options", {})
    options = Options(
        p_power_required=n.int() if (n := oobj.optional("p_power_required")) else None,
        den_bound=oobj.optional("den_bound", DEFAULT_DEN_BOUND).int(),
        route=oobj.get("route", "auto").text(),
        gz_constant=c.rational() if (c := oobj.optional("gz_constant")) else None,
    )

    return Dataset(
        label=root.get("label", "unnamed").text(),
        group=group,
        curve=curve,
        tower=tower,
        places=places,
        analytic=analytic,
        heights=heights,
        bsd=bsd,
        options=options,
        provenance={k: v.text() for k, v in root.optional("provenance", {}).members()},
    )


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
