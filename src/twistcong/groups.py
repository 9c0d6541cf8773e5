"""Generalized dihedral groups G = P x| <tau>, their irreducible characters,
and the group-ring computations the congruence checks are built on.

P is a finite abelian p-group (product of cyclic factors of p-power order)
and tau is an involution acting on P by inversion. Irreducible complex
characters are the trivial character, the quadratic character cutting out the
fixed field of P, and the two-dimensional characters induced from the
nontrivial characters of P, one per conjugate pair {chi, chi-bar}.

Each group builds one character table (DihedralGroup.character_table); every
lookup by label, Galois image or restriction to P reads it, and no label is
parsed back into a chi vector; dihedral_group builds each shape once.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import islice, product as iter_product, repeat
from math import lcm, prod
from types import MappingProxyType
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .exact import (CyclotomicNumber, InvalidAutomorphismError, UnsupportedConductorError,
                    cyclotomic_field, is_probable_prime, p_valuation, rational_valuation)
from .record import Record


class GroupError(ValueError):
    """Malformed group data or element strings."""


class NotEquivariantError(GroupError):
    """A P-character vector with sigma_a(E_chi) != E_(a chi), the first such
    (a, chi) in first_equivariance_failure's order: some of its sums S(pi)
    are irrational, so character_sums computes none."""

    def __init__(self, a: int, chi: tuple[int, ...]):
        super().__init__(f"not Galois-equivariant at chi={chi}, a={a}")
        self.a, self.chi = a, chi


class GroupElement(NamedTuple):
    """An element rot * tau^flip, rot a vector of exponents in P reduced modulo
    the cyclic factors and flip 0 or 1, as the group's methods build it; so
    equality and hashing are the tuple's. Products and inverses are the group's."""

    rot: tuple[int, ...]
    flip: int


class DihedralGroup:
    """P x| <tau> with P = prod Z/(cyclic_factors[i]), tau inverting P."""

    def __init__(self, p: int, cyclic_factors: Sequence[int]):
        if p < 3 or p % 2 == 0:
            raise GroupError(f"p must be an odd prime, got {p}")
        if not is_probable_prime(p):
            raise GroupError(f"p = {p} is not prime")
        factors = list(cyclic_factors)
        if not factors:
            raise GroupError("P must be nontrivial")
        for f in factors:
            if f < p or p ** rational_valuation(f, p) != f:
                raise GroupError(f"cyclic factor {f} is not a positive power of {p}")
        self.p = p
        self.cyclic_factors = tuple(factors)
        self.exponent = max(factors)
        self.n = rational_valuation(self.exponent, p)
        self.p_order = prod(factors)
        self.order = 2 * self.p_order

    # elements ----------------------------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement((0,) * len(self.cyclic_factors), 0)

    def element(self, rot: Sequence[int], flip: int = 0) -> GroupElement:
        """rot * tau^flip, rot any integer vector of the right length."""
        if len(rot) != len(self.cyclic_factors):
            raise GroupError("wrong number of rotation exponents")
        return GroupElement(tuple(r % f for r, f in zip(rot, self.cyclic_factors)), flip % 2)

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        # tau * rot = rot^-1 * tau
        sign = -1 if g.flip else 1
        return self.element([a + sign * b for a, b in zip(g.rot, h.rot)], g.flip ^ h.flip)

    def inverse(self, g: GroupElement) -> GroupElement:
        # reflections are involutions
        return g if g.flip else self.element([-r for r in g.rot])

    def inverse_rots(self) -> Iterator[tuple[int, ...]]:
        """The rot of the inverse of each rotation, in p_elements() order; as
        chi vectors, the chi-bar of each chi of chi_vectors()."""
        return iter_product(*([-r % f for r in range(f)] for f in self.cyclic_factors))

    def p_elements(self) -> Iterator[GroupElement]:
        return islice(self.element_labels.values(), self.p_order)

    def elements(self) -> Iterator[GroupElement]:
        return iter(self.element_labels.values())

    def is_cyclic(self) -> bool:
        return len(self.cyclic_factors) == 1

    # serialization ------------------------------------------------------------

    @cached_property
    def element_labels(self) -> Mapping[str, GroupElement]:
        """Every element by its format_element label, the rotations and then the
        reflections, each in lexicographic rot order, as elements() lists them:
        the one table a serialized element is looked up in."""
        labels = [""]
        for i, f in enumerate(self.cyclic_factors):
            names = ["", f"s{i + 1}"] + [f"s{i + 1}^{r}" for r in range(2, f)]
            labels = [f"{a}*{b}" if a and b else a or b for a in labels for b in names]
        labels = [a or "1" for a in labels] + [f"{a}*t" if a else "t" for a in labels]
        rots = list(iter_product(*map(range, self.cyclic_factors)))
        return MappingProxyType(dict(zip(labels, (GroupElement(rot, flip) for flip in (0, 1)
                                                  for rot in rots))))

    def format_element(self, g: GroupElement) -> str:
        parts = [f"s{i + 1}" if r == 1 else f"s{i + 1}^{r}" for i, r in enumerate(g.rot) if r]
        return "*".join(parts + ["t"] * g.flip) or "1"

    def parse_element(self, s: str) -> GroupElement:
        """The element s names, in format_element's spelling or another ("e", "s1^6*t")."""
        s = s.strip()
        rot, flip = [0] * len(self.cyclic_factors), 0
        for part in () if s in ("1", "e") else s.split("*"):
            part = part.strip()
            if part == "t":
                flip ^= 1
                continue
            idx_s, hat, exp_s = part[1:].partition("^")
            try:
                if part[:1] != "s":
                    raise ValueError(part)
                idx, exp = int(idx_s), int(exp_s) if hat else 1
            except ValueError as e:
                raise GroupError(f"bad element factor {part!r} in {s!r}") from e
            if not 1 <= idx <= len(self.cyclic_factors):
                raise GroupError(f"generator index {idx} out of range in {s!r}")
            rot[idx - 1] += exp
        return self.element(rot, flip)

    # characters of P ----------------------------------------------------------

    def chi_vectors(self) -> Iterator[tuple[int, ...]]:
        """All characters of P, encoded as exponent vectors a with
        chi_a(prod s_i^r_i) = zeta_e^(sum_i a_i r_i e/f_i), e = exponent."""
        yield from iter_product(*(range(f) for f in self.cyclic_factors))

    def chi_exponent(self, avec: Sequence[int], g: GroupElement) -> int:
        """The k in [0, e) with chi_a(g) = zeta_e^k, for g in P."""
        if g.flip:
            raise GroupError("chi is a character of P only")
        e = self.exponent
        return sum(a * r * (e // f) for a, r, f in zip(avec, g.rot, self.cyclic_factors)) % e

    def chi_exponents(self, avec: Sequence[int]) -> list[int]:
        """The chi_exponent of chi_a at every rotation, in p_elements() order."""
        e, ks = self.exponent, [0]
        for a, f in zip(avec, self.cyclic_factors):
            step = a * (e // f)
            ks = [(k + step * r) % e for k in ks for r in range(f)]
        return ks

    def chi_value(self, avec: Sequence[int], g: GroupElement) -> CyclotomicNumber:
        return CyclotomicNumber.zeta_power(self.exponent, self.chi_exponent(avec, g))

    def galois_on_chi(self, avec: Sequence[int], a: int) -> tuple[int, ...]:
        if a % self.p == 0:
            raise InvalidAutomorphismError(f"{a} not coprime to exponent {self.exponent}")
        return tuple((a * c) % f for c, f in zip(avec, self.cyclic_factors))

    def galois_label(self, label: str, a: int) -> str:
        """The label of psi^sigma_a for psi labelled label: triv and eps stay,
        the character induced from chi moves to the one induced from a*chi."""
        chi = Character.from_label(self, label).chi
        return self.character_table.induced[self.galois_on_chi(chi, a)].label if chi else label

    def galois_unit_reps(self) -> list[int]:
        """Representatives of (Z/exponent)^*."""
        return list(cyclotomic_field(self.exponent).units)

    @cached_property
    def character_table(self) -> CharacterTable:
        """The irreducible characters and their Galois orbits, from one pass over chi_vectors()."""
        factors = self.cyclic_factors
        by_label = {kind: Character(self, kind, kind) for kind in ("triv", "eps")}
        induced: dict[tuple[int, ...], Character] = {}
        # after the trivial chi, in lexicographic order: chi-bar is met first or not yet
        for avec, bar in islice(zip(self.chi_vectors(), self.inverse_rots()), 1, None):
            char = induced.get(bar)
            if char is None:
                char = Character(self, "ind", "ind:" + ",".join(map(str, avec)), avec)
                by_label[char.label] = char
            induced[avec] = char
        units, orbits, seen = self.galois_unit_reps(), [], set()
        for char in by_label.values():
            if char in seen:
                continue
            if char.chi is None:
                reached = {char: units[0]}
            else:
                # a * chi for every unit a, one column of images per factor
                images = zip(*([a * c % f for a in units] for c, f in zip(char.chi, factors)))
                reached = {}
                for a, image in zip(units, images):
                    reached.setdefault(induced[image], a)
            seen.update(reached)
            orbits.append((tuple(reached), tuple(reached.values())))
        return CharacterTable(MappingProxyType(by_label), MappingProxyType(induced), tuple(orbits))

    @cached_property
    def orbit_exponents(self) -> tuple[tuple[int, ...], ...]:
        """chi_exponents of the first member of each character_table.orbits[2:]:
        one row per orbit, not per character, for (a chi)(pi) = chi(pi)^a."""
        return tuple(tuple(self.chi_exponents(orbit[0].chi))
                     for orbit, _ in self.character_table.orbits[2:])

    @cached_property
    def chi_images(self) -> Mapping[tuple[int, ...], tuple[int, ...]]:
        """galois_on_chi(chi, g) at every chi, g = cyclotomic_field(exponent).generator:
        in chi_vectors() order, the product of the images g*c of each factor's range."""
        g = cyclotomic_field(self.exponent).generator
        images = iter_product(*([g * c % f for c in range(f)] for f in self.cyclic_factors))
        return MappingProxyType(dict(zip(self.chi_vectors(), images)))

    @cached_property
    def label_images(self) -> Mapping[str, str]:
        """galois_label(label, g) at every character label, g as in chi_images."""
        g = cyclotomic_field(self.exponent).generator
        return MappingProxyType({x: self.galois_label(x, g) for x in self.character_table.by_label})


@lru_cache(maxsize=64)
def dihedral_group(p: int, cyclic_factors: tuple[int, ...]) -> DihedralGroup:
    """DihedralGroup(p, cyclic_factors) built once per shape in a process, which
    holds only tables of its shape; a rejected shape raises anew on every call."""
    return DihedralGroup(p, cyclic_factors)


# ---------------------------------------------------------------------------
# irreducible characters of G
# ---------------------------------------------------------------------------

class Character(Record):
    """An irreducible character of a generalized dihedral group.

    kind is "triv", "eps" (quadratic, kernel P) or "ind" (dimension 2, induced
    from the pair {chi, chi-bar}, chi the lexicographically smaller). Only
    DihedralGroup.character_table builds them, so they compare by identity."""

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, group: DihedralGroup, kind: str, label: str,
                 chi: tuple[int, ...] | None = None):
        self.group, self.kind, self.label, self.chi = group, kind, label, chi

    @property
    def degree(self) -> int:
        return 2 if self.kind == "ind" else 1

    @classmethod
    def from_label(cls, group: DihedralGroup, label: str) -> "Character":
        try:
            return group.character_table.by_label[label]
        except KeyError:
            raise GroupError(f"bad character label {label!r}") from None

    def value(self, g: GroupElement) -> CyclotomicNumber:
        if self.kind == "triv":
            return CyclotomicNumber.rational(1)
        if self.kind == "eps":
            return CyclotomicNumber.rational(-1 if g.flip else 1)
        if g.flip:
            return CyclotomicNumber.rational(0)
        chi_g = self.group.chi_value(self.chi, g)
        return chi_g + chi_g.conjugate()

    def stabilizer_units(self) -> list[int]:
        """Units a of (Z/exponent)^* with psi^sigma_a = psi."""
        return [a for a in self.group.galois_unit_reps()
                if self.group.galois_label(self.label, a) == self.label]


class CharacterTable(NamedTuple):
    by_label: Mapping[str, Character]  # triv, eps, then Ind chi in lexicographic chi order
    induced: Mapping[tuple[int, ...], Character]  # Ind chi at every chi != 1, chi-bar too
    # each Galois orbit, with the units a that first reach its members
    orbits: tuple[tuple[tuple[Character, ...], tuple[int, ...]], ...]


def irreducible_characters(group: DihedralGroup) -> list[Character]:
    """triv, eps, then the induced characters in lexicographic chi order."""
    return list(group.character_table.by_label.values())


def character_orbits(group: DihedralGroup) -> list[list[Character]]:
    """Galois orbits of all irreducible characters: [triv], [eps], then the
    induced orbits in lexicographic order of their first member, each listed
    in the order of the units a that first reach it, as fresh lists."""
    return [list(orbit) for orbit, _ in group.character_table.orbits]


def orbit_units(group: DihedralGroup) -> list[tuple[int, ...]]:
    """The Galois alignment of character_orbits: for each orbit, the units a
    that first reach its members, so that member i is orbit[0]^sigma_a for
    the i-th a. The Q-values of an orbit are then sigma_a(Q(orbit[0])) in
    this order, the alignment exact.recognize_orbit takes."""
    return [units for _, units in group.character_table.orbits]


# ---------------------------------------------------------------------------
# classical group-ring identity used by the descent argument
# ---------------------------------------------------------------------------

def kolyvagin_identity(m: int) -> bool:
    """Check m*sigma^((m+1)/2) = Tr + (sigma - 1)*D in Z[Z/m] for odd m,
    where Tr = sum of all powers and D = sum_{i=1}^{(m-1)/2} i*(sigma^i - sigma^-i).

    Computed literally in the integral group ring of the cyclic group.
    """
    if m < 1 or m % 2 == 0:
        raise GroupError(f"identity is about odd cyclic groups, got m = {m}")
    lhs = {((m + 1) // 2) % m: m}
    rhs = {i: 1 for i in range(m)}
    # D as a coefficient vector
    d = {}
    for i in range(1, (m - 1) // 2 + 1):
        d[i % m] = d.get(i % m, 0) + i
        d[(-i) % m] = d.get((-i) % m, 0) - i
    # (sigma - 1) * D
    for k, c in d.items():
        rhs[(k + 1) % m] = rhs.get((k + 1) % m, 0) + c
        rhs[k] = rhs.get(k, 0) - c
    clean = lambda v: {k: c for k, c in v.items() if c != 0}
    return clean(lhs) == clean(rhs)


# ---------------------------------------------------------------------------
# Galois equivariance
# ---------------------------------------------------------------------------

Key = TypeVar("Key", bound=Hashable)


def first_equivariance_failure(values: Mapping[Key, CyclotomicNumber],
                               image: Callable[[Key, int], Key], e: int,
                               at_generator: Mapping[Key, Key]) -> tuple[int, Key] | None:
    """The first (a, key), units a of (Z/e)^* in increasing order and keys in
    the order of values, with sigma_a(values[key]) != values[image(key, a)],
    or None. The values have conductors dividing e, image is an action:
    image(image(k, a), b) = image(k, ab), and at_generator[k] = image(k, g).

    Only the generator g of cyclotomic_field(e) is checked, through
    at_generator, unless that check fails. (Z/e)^* is cyclic for odd prime
    powers e, sigma_ab = sigma_a sigma_b, and == on CyclotomicNumber (equal
    (m, num, den), rationals equal across conductors) is an equivalence every
    sigma_a preserves. So if sigma_g(values[k]) = values[image(k, g)] for
    every key k, induction on j gives sigma_(g^j)(values[k]) =
    sigma_g(values[image(k, g^(j-1))]) = values[image(k, g^j)], and the g^j
    are all the units. After a failure at g every unit is scanned, so that
    the result is the first failure."""
    field = cyclotomic_field(e)
    g = field.generator
    if all(v.galois_apply(g) == values[at_generator[k]] for k, v in values.items()):
        return None
    return next((a, k) for a in field.units for k, v in values.items()
                if v.galois_apply(a) != values[image(k, a)])


# ---------------------------------------------------------------------------
# restriction map and Z_p-lattice membership
# ---------------------------------------------------------------------------

def res_map(values: Mapping[str, CyclotomicNumber], group: DihedralGroup
            ) -> dict[tuple[int, ...], CyclotomicNumber]:
    """Push a G-character vector down to a P-character vector: value(triv) *
    value(eps) at the trivial chi, and at a nontrivial chi the value at the
    character induced from {chi, chi-bar}."""
    out: dict[tuple[int, ...], CyclotomicNumber] = {}
    try:
        out[(0,) * len(group.cyclic_factors)] = values["triv"] * values["eps"]
        for avec, char in group.character_table.induced.items():
            out[avec] = values[char.label]
    except KeyError as e:
        raise GroupError(f"missing character value {e.args[0]!r}") from e
    return out


def character_sums(evals: Mapping[tuple[int, ...], CyclotomicNumber],
                   group: DihedralGroup) -> dict[tuple[int, ...], Fraction]:
    """S(pi) = sum_chi chi(pi)^-1 E_chi for every pi in P, keyed by pi.rot: for
    E = res_map(Q) the congruence sum at pi, and |P| times the Fourier
    coefficient of (E_chi) at pi, which the Z_p[P] membership test reads.
    Every E_chi has conductor 1 or e; any other raises
    UnsupportedConductorError.

    By Fourier inversion E_chi = |P|^-1 sum_pi chi(pi) S(pi). So if every
    S(pi) is rational, sigma_a(E_chi) = |P|^-1 sum_pi chi(pi)^a S(pi) = E_(a chi)
    for every a in (Z/e)^*: the vector is Galois-equivariant. The converse is
    shown below. first_equivariance_failure decides equivariance on the values
    as given, and at its first failing (a, chi) NotEquivariantError is raised:
    no S(pi) of a non-equivariant vector is computed, for some of them are
    irrational.

    For an equivariant vector the chi of one orbit O under (Z/e)^* give
    conjugate terms: (a chi)(pi)^-1 E_(a chi) = sigma_a(chi(pi)^-1 E_chi), and
    each member of O is reached by phi(e)/|O| units, so

        sum_(chi in O) chi(pi)^-1 E_chi = (|O|/phi(e)) Tr(chi_0(pi)^-1 E_chi_0)

    for any chi_0 in O, Tr from Q(zeta_e) to Q. The orbits are read from the
    character table: the trivial chi alone, and per induced orbit of k
    characters the 2k chi they are induced from, chi and chi-bar each.
    With E_chi_0 = sum_i c_i zeta^i / d and chi_0(pi) = zeta^k, the trace is
    sum_i c_i Tr(zeta^(i-k)) / d, and Tr(zeta^j) is phi(e) when e | j, -e/p
    when e/p | j but e does not, and 0 otherwise (CyclotomicField.zeta_trace;
    Washington, GTM 83, ch. 2). So S(pi) is a Fraction, one integer over
    D phi(e), D the common denominator of the orbit representatives: one
    table of e integers per representative and one addition per orbit and
    pi, with no reduction modulo Phi_e. The exponent sum is symmetric in chi
    and pi, so the orbit's row of group.orbit_exponents gives k at every pi at once."""
    vectors = list(group.chi_vectors())
    missing = [v for v in vectors if v not in evals]
    if missing:
        raise GroupError(f"missing {len(missing)} chi components, e.g. {missing[0]}")
    e, field = group.exponent, cyclotomic_field(group.exponent)
    values = {avec: evals[avec] for avec in vectors}
    foreign = next((v.m for v in values.values() if v.m not in (1, e)), None)
    if foreign is not None:
        raise UnsupportedConductorError(f"mixed conductors {e} and {foreign}")
    # num of a conductor-1 value is its one coordinate at zeta^0, so no value is promoted
    failure = first_equivariance_failure(values, group.galois_on_chi, e, group.chi_images)
    if failure is not None:
        raise NotEquivariantError(*failure)
    rows = zip(group.character_table.orbits[2:], group.orbit_exponents)
    orbits = [(vectors[0], 1, repeat(0))] + [(o[0].chi, 2 * len(o), row) for (o, _), row in rows]
    den = lcm(*(values[avec].den for avec, _, _ in orbits))
    acc = [0] * group.p_order
    for avec, size, row in orbits:
        v = values[avec]
        weight = size * (den // v.den)
        # traces[k] = weight d Tr(zeta^-k E_chi_0), nonzero only at k = i mod e/p
        traces = [0] * e
        for i, c in enumerate(v.num):
            if c:
                for k in range(i % field.q, e, field.q):
                    traces[k] += weight * c * field.zeta_trace(i - k)
        acc = [s + traces[k] for s, k in zip(acc, row)]
    # one Fraction per distinct sum: a constant vector's S(pi) vanish at every pi but 1
    fractions = {s: Fraction(s, den * field.phi) for s in set(acc)}
    return {rot: fractions[s] for rot, s in zip(vectors, acc)}


class MembershipReport(Record):
    def __init__(self, ok: bool, coefficients: dict[tuple[int, ...], Fraction],
                 failures: list[str]):
        self.ok, self.coefficients, self.failures = ok, coefficients, failures


def zp_P_membership(sums: Mapping[tuple[int, ...], Fraction],
                    group: DihedralGroup) -> MembershipReport:
    """Decide whether the P-character vector (E_chi) with sums =
    character_sums(evals, group) is the character vector of an element of
    Z_p[P]: all E_chi p-units is NOT required here, only p-integral Fourier
    coefficients.

    The sums exist only for a Galois-equivariant vector (character_sums raises
    NotEquivariantError otherwise), and hold the rationals S(pi) = |P| c_pi,
    c_pi = |P|^-1 sum_chi chi(pi)^-1 E_chi. So membership is p-integrality of
    every c_pi. Returns the coefficients and a list of failure notes. These
    are the sums the congruence lines read, so where this test agrees with
    them it confirms their reading at the group-ring bound, not S(pi) itself,
    which nothing recomputes independently.
    """
    failures: list[str] = []
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for pi in group.p_elements():
        coeffs[pi.rot] = c = sums[pi.rot] / group.p_order
        if c != 0 and p_valuation(c, group.p) < 0:
            failures.append(
                f"coefficient {c} at {group.format_element(pi)} not p-integral")
    return MembershipReport(ok=not failures, coefficients=coeffs, failures=failures)


class IntegralityReport(Record):
    def __init__(self, ok: bool, central_values: dict[str, Fraction], failures: list[str]):
        self.ok, self.central_values, self.failures = ok, central_values, failures


def center_integrality(values: Mapping[str, CyclotomicNumber], group: DihedralGroup
                       ) -> IntegralityReport:
    """Decide whether (A(psi))_psi is the eigenvalue vector of an element of
    the center of Z_p[G].

    Checks: each A(psi) lies in Z_p[zeta] and is fixed by the stabilizer of
    psi; the vector is Galois-equivariant (first_equivariance_failure); and
    for every g in G the combination |G|^-1 sum_psi psi(1) psi(g^-1) A(psi)
    is rational and p-integral. At a rotation pi it is S(pi)/|P|, S =
    character_sums of res_map's P-vector with (A(triv) + A(eps))/2 at the
    trivial chi; when that vector is not Galois-equivariant, some of these
    are irrational, and its first failing (a, chi) is the one note for every
    rotation, which then has no coefficient. At every reflection it is
    (A(triv) - A(eps))/|G|, where only triv and eps survive.
    """
    p = group.p
    chars = irreducible_characters(group)
    failures: list[str] = []
    for c in chars:
        if c.label not in values:
            raise GroupError(f"missing eigenvalue for {c.label}")
        v = values[c.label]
        if not v.is_zero() and p_valuation(v, p) < 0:
            failures.append(f"A({c.label}) not p-integral")
        for a in c.stabilizer_units():
            if v.galois_apply(a) != v:
                failures.append(f"A({c.label}) not fixed by its stabilizer (a={a})")
                break
    failure = first_equivariance_failure({c.label: values[c.label] for c in chars},
                                         group.galois_label, group.exponent, group.label_images)
    if failure is not None:
        a, label = failure
        failures.append(f"eigenvalues not Galois-equivariant at {label}, a={a}")
    evals = res_map(values, group)
    evals[(0,) * len(group.cyclic_factors)] = (values["triv"] + values["eps"]) * Fraction(1, 2)
    try:
        sums = character_sums(evals, group)
    except NotEquivariantError as e:
        failures.append(str(e))
        sums = None
    reflection = values["triv"] - values["eps"]
    central: dict[str, Fraction] = {}
    for g in group.elements():
        if not g.flip:
            if sums is None:
                continue
            coeff = sums[g.rot] / group.p_order
        elif reflection.is_rational():
            coeff = reflection.rational_part() / group.order
        else:
            failures.append(f"central coefficient at {group.format_element(g)} not rational")
            continue
        central[group.format_element(g)] = coeff
        if coeff != 0 and p_valuation(coeff, p) < 0:
            failures.append(
                f"central coefficient {coeff} at {group.format_element(g)} not p-integral")
    return IntegralityReport(ok=not failures, central_values=central, failures=failures)
