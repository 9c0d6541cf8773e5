"""Local correction factors at ramified places.

For each place v of the base field that ramifies in the dihedral tower the
truncated and untruncated leading terms differ by the local Euler-style data
of the character: the eigenvalues of Frobenius on the inertia-invariant
subspace V_psi^I determine a root-of-unity factor

    u_v(psi) = prod (-lambda^-1)

and a rational factor

    t_v(psi) = prod (1 - lambda^-1 a_v / q_v + lambda^-2 / q_v),

products over those eigenvalues (empty products are 1). Here q_v is the
residue size and a_v the trace of Frobenius of the curve at v. The
eigenvalues are read exactly from the exponents of the P-character chi that
psi is induced from. parse_local_place computes the pair of every
character once, when it builds the place; global_correction multiplies the
stored pairs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .exact import CyclotomicNumber, brief, prime_power_base
from .groups import Character, DihedralGroup, GroupElement, GroupError
from .record import Record


class LocalDataError(ValueError):
    """Inconsistent inertia/Frobenius data at a place."""


class LocalCorrection(Record, hashable=True):
    """u is a root of unity (rational +-1 whenever the character is real-valued
    at the relevant classes); t is rational."""

    def __init__(self, u: CyclotomicNumber, t: Fraction):
        self.u, self.t = u, t


class LocalPlace(Record):
    """Ramification data at a finite place of the base field.

    q         -- residue field size, l^f for a prime l < 2^78
    a         -- Frobenius trace of the curve at the place (|a| <= 2*sqrt(q))
    inertia   -- generators of the inertia subgroup in G
    frobenius -- a Frobenius lift in G (well defined modulo inertia)
    corrections -- the pair (u, t) of every character, by label; filled by
                   parse_local_place
    """

    def __init__(self, q: int, a: int, inertia: tuple[GroupElement, ...],
                 frobenius: GroupElement,
                 corrections: Mapping[str, LocalCorrection] | None = None):
        self.q, self.a, self.inertia, self.frobenius = q, a, inertia, frobenius
        self.corrections = {} if corrections is None else corrections
        if prime_power_base(self.q) is None:
            raise LocalDataError(
                f"residue size {brief(self.q)} is not a power of a prime below 2^78")
        if self.a * self.a > 4 * self.q:
            raise LocalDataError(
                f"trace {brief(self.a)} violates the Hasse bound for q = {brief(self.q)}")


def frobenius_eigenvalues(char: Character, place: LocalPlace
                          ) -> list[CyclotomicNumber]:
    """Eigenvalues of Frobenius on V_psi^I, exactly: +-1 or roots of unity in
    Q(zeta_e), e the exponent of P.

    For psi = Ind chi, P acts on V by diag(chi, chi-bar) and the reflection
    r*tau swaps the two lines, fixing only the line through (chi(r), 1). So a
    rotation g in inertia with chi(g) != 1 leaves V^I = 0, as do reflections
    with two different lines; with no line V^I = V, and with one line
    Frobenius acts on it by 1.
    """
    if char.degree == 1:
        if any(char.value(g) != 1 for g in place.inertia):
            return []
        return [char.value(place.frobenius)]
    group = char.group
    lines: set[int] = set()  # chi-exponents k of the lines through (zeta_e^k, 1)
    for g in place.inertia:
        k = group.chi_exponent(char.chi, group.element(g.rot))
        if g.flip:
            lines.add(k)
        elif k:
            return []
    if len(lines) > 1:
        return []
    frob = place.frobenius
    f = group.element(frob.rot)
    if not lines:
        if frob.flip:
            return [CyclotomicNumber.rational(1), CyclotomicNumber.rational(-1)]
        c = group.chi_value(char.chi, f)
        return [c, c.conjugate()]
    # a rotation f keeps the line iff chi(f) = 1, a reflection f*tau iff
    # chi(f) = chi(r)
    if group.chi_exponent(char.chi, f) != (lines.pop() if frob.flip else 0):
        raise LocalDataError(
            "Frobenius does not normalize inertia on the induced representation")
    # 1 as an element of Q(zeta_e): the conductor of u shows in the reports
    return [CyclotomicNumber.zeta_power(group.exponent, 0)]


def local_correction(char: Character, place: LocalPlace) -> LocalCorrection:
    """The factors u_v(psi), t_v(psi) at one place."""
    eigs = frobenius_eigenvalues(char, place)
    u = CyclotomicNumber.rational(1)
    t = CyclotomicNumber.rational(1)
    qinv = Fraction(1, place.q)
    for lam in eigs:
        lam_inv = lam.conjugate()  # lam is a root of unity
        u = u * (-lam_inv)
        t = t * (1 + (-place.a * qinv) * lam_inv + qinv * (lam_inv * lam_inv))
    if not t.is_rational():
        raise LocalDataError(f"local t-factor of {char.label} failed to be rational")
    return LocalCorrection(u=u, t=t.rational_part())


def global_correction(char: Character, places: Sequence[LocalPlace]) -> LocalCorrection:
    """Product of the stored local corrections over the given (ramified) places."""
    u = CyclotomicNumber.rational(1)
    t = Fraction(1)
    for place in places:
        loc = place.corrections[char.label]
        u = u * loc.u
        t = t * loc.t
    return LocalCorrection(u=u, t=t)


# ---------------------------------------------------------------------------
# companion quantities used in discriminant bookkeeping
# ---------------------------------------------------------------------------

def quadratic_point_count(n_v: int, q_v: int) -> int:
    """Point count over the quadratic extension of the residue field:
    N_w = N_v * (2*q_v + 2 - N_v). LocalPlace holds q_v + 1 - N_v to the
    Hasse bound."""
    return n_v * (2 * q_v + 2 - n_v)


def discriminant_factor(char: Character, d_k_abs: int, d_K_abs: int,
                        conductor_norm: int = 1) -> int:
    """The positive integer under the square root in the normalized leading
    term: |d_k| for the trivial character, the relative discriminant norm
    |d_K|/|d_k|^2 for the quadratic one (parse_dataset checks that it is an
    integer), |d_K| * Nf(chi) for an induced one."""
    if char.kind == "triv":
        return d_k_abs
    if char.kind == "eps":
        return d_K_abs // (d_k_abs * d_k_abs)
    return d_K_abs * conductor_norm


def parse_local_place(group: DihedralGroup, q: int, a: int,
                      inertia: Sequence[str], frobenius: str,
                      pinned: Sequence[tuple[str, Fraction, Fraction]] = ()
                      ) -> LocalPlace:
    """Build a LocalPlace from serialized group elements, with sanity checks:
    inertia generators nontrivial, Frobenius normalizes the inertia subgroup,
    every character's (u, t) exists, and each declared (label, u, t) pin
    matches it. Each pinned label names a character of group (parse_dataset
    checks it)."""
    try:
        gens = tuple(group.parse_element(s) for s in inertia)
        frob = group.parse_element(frobenius)
    except GroupError as e:
        raise LocalDataError(str(e)) from e
    if any(g == group.identity for g in gens):
        raise LocalDataError("trivial inertia generator listed at a ramified place")
    # the subgroup <gens>, closed under right multiplication (G is finite);
    # a generator already in the span of the earlier ones adds nothing, so
    # at most log2|G| + 1 of them do any work
    subgroup = {group.identity}
    spanning: list[GroupElement] = []
    for g in gens:
        if g in subgroup:
            continue
        spanning.append(g)
        frontier = set(subgroup)
        while frontier:
            frontier = {group.multiply(h, k) for h in frontier for k in spanning} - subgroup
            subgroup |= frontier
    # Frobenius normalizes <gens> iff it conjugates each spanning generator into it
    frob_inv = group.inverse(frob)
    if any(group.multiply(group.multiply(frob, g), frob_inv) not in subgroup for g in spanning):
        raise LocalDataError("Frobenius does not normalize the inertia subgroup")
    place = LocalPlace(q=q, a=a, inertia=gens, frobenius=frob)
    place.corrections = {label: local_correction(char, place)
                         for label, char in group.character_table.by_label.items()}
    for label, pu, pt in pinned:
        corr = place.corrections[label]
        if corr.u != CyclotomicNumber.rational(pu) or corr.t != pt:
            got_u = corr.u.rational_part() if corr.u.is_rational() else corr.u
            raise LocalDataError(
                f"pinned correction for {label} declares (u, t) = ({pu}, {pt}) "
                f"but the Galois data gives ({got_u}, {corr.t})")
    return place
