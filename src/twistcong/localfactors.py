"""Local correction factors at ramified places.

For each place v of the base field that ramifies in the dihedral tower the
truncated and untruncated leading terms differ by the local Euler-style data
of the character: the eigenvalues of Frobenius on the inertia-invariant
subspace V_psi^I determine a root-of-unity factor

    u_v(psi) = prod (-lambda^-1)

and a rational factor

    t_v(psi) = prod (1 - lambda^-1 a_v / q_v + lambda^-2 / q_v),

products over those eigenvalues (empty products are 1). Here q_v is the
residue size and a_v the trace of Frobenius of the curve at v. Everything is
computed exactly from an explicit matrix realization of psi.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import CyclotomicNumber, ExactArithmeticError, as_fraction
from .groups import Character, DihedralGroup, GroupElement, GroupError


class LocalDataError(ValueError):
    """Inconsistent inertia/Frobenius data at a place."""


@dataclass(frozen=True)
class LocalPlace:
    """Ramification data at a finite place of the base field.

    q         -- residue field size
    a         -- Frobenius trace of the curve at the place (|a| <= 2*sqrt(q))
    inertia   -- generators of the inertia subgroup in G
    frobenius -- a Frobenius lift in G (well defined modulo inertia)
    pinned    -- optional declared (character label, u, t) triples; a guard
                 against mis-specified Galois data, checked at load time
    """

    q: int
    a: int
    inertia: tuple[GroupElement, ...]
    frobenius: GroupElement
    pinned: tuple[tuple[str, Fraction, Fraction], ...] = ()

    def __post_init__(self):
        if self.q < 2:
            raise LocalDataError(f"residue size {self.q} is not a prime power")
        if self.a * self.a > 4 * self.q:
            raise LocalDataError(f"trace {self.a} violates the Hasse bound for q = {self.q}")


def _matrix_on_invariants(char: Character, place: LocalPlace
                          ) -> list[list[CyclotomicNumber]]:
    """Frobenius acting on V_psi^I, as a matrix over Q(zeta) in some basis.

    Returns a 0x0, 1x1 or 2x2 matrix. The invariant space is computed exactly
    from the explicit realization of psi; the Frobenius action is verified to
    preserve it.
    """
    one = CyclotomicNumber.rational(1)
    zero = CyclotomicNumber.rational(0)

    if char.degree == 1:
        for g in place.inertia:
            if char.value(g) != one:
                return []
        return [[char.value(place.frobenius)]]

    # dimension 2: intersect the fixed spaces of the inertia generators.
    # In the chosen basis P acts by diag(chi, chibar) and reflections by
    # antidiag(chi(rot), chibar(rot)).
    group = char.group
    full = True
    line: tuple[CyclotomicNumber, CyclotomicNumber] | None = None
    for g in place.inertia:
        M = char.rep_matrix(g)
        if M[0][1].is_zero() and M[1][0].is_zero():
            # diagonal action: fixed space is V when chi(g) = 1, else 0
            if M[0][0] != one or M[1][1] != one:
                return []
        else:
            # reflection: fixed line spanned by (chi(rot), 1)
            cand = (M[0][1], one)
            if line is None:
                line = cand
                full = False
            elif line[0] != cand[0]:
                return []  # two distinct reflection lines intersect in 0
    if full and line is None:
        M = char.rep_matrix(place.frobenius)
        return [list(row) for row in M]

    # one-dimensional invariant space: Frobenius must preserve the line
    v = line
    M = char.rep_matrix(place.frobenius)
    w = (M[0][0] * v[0] + M[0][1] * v[1], M[1][0] * v[0] + M[1][1] * v[1])
    # w = lambda * v with v[1] = 1
    lam = w[1]
    if w[0] != lam * v[0]:
        raise LocalDataError(
            "Frobenius does not normalize inertia on the induced representation")
    return [[lam]]


def frobenius_eigenvalues(char: Character, place: LocalPlace
                          ) -> list[CyclotomicNumber]:
    """Eigenvalues of Frobenius on V_psi^I, exactly.

    For the matrices arising here (diagonal or antidiagonal 2x2, or 1x1) the
    eigenvalues are roots of unity in Q(zeta_{p^n}) or +-1.
    """
    M = _matrix_on_invariants(char, place)
    if not M:
        return []
    if len(M) == 1:
        return [M[0][0]]
    if M[0][1].is_zero() and M[1][0].is_zero():
        return [M[0][0], M[1][1]]
    if M[0][0].is_zero() and M[1][1].is_zero():
        # antidiagonal with product of entries a root of unity zeta^k of odd
        # order; eigenvalues are +-sqrt(zeta^k) = +-zeta^(k*(ord+1)/2)
        prod = M[0][1] * M[1][0]
        m = prod.m
        if prod == CyclotomicNumber.rational(1):
            return [CyclotomicNumber.rational(1), CyclotomicNumber.rational(-1)]
        root = prod ** ((m + 1) // 2)
        if root * root != prod:
            raise ExactArithmeticError("antidiagonal product is not an odd-order root of unity")
        return [root, -root]
    raise ExactArithmeticError("unexpected Frobenius matrix shape on invariants")


@dataclass(frozen=True)
class LocalCorrection:
    """u is a root of unity (rational +-1 whenever the character is real-valued
    at the relevant classes); t is rational."""

    u: CyclotomicNumber
    t: Fraction


def local_correction(char: Character, place: LocalPlace) -> LocalCorrection:
    """The factors u_v(psi), t_v(psi) at one place."""
    eigs = frobenius_eigenvalues(char, place)
    u = CyclotomicNumber.rational(1)
    t = CyclotomicNumber.rational(1)
    qinv = Fraction(1, place.q)
    for lam in eigs:
        lam_inv = lam.inverse()
        u = u * (-lam_inv)
        t = t * (1 + (-place.a * qinv) * lam_inv + qinv * (lam_inv * lam_inv))
    if not t.is_rational():
        raise ExactArithmeticError("local t-factor failed to be rational")
    return LocalCorrection(u=u, t=t.rational_part())


def global_correction(char: Character, places: Sequence[LocalPlace]) -> LocalCorrection:
    """Product of the local corrections over the given (ramified) places."""
    u = CyclotomicNumber.rational(1)
    t = Fraction(1)
    for place in places:
        loc = local_correction(char, place)
        u = u * loc.u
        t = t * loc.t
    return LocalCorrection(u=u, t=t)


# ---------------------------------------------------------------------------
# companion quantities used in discriminant bookkeeping
# ---------------------------------------------------------------------------

def quadratic_point_count(n_v: int, q_v: int) -> int:
    """Point count over the quadratic extension of the residue field:
    N_w = N_v * (2*q_v + 2 - N_v)."""
    a = q_v + 1 - n_v
    if a * a > 4 * q_v:
        raise LocalDataError(
            f"point count {n_v} violates the Hasse bound for q = {q_v}")
    return n_v * (2 * q_v + 2 - n_v)


def discriminant_factor(char: Character, d_k_abs: int, d_K_abs: int,
                        conductor_norm: int = 1) -> int:
    """The positive integer under the square root in the normalized leading
    term: |d_k| for the trivial character, the relative discriminant norm
    |d_K|/|d_k|^2 for the quadratic one, |d_K| * Nf(chi) for an induced one."""
    if char.kind == "triv":
        return d_k_abs
    if char.kind == "eps":
        rel, rem = divmod(d_K_abs, d_k_abs * d_k_abs)
        if rem:
            raise LocalDataError(
                f"|d_K| = {d_K_abs} is not divisible by |d_k|^2 = {d_k_abs ** 2}")
        return rel
    return d_K_abs * conductor_norm


def parse_local_place(group: DihedralGroup, q: int, a: int,
                      inertia: Sequence[str], frobenius: str,
                      pinned: Mapping[str, Mapping[str, str]] | None = None
                      ) -> LocalPlace:
    """Build a LocalPlace from serialized group elements, with sanity checks:
    inertia generators nontrivial, Frobenius normalizes the inertia subgroup."""
    try:
        gens = tuple(group.parse_element(s) for s in inertia)
        frob = group.parse_element(frobenius)
    except GroupError as e:
        raise LocalDataError(str(e)) from e
    pins: list[tuple[str, Fraction, Fraction]] = []
    for label, pair in (pinned or {}).items():
        try:
            pins.append((str(label), as_fraction(str(pair["u"])),
                         as_fraction(str(pair["t"]))))
        except (KeyError, ValueError, TypeError) as e:
            raise LocalDataError(f"bad pinned correction for {label!r}: {e}") from e
    if any(g == group.identity for g in gens):
        raise LocalDataError("trivial inertia generator listed at a ramified place")
    # closure of <gens> under conjugation by frob, checked on the generators:
    # in a dihedral group conjugation by any element maps each generator to a
    # product of generators and inverses; verify frob * g * frob^-1 lies in
    # the subgroup generated by gens (by brute force over the small subgroup)
    subgroup = {group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                for cand in (h * g, h * g.inverse()):
                    if cand not in subgroup:
                        subgroup.add(cand)
                        nxt.append(cand)
        frontier = nxt
    for g in gens:
        conj = frob * g * frob.inverse()
        if conj not in subgroup:
            raise LocalDataError("Frobenius does not normalize the inertia subgroup")
    return LocalPlace(q=q, a=a, inertia=gens, frobenius=frob, pinned=tuple(pins))


def check_pinned_corrections(group: DihedralGroup, place: LocalPlace) -> None:
    """Compare declared (u, t) pins with the values computed from the Galois
    data; any mismatch is a hard data error."""
    from .groups import Character
    for label, pu, pt in place.pinned:
        try:
            char = Character.from_label(group, label)
        except GroupError as e:
            raise LocalDataError(f"pinned correction for unknown character {label!r}") from e
        corr = local_correction(char, place)
        if corr.u != CyclotomicNumber.rational(pu) or corr.t != pt:
            got_u = corr.u.rational_part() if corr.u.is_rational() else corr.u
            raise LocalDataError(
                f"pinned correction for {label} declares (u, t) = ({pu}, {pt}) "
                f"but the Galois data gives ({got_u}, {corr.t})")
