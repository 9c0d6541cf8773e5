"""Local correction factors at ramified places.

The dihedral group of order 6 admits three ramification shapes (e, f) =
(2, 1), (3, 1), (3, 2); for each of them and each irreducible character the
pair (u, t) is pinned down as a function of the point count N_v and residue
size q_v. Those nine cells are frozen here and checked against the general
eigenvalue computation.
"""
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from twistcong.exact import CyclotomicNumber
from twistcong.groups import Character, DihedralGroup, irreducible_characters
from twistcong.localfactors import (
    LocalDataError, LocalPlace, discriminant_factor, frobenius_eigenvalues,
    global_correction, local_correction, parse_local_place,
    quadratic_point_count,
)

S3 = DihedralGroup(3, [3])
G7 = DihedralGroup(7, [7])

TRIV3 = Character.from_label(S3, "triv")
EPS3 = Character.from_label(S3, "eps")
IND3 = Character.from_label(S3, "ind:1")


def pair_of(corr):
    return (corr.u.rational_part(), corr.t)


def place_21(q, a):
    """(e, f) = (2, 1): inertia a reflection, Frobenius trivial mod inertia."""
    return parse_local_place(S3, q, a, ["t"], "1")


def place_31(q, a):
    """(e, f) = (3, 1): inertia the rotation subgroup, Frobenius inside it."""
    return parse_local_place(S3, q, a, ["s1"], "1")


def place_32(q, a):
    """(e, f) = (3, 2): rotation inertia, Frobenius a reflection."""
    return parse_local_place(S3, q, a, ["s1"], "t")


def hasse_range(q):
    lo = q + 1 - 2 * int(q ** 0.5)
    return [n for n in range(max(lo, 1), 2 * q + 3)
            if (q + 1 - n) ** 2 <= 4 * q]


# ---------------------------------------------------------------------------
# the nine table cells, for several (q, a) pairs
# ---------------------------------------------------------------------------

SAMPLE_QA = [(2, -1), (2, 2), (5, -3), (19, 4), (23, 0), (101, 18)]


@pytest.mark.parametrize("q,a", SAMPLE_QA)
def test_table_row_e2_f1(q, a):
    v = place_21(q, a)
    nv = q + 1 - a
    assert pair_of(local_correction(TRIV3, v)) == (-1, Fraction(nv, q))
    assert pair_of(local_correction(EPS3, v)) == (1, Fraction(1))
    assert pair_of(local_correction(IND3, v)) == (-1, Fraction(nv, q))


@pytest.mark.parametrize("q,a", SAMPLE_QA)
def test_table_row_e3_f1(q, a):
    v = place_31(q, a)
    nv = q + 1 - a
    assert pair_of(local_correction(TRIV3, v)) == (-1, Fraction(nv, q))
    assert pair_of(local_correction(EPS3, v)) == (-1, Fraction(nv, q))
    assert pair_of(local_correction(IND3, v)) == (1, Fraction(1))


@pytest.mark.parametrize("q,a", SAMPLE_QA)
def test_table_row_e3_f2(q, a):
    v = place_32(q, a)
    nv = q + 1 - a
    assert pair_of(local_correction(TRIV3, v)) == (-1, Fraction(nv, q))
    # the quadratic character sees Frobenius as -1 on a full invariant space
    assert pair_of(local_correction(EPS3, v)) == (1, Fraction(q + 1 + a, q))
    assert pair_of(local_correction(IND3, v)) == (1, Fraction(1))


@pytest.mark.parametrize("q,a", SAMPLE_QA)
def test_e3_f2_eps_cell_via_point_counts(q, a):
    nv = q + 1 - a
    nw = quadratic_point_count(nv, q)
    qw = q * q
    cell = local_correction(EPS3, place_32(q, a)).t
    assert cell == Fraction(nw, qw) * Fraction(q, nv)


# ---------------------------------------------------------------------------
# eigenvalue spectra
# ---------------------------------------------------------------------------

def test_spectra_shapes():
    v = place_21(5, 2)
    assert frobenius_eigenvalues(TRIV3, v) == [CyclotomicNumber.rational(1)]
    assert frobenius_eigenvalues(EPS3, v) == []
    assert frobenius_eigenvalues(IND3, v) == [CyclotomicNumber.rational(1)]
    w = place_31(5, 2)
    assert frobenius_eigenvalues(IND3, w) == []
    # unramified place split to a reflection Frobenius: eigenvalues {+1, -1}
    u = LocalPlace(q=5, a=2, inertia=(), frobenius=S3.element((0,), 1))
    assert sorted(e.rational_part() for e in frobenius_eigenvalues(IND3, u)) == [-1, 1]


def rep_matrix(char, g):
    """The explicit realization the eigenvalues were once read from: 1x1, or
    2x2 in the basis where P acts by diag(chi, chi-bar) and tau swaps the
    two lines."""
    if char.kind != "ind":
        return ((char.value(g),),)
    zero = CyclotomicNumber.rational(0)
    c = char.group.chi_value(char.chi, char.group.element(g.rot))
    cb = c.conjugate()
    if g.flip:
        return ((zero, c), (cb, zero))
    return ((c, zero), (zero, cb))


def matrix_eigenvalues(char, place):
    """Frobenius eigenvalues on V^I from the matrices: the reference for
    frobenius_eigenvalues, which reads the character exponents instead."""
    one = CyclotomicNumber.rational(1)
    if char.degree == 1:
        if any(char.value(g) != one for g in place.inertia):
            return []
        return [char.value(place.frobenius)]
    line = None
    for g in place.inertia:
        M = rep_matrix(char, g)
        if M[0][1].is_zero() and M[1][0].is_zero():
            if M[0][0] != one or M[1][1] != one:
                return []
        elif line is None:
            line = (M[0][1], one)      # a reflection fixes the line (chi(rot), 1)
        elif line[0] != M[0][1]:
            return []
    M = rep_matrix(char, place.frobenius)
    if line is None:
        if M[0][1].is_zero() and M[1][0].is_zero():
            return [M[0][0], M[1][1]]
        # antidiagonal: c * c-bar = 1, so the eigenvalues are +-1
        assert M[0][1] * M[1][0] == one
        return [one, CyclotomicNumber.rational(-1)]
    w = (M[0][0] * line[0] + M[0][1] * line[1], M[1][0] * line[0] + M[1][1] * line[1])
    if w[0] != w[1] * line[0]:
        raise LocalDataError("Frobenius does not preserve the invariant line")
    return [w[1]]


def spectrum(fn, char, place):
    """Eigenvalues with their conductors, or the error raised."""
    try:
        return [(lam.m, lam.coeffs) for lam in fn(char, place)]
    except LocalDataError:
        return LocalDataError


def places(group, n_gens):
    """Places with n_gens distinct nontrivial inertia generators: with every
    Frobenius for one generator, so that the guard against a Frobenius that
    moves the invariant line is reached, and with every Frobenius that
    normalizes the inertia subgroup for two."""
    elements = list(group.elements())
    for gens in combinations(elements[1:], n_gens):
        subgroup = {group.identity}
        while True:
            grown = subgroup | {group.multiply(h, g) for h in subgroup for g in gens}
            if grown == subgroup:
                break
            subgroup = grown
        for frob in elements:
            if n_gens == 1 or all(conjugate(group, frob, g) in subgroup for g in gens):
                yield LocalPlace(q=5, a=2, inertia=gens, frobenius=frob)


@pytest.mark.parametrize("p, factors, n_gens", [
    (3, [3], 1), (5, [5], 1), (7, [7], 1), (3, [9], 1), (3, [3, 3], 1), (3, [3, 3], 2),
])
def test_eigenvalues_match_the_matrix_realization(p, factors, n_gens):
    group = DihedralGroup(p, factors)
    chars = irreducible_characters(group)
    outcomes = set()
    for place in places(group, n_gens):
        for char in chars:
            got = spectrum(frobenius_eigenvalues, char, place)
            assert got == spectrum(matrix_eigenvalues, char, place), (char.label, place)
            outcomes.add(got if got is LocalDataError else len(got))
    assert {0, 1} <= outcomes
    assert n_gens == 2 or LocalDataError in outcomes


def test_empty_spectrum_gives_unit_correction():
    v = place_31(7, -1)
    corr = local_correction(IND3, v)
    assert corr.u == CyclotomicNumber.rational(1) and corr.t == 1


def test_u_is_sign_for_these_groups():
    for q, a in SAMPLE_QA:
        for mk in (place_21, place_31, place_32):
            for char in (TRIV3, EPS3, IND3):
                u = local_correction(char, mk(q, a)).u
                assert u.rational_part() in (1, -1)


# ---------------------------------------------------------------------------
# global products on the two bundled configurations
# ---------------------------------------------------------------------------

def test_global_correction_37a1_shape():
    triv = Character.from_label(G7, "triv")
    eps = Character.from_label(G7, "eps")
    ind = Character.from_label(G7, "ind:1")
    v577 = parse_local_place(G7, 577, 0, ["t"], "1")
    g = global_correction(triv, [v577])
    assert (g.u.rational_part(), g.t) == (-1, Fraction(578, 577))
    g = global_correction(eps, [v577])
    assert (g.u.rational_part(), g.t) == (1, Fraction(1))
    g = global_correction(ind, [v577])
    assert (g.u.rational_part(), g.t) == (-1, Fraction(578, 577))


def test_global_correction_21a1_shape():
    G5 = DihedralGroup(5, [5])
    triv = Character.from_label(G5, "triv")
    eps = Character.from_label(G5, "eps")
    ind = Character.from_label(G5, "ind:1")
    v2 = parse_local_place(G5, 2, -1, ["t"], "1")
    v19 = parse_local_place(G5, 19, 4, ["s1"], "t")
    places = [v2, v19]
    g = global_correction(triv, places)
    assert (g.u.rational_part(), g.t) == (1, Fraction(32, 19))
    g = global_correction(eps, places)
    assert (g.u.rational_part(), g.t) == (1, Fraction(24, 19))
    g = global_correction(ind, places)
    assert (g.u.rational_part(), g.t) == (-1, Fraction(2))
    # the combined factor that turns the truncated 48 into -96
    assert g.u.rational_part() * g.t == -2


# ---------------------------------------------------------------------------
# quadratic point counts
# ---------------------------------------------------------------------------

def gf49_count(a4, a6):
    """Brute-force count of y^2 = x^3 + a4*x + a6 over GF(49) = GF(7)[i]."""

    def mul(x, y):
        return ((x[0] * y[0] - x[1] * y[1]) % 7, (x[0] * y[1] + x[1] * y[0]) % 7)

    def add(x, y):
        return ((x[0] + y[0]) % 7, (x[1] + y[1]) % 7)

    def power(x, n):
        acc = (1, 0)
        while n:
            if n & 1:
                acc = mul(acc, x)
            x = mul(x, x)
            n >>= 1
        return acc

    count = 1  # point at infinity
    for u in range(7):
        for v in range(7):
            x = (u, v)
            fx = add(add(mul(mul(x, x), x), mul((a4 % 7, 0), x)), (a6 % 7, 0))
            if fx == (0, 0):
                count += 1
            elif power(fx, 24) == (1, 0):  # quadratic residue test
                count += 2
    return count


def test_point_count_against_brute_force():
    # find a short Weierstrass curve over GF(7) with 5 points
    found = None
    for a4 in range(7):
        for a6 in range(7):
            if (4 * a4 ** 3 + 27 * a6 ** 2) % 7 == 0:
                continue
            pts = 1 + sum(1 if (x ** 3 + a4 * x + a6) % 7 == 0
                          else 2 if pow((x ** 3 + a4 * x + a6) % 7, 3, 7) == 1
                          else 0
                          for x in range(7))
            if pts == 5:
                found = (a4, a6)
                break
        if found:
            break
    assert found is not None
    assert quadratic_point_count(5, 7) == 55
    assert gf49_count(*found) == 55


def test_point_count_known_values():
    assert quadratic_point_count(16, 19) == 384
    for q in (3, 5, 7, 11, 13):
        assert quadratic_point_count(q + 1, q) == (q + 1) ** 2


@given(st.integers(min_value=2, max_value=100).filter(lambda q: q % 3 == 2))
@settings(max_examples=99)
def test_nw_residue_when_inert(q):
    # q = -1 mod 3 makes N_w = -N_v^2 mod 3, so N_w = -1 once 3 misses N_v
    for n in hasse_range(q):
        nw = quadratic_point_count(n, q)
        assert nw % 3 == (-(n * n)) % 3
        if n % 3 != 0:
            assert nw % 3 == 2


# ---------------------------------------------------------------------------
# discriminant factors and validation
# ---------------------------------------------------------------------------

def test_discriminant_factors():
    assert discriminant_factor(TRIV3, 1, 577) == 1
    assert discriminant_factor(EPS3, 1, 577) == 577
    assert discriminant_factor(IND3, 1, 577) == 577
    assert discriminant_factor(EPS3, 1, 4) == 4
    assert discriminant_factor(IND3, 1, 4, conductor_norm=1444 ** 2) == 4 * 1444 ** 2


def test_place_validation():
    with pytest.raises(LocalDataError):
        LocalPlace(q=7, a=6, inertia=(), frobenius=S3.identity)
    with pytest.raises(LocalDataError):
        LocalPlace(q=1, a=0, inertia=(), frobenius=S3.identity)
    with pytest.raises(LocalDataError):
        parse_local_place(S3, 5, 1, ["1"], "t")
    # a reflection inertia subgroup is not normalized by a rotation Frobenius
    with pytest.raises(LocalDataError):
        parse_local_place(G7, 5, 1, ["t"], "s1")
    # but it is normalized by the identity and by itself
    parse_local_place(G7, 5, 1, ["t"], "1")
    parse_local_place(G7, 5, 1, ["t"], "t")


def conjugate(group, frob, g):
    """frob * g * frob^-1."""
    return group.multiply(group.multiply(frob, g), group.inverse(frob))


def bfs_normalizes(group, gens, frob):
    """The breadth-first closure of <gens> over every generator and its
    inverse, kept as an oracle: True when frob conjugates each generator
    into it."""
    identity = group.identity
    subgroup, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                for cand in (group.multiply(h, g), group.multiply(h, group.inverse(g))):
                    if cand not in subgroup:
                        subgroup.add(cand)
                        nxt.append(cand)
        frontier = nxt
    return all(conjugate(group, frob, g) in subgroup for g in gens)


@pytest.mark.parametrize("p, factors", [(3, [9, 3]), (5, [25]), (3, [27])])
def test_inertia_closure_matches_the_breadth_first_oracle(p, factors):
    group = DihedralGroup(p, factors)
    rng = random.Random(f"inertia:{factors}")
    nontrivial = [g for g in group.elements() if g != group.identity]
    outcomes = set()
    for _ in range(150):
        gens = [rng.choice(nontrivial) for _ in range(rng.randrange(1, 5))]
        gens += rng.sample(gens, rng.randrange(len(gens) + 1))   # repeats
        frob = rng.choice(nontrivial)
        # a normalizing Frobenius may still give an irrational t-factor
        try:
            parse_local_place(group, 5, 1, [group.format_element(g) for g in gens],
                              group.format_element(frob))
            accepted = True
        except LocalDataError as e:
            accepted = "does not normalize" not in str(e)
        assert accepted == bfs_normalizes(group, gens, frob), (gens, frob)
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_repeated_inertia_generators_parse_quickly():
    # 1000 copies of s1 in D_1458 once took 6.1 s, one closure per copy
    group = DihedralGroup(3, [729])
    start = time.perf_counter()
    place = parse_local_place(group, 5, 1, ["s1"] * 1000, "t")
    assert time.perf_counter() - start < 0.5
    assert len(place.inertia) == 1000
