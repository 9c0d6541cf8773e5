"""Dihedral groups, characters, the group ring, and the two lattice-membership
decisions."""
import itertools
import random
import time
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_dataset import gen_module

from twistcong.dataset import parse_dataset
from twistcong.engine import CharacterResult, congruence_lines, unit_and_equivariance, verify
from twistcong.exact import (
    CyclotomicNumber, UnsupportedConductorError, cyclotomic_field, euler_phi, p_valuation,
)
from twistcong.groups import (
    Character, DihedralGroup, GroupError, IntegralityReport, NotEquivariantError,
    center_integrality, character_orbits, character_sums, dihedral_group, irreducible_characters,
    kolyvagin_identity, orbit_units, res_map, zp_P_membership,
)
from twistcong.heights import character_heights

G7 = DihedralGroup(7, [7])
G5 = DihedralGroup(5, [5])
G33 = DihedralGroup(3, [3, 3])
# group shapes for the character table and the character sums
SUM_SHAPES = [(3, [3]), (5, [5]), (7, [7]), (11, [11]), (3, [9]), (5, [25]),
              (3, [27]), (3, [3, 3]), (3, [9, 3])]


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def test_group_shapes():
    assert G7.order == 14 and G7.p_order == 7 and G7.is_cyclic()
    assert G33.order == 18 and G33.p_order == 9 and not G33.is_cyclic()
    assert G33.exponent == 3
    with pytest.raises(GroupError):
        DihedralGroup(4, [4])
    with pytest.raises(GroupError):
        DihedralGroup(7, [5])  # factor must be a power of p


def test_reject_composite_p_without_small_factors():
    # trial division below 10^4 once accepted 10007 * 10009
    p = 10007 * 10009
    with pytest.raises(GroupError, match="not prime"):
        DihedralGroup(p, [p])


def test_accept_large_prime_p():
    assert DihedralGroup(10007, [10007]).p_order == 10007


def test_element_algebra():
    s = G7.element((1,))
    t = G7.element((0,), 1)
    st = G7.multiply(s, t)
    assert G7.multiply(t, t) == G7.identity
    assert G7.multiply(st, st) == G7.identity       # reflections are involutions
    assert G7.multiply(t, s) == G7.multiply(G7.inverse(s), t)


def test_format_parse_roundtrip():
    for g in G7.elements():
        assert G7.parse_element(G7.format_element(g)) == g
    for g in G33.elements():
        assert G33.parse_element(G33.format_element(g)) == g
    assert G7.parse_element("1") == G7.identity
    assert G7.parse_element("e") == G7.identity
    with pytest.raises(GroupError):
        G7.parse_element("s2")  # only one rotation generator here


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_label_table_is_every_element_by_its_label(p, factors):
    """The table lists the rotations, then the reflections, each in
    lexicographic rot order, keyed by format_element; each key parses back to
    its element, and inverse_rots follows the rotations."""
    group = DihedralGroup(p, factors)
    rots = list(itertools.product(*(range(f) for f in factors)))
    want = [group.element(rot, flip) for flip in (0, 1) for rot in rots]
    assert list(group.element_labels.values()) == want == list(group.elements())
    assert list(group.p_elements()) == want[:group.p_order]
    for label, g in group.element_labels.items():
        assert label == group.format_element(g)
        assert group.parse_element(label) == g
    assert list(group.inverse_rots()) == [group.inverse(g).rot for g in group.p_elements()]


def test_element_reduces_its_rotation():
    assert G7.element((9,), 3) == G7.element((2,), 1) == G7.parse_element("s1^9*t*t*t")
    assert G33.element((-1, 4)) == G33.element_labels["s1^2*s2"]
    assert G7.inverse(G7.element((3,))) == G7.element((4,))
    assert G33.multiply(G33.element((1, 2), 1), G33.element((2, 2))) == G33.element((2, 0), 1)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_character_count_and_degrees():
    chars7 = irreducible_characters(G7)
    assert [c.kind for c in chars7].count("ind") == 3
    assert sum(c.degree ** 2 for c in chars7) == G7.order
    chars33 = irreducible_characters(G33)
    assert [c.kind for c in chars33].count("ind") == 4
    assert sum(c.degree ** 2 for c in chars33) == G33.order


@pytest.mark.parametrize("group", [G5, G7, G33])
def test_orthogonality(group):
    chars = irreducible_characters(group)
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            acc = CyclotomicNumber.rational(0)
            for g in group.elements():
                acc = acc + ci.value(g) * cj.value(group.inverse(g))
            assert acc == CyclotomicNumber.rational(group.order if i == j else 0)


def test_induced_character_values():
    psi = Character.from_label(G5, "ind:1")
    assert psi.degree == 2
    s = G5.element((1,))
    assert psi.value(s) == CyclotomicNumber.zeta_power(5, 1) + CyclotomicNumber.zeta_power(5, 4)
    assert psi.value(G5.element((0,), 1)).is_zero()
    assert psi.value(G5.identity) == CyclotomicNumber.rational(2)


def test_from_label_reads_the_table_alone():
    # "ind:7" and "ind:3" name ind:2 only after reduction and pairing, "ind:5"
    # the trivial chi; the table holds canonical labels alone
    for label in ("ind:7", "ind:3", "ind:5"):
        with pytest.raises(GroupError, match="bad character label"):
            Character.from_label(G5, label)
    for c in irreducible_characters(G5):
        assert Character.from_label(G5, c.label) is c


def test_character_labels_roundtrip():
    for group in (G7, G33):
        for c in irreducible_characters(group):
            assert Character.from_label(group, c.label).label == c.label


def reference_label(group, avec):
    """The label of the character induced from chi_avec, formatted as labels
    once were: from the lexicographically smaller of chi and chi-bar."""
    inverse = tuple(-a % f for a, f in zip(avec, group.cyclic_factors))
    return "ind:" + ",".join(map(str, min(tuple(avec), inverse)))


def reference_galois_label(group, label, a):
    """galois_label as first written: an induced label is parsed back into its
    chi vector, moved by a and formatted again."""
    if not label.startswith("ind:"):
        return label
    chi = tuple(int(c) for c in label[4:].split(","))
    return reference_label(group, group.galois_on_chi(chi, a))


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_character_table_matches_the_label_parsing_reference(p, factors):
    group = DihedralGroup(p, factors)
    nontrivial = [v for v in group.chi_vectors() if any(v)]
    labels = ["triv", "eps"] + [reference_label(group, v) for v in nontrivial
                                if reference_label(group, v) == "ind:" + ",".join(map(str, v))]
    assert [c.label for c in irreducible_characters(group)] == labels
    units = group.galois_unit_reps()
    for label in labels:
        assert Character.from_label(group, label).label == label
        for a in units:
            assert group.galois_label(label, a) == reference_galois_label(group, label, a)
    # each orbit lists its members in the order of the units that first reach them
    for orbit, first_units in zip(character_orbits(group), orbit_units(group)):
        reached = {}
        for a in units:
            reached.setdefault(reference_galois_label(group, orbit[0].label, a), a)
        assert [c.label for c in orbit] == list(reached)
        assert first_units == tuple(reached.values())
    # res_map reads each nontrivial chi at the label of its induced character
    values = {label: CyclotomicNumber.rational(i + 2) for i, label in enumerate(labels)}
    evals = res_map(values, group)
    assert list(evals) == list(group.chi_vectors())
    assert evals[(0,) * len(factors)] == CyclotomicNumber.rational(6)
    for v in nontrivial:
        assert evals[v] is values[reference_label(group, v)]


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_chi_exponents_match_chi_exponent(p, factors):
    group = DihedralGroup(p, factors)
    for avec in group.chi_vectors():
        assert group.chi_exponents(avec) == [group.chi_exponent(avec, pi)
                                             for pi in group.p_elements()]


def test_galois_orbits_partition():
    orbits = character_orbits(G7)[2:]
    labels = sorted(c.label for orbit in orbits for c in orbit)
    assert labels == sorted(c.label for c in irreducible_characters(G7)
                            if c.kind == "ind")
    # p = 7: the three induced characters form one orbit
    assert len(orbits) == 1 and len(orbits[0]) == 3
    # p = 5: units {1,2,3,4} mod +-1 give one orbit of the two pairs
    orbits5 = character_orbits(G5)[2:]
    assert len(orbits5) == 1 and len(orbits5[0]) == 2


def induced_orbits_oracle(group):
    """The induced orbits as first built: each new induced character in
    lexicographic order, its images listed in the order of the units."""
    orbits, seen = [], set()
    for c in irreducible_characters(group):
        if c.kind != "ind" or c.label in seen:
            continue
        orbit = []
        for a in group.galois_unit_reps():
            img = Character.from_label(group, group.galois_label(c.label, a))
            if img.label not in {o.label for o in orbit}:
                orbit.append(img)
        seen.update(o.label for o in orbit)
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("group", [G5, G7, G33])
def test_character_orbits_cover_every_character_once(group):
    orbits = character_orbits(group)
    assert [o[0].label for o in orbits[:2]] == ["triv", "eps"]
    assert orbits[2:] == induced_orbits_oracle(group)
    labels = [c.label for orbit in orbits for c in orbit]
    assert sorted(labels) == sorted(c.label for c in irreducible_characters(group))


def test_stabilizer_fixes_character():
    for c in irreducible_characters(G33):
        if c.kind != "ind":
            continue
        for a in c.stabilizer_units():
            img = Character.from_label(G33, G33.galois_label(c.label, a))
            assert img is c


def test_character_tables_are_fresh_copies_of_one_table_per_group():
    group = DihedralGroup(5, [5, 5])
    chars, orbits = irreducible_characters(group), character_orbits(group)
    labels = [c.label for c in chars]
    orbit_labels = [[c.label for c in orbit] for orbit in orbits]
    chars.append(chars[0])
    chars.pop(2)
    orbits[2].append(chars[0])
    orbits[3].clear()
    orbits.pop()
    assert [c.label for c in irreducible_characters(group)] == labels
    assert [[c.label for c in orbit] for orbit in character_orbits(group)] == orbit_labels
    # characters compare by group identity, so no table is shared across groups
    twin = DihedralGroup(5, [5, 5])
    assert all(c.group is twin for c in irreducible_characters(twin))
    assert all(c.group is twin for orbit in character_orbits(twin) for c in orbit)
    assert irreducible_characters(twin) != irreducible_characters(group)


def test_dihedral_group_builds_each_shape_once():
    group = dihedral_group(5, (5, 5))
    assert dihedral_group(5, (5, 5)) is group
    assert dihedral_group(5, (25,)) is not group
    assert DihedralGroup(5, [5, 5]) is not group
    assert all(c.group is group for c in irreducible_characters(dihedral_group(5, (5, 5))))


@pytest.mark.parametrize("p, factors", [(9, (9,)), (5, (0,)), (7, (5,))])
def test_dihedral_group_rejects_a_shape_on_every_call(p, factors):
    messages = []
    for _ in range(2):
        with pytest.raises(GroupError) as excinfo:
            dihedral_group(p, factors)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_shape_tables_match_their_references(p, factors):
    """The tables a group builds on first use: one exponent row per induced
    orbit and the images of every chi and label under the field generator."""
    group = DihedralGroup(p, factors)
    g = cyclotomic_field(group.exponent).generator
    assert group.orbit_exponents == tuple(
        tuple(group.chi_exponent(orbit[0].chi, pi) for pi in group.p_elements())
        for orbit, _ in group.character_table.orbits[2:])
    assert dict(group.chi_images) == {
        chi: tuple(g * c % f for c, f in zip(chi, factors)) for chi in group.chi_vectors()}
    assert dict(group.label_images) == {
        label: reference_galois_label(group, label, g) for label in group.character_table.by_label}


def table_entries(table) -> int:
    """A mapping's length; a tuple's, or its members' entries when they are tables."""
    if isinstance(table, Mapping):
        return len(table)
    if any(isinstance(x, (tuple, Mapping)) for x in table):
        return sum(map(table_entries, table))
    return len(table)


@pytest.mark.parametrize("factors", [[343], [49, 7], [7, 7, 7]])
def test_an_interned_group_keeps_tables_of_bounded_size(factors):
    """After a parse and a verify at |P| = 343, with the heights and the center
    test on top, the group's tables hold O(|G| + |P| #orbits) entries: no
    exponent row per character and no image per (label, unit) pair."""
    ds = parse_dataset(gen_module().gz_input((7, factors), random.Random(1))["doc"])
    group = ds.group
    result = verify(ds)
    character_heights(group, ds.heights.translates)
    center_integrality({label: r.q_value for label, r in result.characters.items()}, group)
    assert {"orbit_exponents", "chi_images", "label_images"} <= set(vars(group))
    entries = sum(table_entries(x) for x in vars(group).values() if isinstance(x, (tuple, Mapping)))
    table = group.character_table
    assert entries <= 4 * group.order + group.p_order * len(table.orbits)
    assert entries < group.p_order * len(table.by_label)


# ---------------------------------------------------------------------------
# the group-ring identity behind the descent argument
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", list(range(3, 26, 2)))
def test_kolyvagin_identity(m):
    assert kolyvagin_identity(m)


def test_kolyvagin_identity_rejects_even():
    with pytest.raises(GroupError):
        kolyvagin_identity(4)


# ---------------------------------------------------------------------------
# membership in Z_p[P]: compare with a brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_member(coeffs, group):
    """Build the character vector of sum c_pi * pi directly."""
    evals = {}
    for avec in group.chi_vectors():
        acc = CyclotomicNumber.rational(0)
        for pi, c in zip(group.p_elements(), coeffs):
            acc = acc + c * group.chi_value(avec, pi)
        evals[avec] = acc
    return evals


@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=10),
                min_size=7, max_size=7))
@settings(max_examples=120)
def test_membership_matches_denominators(cs):
    evals = brute_force_member(cs, G7)
    report = zp_P_membership(character_sums(evals, G7), G7)
    expect = all(c.denominator % 7 != 0 for c in cs)
    assert report.ok == expect
    if report.ok:
        got = [report.coefficients[pi.rot] for pi in G7.p_elements()]
        assert got == list(cs)


def test_membership_oracle_random_sampling():
    rng = random.Random(20260823)
    agree = 0
    for _ in range(1000):
        cs = [Fraction(rng.randrange(-27, 28), rng.choice([1, 1, 1, 2, 3, 9]))
              for _ in range(3)]
        group = DihedralGroup(3, [3])
        evals = brute_force_member(cs, group)
        report = zp_P_membership(character_sums(evals, group), group)
        expect = all(c.denominator % 3 != 0 for c in cs)
        assert report.ok == expect
        agree += 1
    assert agree == 1000


def test_membership_rejects_non_equivariant():
    z = CyclotomicNumber.zeta_power(7, 1)
    evals = brute_force_member([Fraction(1)] * 7, G7)
    evals[(1,)] = evals[(1,)] + z          # break equivariance at one chi
    with pytest.raises(NotEquivariantError) as raised:
        character_sums(evals, G7)
    a, chi = scan_membership_equivariance(evals, G7)
    assert (raised.value.a, raised.value.chi) == (a, chi)
    assert str(raised.value) == f"not Galois-equivariant at chi={chi}, a={a}"


def test_membership_non_cyclic():
    cs = [Fraction(k % 4 - 1) for k in range(9)]
    evals = brute_force_member(cs, G33)
    assert zp_P_membership(character_sums(evals, G33), G33).ok
    bad = [Fraction(1, 3)] + cs[1:]
    bad_evals = brute_force_member(bad, G33)
    assert not zp_P_membership(character_sums(bad_evals, G33), G33).ok


# ---------------------------------------------------------------------------
# the character sums S(pi) against oracles that do not share their code path
# ---------------------------------------------------------------------------

def random_fraction(rng):
    return Fraction(rng.randrange(-60, 61), rng.choice([1, 1, 2, 3, 5, 7, 9, 25]))


def per_formulation_sum(group, q_values, pi):
    """S(pi) as one congruence line: Q(triv)Q(eps) plus one term per
    nontrivial chi, looked up by the label of its induced character."""
    acc = q_values["triv"] * q_values["eps"]
    for avec in group.chi_vectors():
        if any(avec):
            chi = group.chi_value(avec, group.inverse(pi))
            acc = acc + chi * q_values[reference_label(group, avec)]
    return acc


def random_equivariant_q(group, rng, rational=True):
    """A Q-vector with sigma_a(Q(psi)) = Q(psi^a): per induced orbit one value
    fixed by the stabilizer of its first member, moved along the orbit."""
    q = {"triv": CyclotomicNumber.rational(random_fraction(rng)),
         "eps": CyclotomicNumber.rational(random_fraction(rng))}
    e = group.exponent
    for orbit in character_orbits(group)[2:]:
        first = orbit[0]
        if rational:
            x = CyclotomicNumber.rational(random_fraction(rng))
        else:
            y = CyclotomicNumber(e, [random_fraction(rng) for _ in range(euler_phi(e))])
            x = CyclotomicNumber.rational(0)
            for s in first.stabilizer_units():
                x = x + y.galois_apply(s)
        for a in group.galois_unit_reps():
            q[group.galois_label(first.label, a)] = x.galois_apply(a)
    return q


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_character_sums_invert_the_forward_transform(p, factors):
    group = DihedralGroup(p, factors)
    rng = random.Random(f"sums:{factors}")
    cs = [random_fraction(rng) for _ in range(group.p_order)]
    sums = character_sums(brute_force_member(cs, group), group)
    assert len(sums) == group.p_order
    for pi, c in zip(group.p_elements(), cs):
        assert sums[pi.rot] == CyclotomicNumber.rational(group.p_order * c)


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_congruence_lines_match_membership_coefficients(p, factors):
    group = DihedralGroup(p, factors)
    rng = random.Random(f"lines:{factors}")
    q = random_equivariant_q(group, rng)
    evals = res_map(q, group)
    sums = character_sums(evals, group)
    lines = congruence_lines(group, sums, 1)
    report = zp_P_membership(sums, group)
    base = (q["triv"] * q["eps"]).rational_part()
    assert sum(line.value for line in lines) == group.p_order * base
    for pi, line in zip(group.p_elements(), lines):
        assert line.element == group.format_element(pi)
        assert line.value == group.p_order * report.coefficients[pi.rot]
        assert per_formulation_sum(group, q, pi) == CyclotomicNumber.rational(line.value)


@pytest.mark.parametrize("p, factors", [(5, [5]), (7, [7]), (3, [9]), (5, [5, 5])])
def test_irrational_equivariant_q_gives_rational_sums(p, factors):
    group = DihedralGroup(p, factors)
    q = random_equivariant_q(group, random.Random(f"irrational:{factors}"), rational=False)
    assert any(not v.is_rational() for v in q.values())
    evals = res_map(q, group)
    sums = character_sums(evals, group)
    lines = congruence_lines(group, sums, 1)
    report = zp_P_membership(sums, group)
    assert not any("equivariant" in f for f in report.failures)
    for pi, line in zip(group.p_elements(), lines):
        assert line.value == group.p_order * report.coefficients[pi.rot]
        assert per_formulation_sum(group, q, pi) == CyclotomicNumber.rational(line.value)


def direct_character_sums(evals, group):
    """S(pi) as the plain double loop of cyclotomic products chi(pi^-1) E_chi."""
    sums = {}
    for pi in group.p_elements():
        pi_inv = group.inverse(pi)
        acc = CyclotomicNumber.rational(0)
        for avec in group.chi_vectors():
            acc = acc + group.chi_value(avec, pi_inv) * evals[avec]
        sums[pi.rot] = acc
    return sums


def sums_match_the_direct_loop(evals, group):
    """character_sums raises exactly when the direct loop has an irrational
    S(pi), at the scan oracle's first failure; otherwise the two agree, the
    sums as Fractions. Returns whether it raised."""
    want = direct_character_sums(evals, group)
    if all(v.is_rational() for v in want.values()):
        got = character_sums(evals, group)
        assert all(type(v) is Fraction for v in got.values())
        assert got == {rot: v.rational_part() for rot, v in want.items()}
        return False
    with pytest.raises(NotEquivariantError) as raised:
        character_sums(evals, group)
    assert (raised.value.a, raised.value.chi) == scan_membership_equivariance(evals, group)
    return True


def random_entry(group, rng, kind):
    """Zero (kind 0), a rational of conductor 1 (kind 1) or an element of
    Q(zeta_e) (kind 2), with denominators of several primes including p."""
    if kind == 0:
        return CyclotomicNumber.rational(0)
    if kind == 1:
        return CyclotomicNumber.rational(random_fraction(rng))
    dens = [1, 2, 3, 7, 11, group.p, group.p ** 2]
    return CyclotomicNumber(group.exponent, [Fraction(rng.randrange(-40, 41), rng.choice(dens))
                                             for _ in range(euler_phi(group.exponent))])


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_character_sums_match_the_direct_loop_on_arbitrary_vectors(p, factors):
    group = DihedralGroup(p, factors)
    rng = random.Random(f"arbitrary:{factors}")
    for _ in range(2):
        kinds = [0, 1, 2] + [rng.randrange(3) for _ in range(group.p_order - 3)]
        rng.shuffle(kinds)
        evals = {avec: random_entry(group, rng, kind)
                 for avec, kind in zip(group.chi_vectors(), kinds)}
        sums_match_the_direct_loop(evals, group)


def test_character_sums_reject_a_foreign_conductor():
    evals = {avec: CyclotomicNumber.rational(1) for avec in G5.chi_vectors()}
    evals[(2,)] = CyclotomicNumber.zeta_power(7, 1)
    for sums in (character_sums, direct_character_sums):
        with pytest.raises(UnsupportedConductorError):
            sums(evals, G5)


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
@pytest.mark.parametrize("rational", [True, False])
def test_character_sums_match_the_direct_loop_on_equivariant_vectors(p, factors, rational):
    """The orbit traces against the plain double loop, then the same vector
    with one entry moved (not equivariant: rejected at its first failure) and
    with one entry at a foreign conductor (rejected)."""
    group = DihedralGroup(p, factors)
    rng = random.Random(f"equivariant:{factors}:{rational}")
    evals = res_map(random_equivariant_q(group, rng, rational=rational), group)
    assert not sums_match_the_direct_loop(evals, group)
    avec = rng.choice(list(group.chi_vectors())[1:])
    moved = dict(evals)
    moved[avec] = moved[avec] + CyclotomicNumber.zeta_power(group.exponent, 1)
    assert sums_match_the_direct_loop(moved, group)
    foreign = dict(evals)
    foreign[avec] = CyclotomicNumber.zeta_power(7 if p == 5 else 5, 1)
    with pytest.raises(UnsupportedConductorError):
        character_sums(foreign, group)


@pytest.mark.parametrize("p, factors", [(11, [121]), (5, [125]), (11, [11, 11]), (3, [729]),
                                        (997, [997]), (7, [49, 7])])
def test_constant_q_vector_on_large_groups(p, factors):
    """Q(triv) = Q(ind) = C and Q(eps) = 1 give S(1) = |P| C and S(pi) = 0
    otherwise; shapes beyond the benchmark's towers."""
    group = DihedralGroup(p, factors)
    C = Fraction(2 * p + 1, p + 2)
    q = {c.label: CyclotomicNumber.rational(1 if c.kind == "eps" else C)
         for c in irreducible_characters(group)}
    evals = res_map(q, group)
    sums = character_sums(evals, group)
    lines = congruence_lines(group, sums, group.n)
    assert [line.value for line in lines] == [group.p_order * C] + [0] * (group.p_order - 1)
    assert all(line.ok for line in lines)
    assert zp_P_membership(sums, group).ok


def test_character_sums_at_order_997_are_fast():
    """The constant gz vector at |P| = 997: two orbit traces, not 997 shifted
    copies of 997 values."""
    group = DihedralGroup(997, [997])
    q = {c.label: CyclotomicNumber.rational(1 if c.kind == "eps" else Fraction(3, 5))
         for c in irreducible_characters(group)}
    evals = res_map(q, group)
    start = time.perf_counter()
    sums = character_sums(evals, group)
    elapsed = time.perf_counter() - start
    assert sums[(0,)] == Fraction(3 * 997, 5)
    assert all(v == 0 for rot, v in sums.items() if rot != (0,))
    assert elapsed < 0.1, f"character_sums took {elapsed:.2f} s at |P| = 997"


# ---------------------------------------------------------------------------
# Galois equivariance by one generator against the scan over every unit
# ---------------------------------------------------------------------------

def scan_membership_equivariance(evals, group):
    """The first (a, chi) with sigma_a(E_chi) != E_(a chi), as the scan over
    every unit a of (Z/e)^* finds it, or None."""
    for a in group.galois_unit_reps():
        for avec in group.chi_vectors():
            img = group.galois_on_chi(avec, a)
            lhs = evals[avec].galois_apply(a) if evals[avec].m != 1 else evals[avec]
            if lhs != evals[img]:
                return a, avec
    return None


def scan_unit_and_equivariance(group, results):
    """unit_and_equivariance as the scan over every unit a of (Z/e)^*."""
    notes = []
    unit_ok = True
    for label, res in results.items():
        if res.q_value.is_zero():
            unit_ok = False
            notes.append(f"Q({label}) = 0")
            continue
        if res.p_valuation != 0:
            unit_ok = False
            notes.append(f"Q({label}) has valuation {res.p_valuation}, not a p-unit")
    eq_ok = True
    by_label = {c.label: c for c in irreducible_characters(group)}
    units = group.galois_unit_reps()
    image = {a: {label: reference_galois_label(group, label, a) for label in by_label}
             for a in units}
    for label, res in results.items():
        if by_label[label].kind != "ind" or res.q_value.m == 1:
            continue
        for a in units:
            if image[a][label] == label and res.q_value.galois_apply(a) != res.q_value:
                eq_ok = False
                notes.append(f"Q({label}) not fixed by its stabilizer")
                break
    for a in units:
        for label, res in results.items():
            img = image[a][label]
            lhs = (res.q_value.galois_apply(a) if res.q_value.m != 1
                   else res.q_value)
            if lhs != results[img].q_value:
                eq_ok = False
                notes.append(f"sigma_{a}(Q({label})) != Q({img})")
                break
        else:
            continue
        break
    return unit_ok, eq_ok, notes


def as_results(group, q):
    return {label: CharacterResult(
        label=label, route="gz", declared_order=0, q_value=v, correction=None,
        recognized=v, min_poly=None,
        p_valuation=Fraction(0) if v.is_zero() else p_valuation(v, group.p))
        for label, v in q.items()}


def equivariance_cases(group, rng):
    """Equivariant Q-vectors, rational and irrational, with rationals at
    conductor 1 or e; each also with one entry moved by a rational or by
    zeta_e, which no stabilizer of an induced character fixes."""
    e = group.exponent
    labels = [c.label for c in irreducible_characters(group)]
    for rational in (True, False, False):
        q = random_equivariant_q(group, rng, rational=rational)
        for label in labels:
            if q[label].is_rational() and rng.random() < 0.5:
                q[label] = CyclotomicNumber(e, [q[label].rational_part()])
        yield q
        for shift in (CyclotomicNumber.rational(1), CyclotomicNumber.zeta_power(e, 1)):
            moved = dict(q)
            label = rng.choice(labels[2:])
            moved[label] = moved[label] + shift
            yield moved


def squares_equivariant_q(group, rng):
    """Per induced orbit, y = the sum of sigma_s(z) over the squares s that fix
    its first member psi, and Q(psi^a) = sigma_a(y), walking the squares first
    and the other units after. Equivariant under the squares; under every unit
    only when the stabilizer of psi lies in the squares, that is for p = 1 mod 4,
    for the squares are the index-2 subgroup."""
    e = group.exponent
    units = group.galois_unit_reps()
    squares = sorted({a * a % e for a in units})
    q = {"triv": CyclotomicNumber.rational(random_fraction(rng)),
         "eps": CyclotomicNumber.rational(random_fraction(rng))}
    for orbit in character_orbits(group)[2:]:
        first = orbit[0]
        z = CyclotomicNumber(e, [random_fraction(rng) for _ in range(euler_phi(e))])
        y = CyclotomicNumber.rational(0)
        for s in first.stabilizer_units():
            if s in squares:
                y = y + z.galois_apply(s)
        for a in squares + [a for a in units if a not in squares]:
            q.setdefault(group.galois_label(first.label, a), y.galois_apply(a))
    return q


def membership_equivariance_matches_the_scan(group, evals):
    """character_sums raises at the scan oracle's first failure, and only when
    it finds one; otherwise zp_P_membership notes only p-integrality. Returns
    the oracle's failure."""
    want = scan_membership_equivariance(evals, group)
    if want is not None:
        with pytest.raises(NotEquivariantError) as raised:
            character_sums(evals, group)
        assert (raised.value.a, raised.value.chi) == want
        return want
    report = zp_P_membership(character_sums(evals, group), group)
    assert all(f.endswith("not p-integral") for f in report.failures)
    assert report.ok == (not report.failures)
    return want


def unit_and_equivariance_matches_the_scan(group, q):
    results = as_results(group, q)
    got = unit_and_equivariance(group, results)
    assert got == scan_unit_and_equivariance(group, results)
    return got


@pytest.mark.parametrize("p, factors", SUM_SHAPES)
def test_equivariance_by_one_generator_matches_the_unit_scan(p, factors):
    group = DihedralGroup(p, factors)
    rng = random.Random(f"generator:{factors}")
    verdicts, stabilizer_notes = set(), 0
    for q in equivariance_cases(group, rng):
        _, eq_ok, notes = unit_and_equivariance_matches_the_scan(group, q)
        verdicts.add(eq_ok)
        stabilizer_notes += sum(n.endswith("not fixed by its stabilizer") for n in notes)
        evals = res_map(q, group)
        membership_equivariance_matches_the_scan(group, evals)
        # one entry of the P-vector moved breaks chi against chi-bar
        avec = rng.choice([v for v in group.chi_vectors() if any(v)])
        for shift in (CyclotomicNumber.rational(1),
                      CyclotomicNumber.zeta_power(group.exponent, 1)):
            moved = dict(evals)
            moved[avec] = moved[avec] + shift
            assert membership_equivariance_matches_the_scan(group, moved) is not None
    assert verdicts == {True, False} and stabilizer_notes > 0
    # a unit that is a square does not decide: only the generator does
    q = squares_equivariant_q(group, rng)
    assert unit_and_equivariance_matches_the_scan(group, q)[1] == (p % 4 == 1)
    assert (membership_equivariance_matches_the_scan(group, res_map(q, group)) is None) == \
        (p % 4 == 1)


def scan_center_integrality(values, group):
    """The integrality, stabilizer and equivariance notes of center_integrality
    as the scan over every unit a of (Z/e)^* finds them."""
    chars = irreducible_characters(group)
    units = group.galois_unit_reps()

    def image(c, a):
        return reference_galois_label(group, c.label, a)

    failures = []
    for c in chars:
        v = values[c.label]
        if not v.is_zero() and p_valuation(v, group.p) < 0:
            failures.append(f"A({c.label}) not p-integral")
        for a in units:
            if image(c, a) == c.label and v.galois_apply(a) != v:
                failures.append(f"A({c.label}) not fixed by its stabilizer (a={a})")
                break
    for a in units:
        for c in chars:
            if values[c.label].galois_apply(a) != values[image(c, a)]:
                failures.append(f"eigenvalues not Galois-equivariant at {c.label}, a={a}")
                return failures
    return failures


def center_rotation_notes(values, group):
    """The one note center_integrality gives for every rotation when their
    P-vector, res_map's with (A(triv) + A(eps))/2 at the trivial chi, is not
    Galois-equivariant: the scan oracle's first failure. Empty otherwise."""
    evals = res_map(values, group)
    evals[(0,) * len(group.cyclic_factors)] = (values["triv"] + values["eps"]) * Fraction(1, 2)
    failure = scan_membership_equivariance(evals, group)
    return [] if failure is None else ["not Galois-equivariant at chi={1}, a={0}".format(*failure)]


@pytest.mark.parametrize("p, factors", [(3, [3]), (5, [5]), (7, [7]), (3, [9]), (3, [3, 3])])
def test_center_integrality_by_one_generator_matches_the_unit_scan(p, factors):
    group = DihedralGroup(p, factors)
    rng = random.Random(f"center:{factors}")
    verdicts = set()
    for q in list(equivariance_cases(group, rng)) + [squares_equivariant_q(group, rng)]:
        report = center_integrality(q, group)
        want = scan_center_integrality(q, group) + center_rotation_notes(q, group)
        rest = [f for f in report.failures if f.startswith("central coefficient")]
        assert report.failures == want + rest and report.ok == (not (want + rest))
        verdicts.add(any(f.startswith("eigenvalues not Galois") for f in want))
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# center of Z_p[G]
# ---------------------------------------------------------------------------

def class_sum_row(group, h):
    """Eigenvalues of the class sum of h: |class(h)| * psi(h) / psi(1)."""
    cls = {group.multiply(group.multiply(g, h), group.inverse(g)) for g in group.elements()}
    out = {}
    for c in irreducible_characters(group):
        val = c.value(h)
        out[c.label] = val * Fraction(len(cls), c.degree)
    return out


def dense_center_integrality(values, group):
    """center_integrality with every central coefficient summed over the
    character table, |G|^-1 sum_psi psi(1) psi(g^-1) A(psi) at every g in G.
    When the rotations' P-vector is not Galois-equivariant, its one note
    stands for every rotation, and the table sums show some rotation
    irrational (Fourier inversion)."""
    rotation_notes = center_rotation_notes(values, group)
    failures = scan_center_integrality(values, group) + rotation_notes
    central = {}
    irrational_rotation = False
    for g in group.elements():
        acc = CyclotomicNumber.rational(0)
        for c in irreducible_characters(group):
            acc = acc + c.degree * (c.value(group.inverse(g)) * values[c.label])
        name = group.format_element(g)
        if not g.flip:
            irrational_rotation |= not acc.is_rational()
            if rotation_notes:
                continue
        if not acc.is_rational():
            failures.append(f"central coefficient at {name} not rational")
            continue
        central[name] = coeff = acc.rational_part() / group.order
        if coeff != 0 and p_valuation(coeff, group.p) < 0:
            failures.append(f"central coefficient {coeff} at {name} not p-integral")
    assert irrational_rotation == bool(rotation_notes)
    return IntegralityReport(ok=not failures, central_values=central, failures=failures)


@pytest.mark.parametrize("p, factors", [(3, [3]), (5, [5]), (3, [9]), (5, [25]), (3, [3, 3]),
                                        (3, [9, 3])])
def test_center_integrality_matches_the_dense_table_sum(p, factors):
    group = DihedralGroup(p, factors)
    e = group.exponent
    rng = random.Random(f"dense:{factors}")
    cases = list(equivariance_cases(group, rng))
    # an irrational A(triv) leaves the reflections irrational; A/p is not integral
    irrational = random_equivariant_q(group, rng, rational=False)
    irrational["triv"] = CyclotomicNumber(e, [random_fraction(rng) for _ in range(euler_phi(e))])
    cases += [irrational, {k: v * Fraction(1, p) for k, v in cases[0].items()}]
    kinds = set()
    for q in cases:
        report, want = center_integrality(q, group), dense_center_integrality(q, group)
        assert report == want
        assert list(report.central_values) == list(want.central_values)
        kinds.update(f.rsplit(" ", 1)[1] for f in report.failures
                     if f.startswith("central coefficient"))
    assert kinds == {"rational", "p-integral"}


def test_center_integrality_at_order_121_is_fast():
    group = DihedralGroup(11, [121])
    s = group.element((1,))
    row = class_sum_row(group, s)
    start = time.perf_counter()
    report = center_integrality(row, group)
    elapsed = time.perf_counter() - start
    # the class sum of s is s + s^-1
    assert report.ok and report.failures == []
    assert {g: c for g, c in report.central_values.items() if c} == {"s1": 1, "s1^120": 1}
    assert len(report.central_values) == group.order
    assert elapsed < 1, f"center_integrality took {elapsed:.2f} s at |P| = 121"


def test_center_integrality_class_sum():
    s3 = DihedralGroup(3, [3])
    s = s3.element((1,))
    row = class_sum_row(s3, s)
    # (2, 2, -1): eigenvalues of the rotation class sum
    assert row["triv"] == CyclotomicNumber.rational(2)
    assert row["ind:1"] == CyclotomicNumber.rational(-1)
    assert center_integrality(row, s3).ok
    row_tau = class_sum_row(s3, s3.element((0,), 1))
    assert center_integrality(row_tau, s3).ok


def test_center_integrality_rejects_naive_row():
    s3 = DihedralGroup(3, [3])
    naive = {"triv": CyclotomicNumber.rational(1),
             "eps": CyclotomicNumber.rational(1),
             "ind:1": CyclotomicNumber.rational(-1)}
    report = center_integrality(naive, s3)
    assert not report.ok


def test_center_integrality_rejects_non_integral():
    s3 = DihedralGroup(3, [3])
    row = class_sum_row(s3, s3.element((1,)))
    row["triv"] = CyclotomicNumber.rational(Fraction(2, 3))
    assert not center_integrality(row, s3).ok


# ---------------------------------------------------------------------------
# restriction map
# ---------------------------------------------------------------------------

def test_res_map_structure():
    values = {"triv": CyclotomicNumber.rational(Fraction(-578, 577)),
              "eps": CyclotomicNumber.rational(4),
              "ind:1": CyclotomicNumber.rational(Fraction(-2312, 577)),
              "ind:2": CyclotomicNumber.rational(Fraction(-2312, 577)),
              "ind:3": CyclotomicNumber.rational(Fraction(-2312, 577))}
    evals = res_map(values, G7)
    assert evals[(0,)] == CyclotomicNumber.rational(Fraction(-2312, 577))
    for avec in G7.chi_vectors():
        if avec != (0,):
            assert evals[avec] == CyclotomicNumber.rational(Fraction(-2312, 577))
    report = zp_P_membership(character_sums(evals, G7), G7)
    assert report.ok
    # the Fourier coefficient at the identity recovers S(1)/|P|
    assert report.coefficients[(0,)] == Fraction(-2312, 577)
