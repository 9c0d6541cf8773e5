"""Character contractions of height Gram data, regulators, and period
conventions."""
import random
from fractions import Fraction

import pytest
from test_dataset import bundled_doc

from twistcong.dataset import DatasetError, load_bundled_dataset, parse_dataset
from twistcong.engine import assemble_numeric, height_norm
from twistcong.exact import (
    DecimalWithError, IntervalError, cyclotomic_field, sqrt_rational_approx,
)
from twistcong.groups import Character, DihedralGroup, irreducible_characters
from twistcong.heights import (
    _interval_det, character_heights, field_period, omega_factor,
    pairing_of_combinations, regulator_from_translates,
)

G5 = DihedralGroup(5, [5])

# the minus-part Gram of the quintic example: exact rationals, anti-invariant
# under the involution
GRAM_21 = {"1": Fraction(11, 4), "s1": Fraction(1, 2), "s1^2": Fraction(-1, 4),
           "s1^3": Fraction(-1, 4), "s1^4": Fraction(1, 2)}


def translates_21():
    out = {}
    for name, v in GRAM_21.items():
        g = G5.parse_element(name)
        out[g] = DecimalWithError.exact(v)
        out[G5.multiply(g, G5.element((0,), 1))] = DecimalWithError.exact(-v)
    return out


def translates_doc(group, tr):
    """The bundled quintic document moved onto group, with the translates tr,
    for parse_dataset to check the pairing's symmetry. The quintic's places
    name elements of its own group, so the document keeps no ramified place."""
    doc = bundled_doc("21a1-quintic-19")
    doc["group"] = {"p": group.p, "cyclic_factors": list(group.cyclic_factors)}
    doc["tower"].update(S_r=[], S_r_split=[], conductor_norms={})
    doc["places"] = {}
    doc["analytic"]["characters"] = {
        c.label: {"order": 1, "leading_term": {"value": "1"}, "truncated": False}
        for c in irreducible_characters(group)}
    doc["analytic"]["characters"]["triv"]["order"] = 0
    doc["bsd"] = {}
    doc["heights"]["translates"] = {
        group.format_element(g): {"value": f"{x.value}", "abs_error": f"{x.abs_error}"}
        for g, x in tr.items()}
    return doc


def test_validate_translates_accepts_symmetric():
    parse_dataset(translates_doc(G5, translates_21()))


@pytest.mark.parametrize("p, factors", [(5, [5]), (3, [9, 3]), (5, [25])])
def test_validate_translates_names_the_first_asymmetric_pair(p, factors):
    """Each pair {g, g^-1} is checked once; the message names the element the
    check of every g against its inverse, in group.elements() order, meets first."""
    group = DihedralGroup(p, factors)
    rng = random.Random(f"translates:{factors}")
    tr = {g: DecimalWithError(Fraction(rng.randrange(-99, 100), 7), Fraction(1, 10 ** 9))
          for g in group.elements()}
    for g in group.p_elements():
        tr[group.inverse(g)] = tr[g]
    parse_dataset(translates_doc(group, tr))
    rotations = [g for g in group.p_elements() if g != group.identity]
    for _ in range(10):
        broken = dict(tr)
        for shift, g in enumerate(rng.sample(rotations, 2), 1):
            broken[g] = broken[g] + shift
        first = next(g for g in group.elements()
                     if not broken[g].overlaps(broken[group.inverse(g)]))
        with pytest.raises(DatasetError) as excinfo:
            parse_dataset(translates_doc(group, broken))
        assert str(excinfo.value) == (
            f"heights.translates: translates at {group.format_element(first)} "
            "and its inverse disagree")


def test_validate_translates_rejects_asymmetric():
    # a missing translate is rejected by parse_dataset (tests/test_dataset.py)
    tr = translates_21()
    tr[G5.element((1,))] = DecimalWithError.exact(Fraction(3, 5))  # breaks t(s)=t(s^-1)
    with pytest.raises(DatasetError, match="heights.translates: translates at s1 "):
        parse_dataset(translates_doc(G5, tr))


def test_quadratic_contraction_exact():
    h = character_heights(G5, translates_21())["eps"]
    assert h.abs_error == 0 and h.value == Fraction(13, 4)


def test_trivial_contraction_vanishes_for_minus_part():
    h = character_heights(G5, translates_21())["triv"]
    assert h.contains(0)
    assert h.abs_error < Fraction(1, 10 ** 30)


def test_induced_contractions_are_conjugate_quadratics():
    heights = character_heights(G5, translates_21())
    r5 = sqrt_rational_approx(5, 45)
    h1, h2 = heights["ind:1"], heights["ind:2"]
    assert h1.contains(Fraction(21, 8) + Fraction(3, 8) * r5.value)
    assert h2.contains(Fraction(21, 8) - Fraction(3, 8) * r5.value)
    # sum and product are rational: trace 21/4, norm 99/16
    assert (h1 + h2).contains(Fraction(21, 4))
    assert (h1 * h2).contains(Fraction(99, 16))


def direct_equivariant_height(char, group, translates):
    """h_psi = (1/2) sum_g psi(g) t(g), one interval product per group
    element, an irrational psi(g) = 2cos(2 pi k/e) read from entry k of the
    field's cosine table: the reference for character_heights."""
    c, values, errors = cyclotomic_field(group.exponent).cosines
    acc = DecimalWithError.exact(0)
    for g in group.elements():
        v = char.value(g)
        if v.is_zero():
            continue
        if v.is_rational():
            coeff = DecimalWithError.exact(v.rational_part())
        else:
            k = group.chi_exponent(char.chi, g)
            coeff = DecimalWithError(Fraction(values[k], c), Fraction(errors[k], c))
        acc = acc + coeff * translates[g]
    return acc * Fraction(1, 2)


@pytest.mark.parametrize("p, factors", [(3, [3]), (5, [5]), (7, [7]), (11, [11]), (3, [9]),
                                        (5, [25]), (3, [27]), (3, [3, 3]), (3, [9, 3]),
                                        (5, [5, 5])])
def test_equivariant_height_matches_direct_loop(p, factors):
    group = DihedralGroup(p, factors)
    rng = random.Random(f"heights:{factors}")
    for _ in range(2):
        # arbitrary translates: mixed signs and nonzero error bounds, so a
        # pooled error that used |sum(v)| for sum(|v|) would show
        tr = {g: DecimalWithError(Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 3)),
                                  Fraction(rng.randrange(0, 100), 10 ** rng.randrange(6, 30)))
              for g in group.elements()}
        heights = character_heights(group, tr)
        assert list(heights) == [c.label for c in irreducible_characters(group)]
        for label, got in heights.items():
            want = direct_equivariant_height(Character.from_label(group, label), group, tr)
            assert got.value == want.value, label
            assert got.abs_error == want.abs_error, label


def test_height_factor_pins_generic_character():
    """H_psi is 1 at the generic character (triv on the rank-0 quintic) and
    the table's h_psi elsewhere."""
    ds = load_bundled_dataset("21a1-quintic-19")
    triv, eps = (Character.from_label(ds.group, label) for label in ("triv", "eps"))
    heights = character_heights(ds.group, ds.heights.translates)
    assert ds.curve.rho_label() == "triv"

    def assemble(char, table):
        lead = ds.analytic.characters[char.label].leading_term
        return assemble_numeric(ds, [char], [lead], [height_norm(ds, char.label, table)])[0]

    assert assemble(triv, heights) == assemble(triv, None)
    unit = {"eps": DecimalWithError.exact(1)}
    assert assemble(eps, heights).value == assemble(eps, unit).value / heights["eps"].value


def direct_pairing(group, translates, a, b):
    """The plain double loop, one interval product per coefficient pair: the
    reference for pairing_of_combinations."""
    acc = DecimalWithError.exact(0)
    for g, ca in a.items():
        for h, cb in b.items():
            if ca and cb:
                acc = acc + translates[group.multiply(group.inverse(g), h)] * (ca * cb)
    return acc


@pytest.mark.parametrize("p, factors", [(5, [5]), (3, [9]), (3, [3, 3])])
def test_pairing_matches_double_loop(p, factors):
    """Mixed-sign coefficients that repeat a translate g^-1 h: an error pooled
    from |sum(c)| in place of sum(|c|) would show."""
    group = DihedralGroup(p, factors)
    rng = random.Random(f"pairing:{factors}")
    elements = list(group.elements())
    tr = {g: DecimalWithError(Fraction(rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(1, 50)),
                              Fraction(rng.randrange(1, 100), 10 ** rng.randrange(6, 20)))
          for g in elements}
    for _ in range(10):
        a, b = ({g: Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                 for g in rng.sample(elements, rng.randrange(1, 7))} for _ in range(2))
        got, want = pairing_of_combinations(group, tr, a, b), direct_pairing(group, tr, a, b)
        assert got.value == want.value and got.abs_error == want.abs_error


def fraction_pairing(group, translates, a, b):
    """pairing_of_combinations as it was written over Fractions: the products
    pooled by translate, each pool times t.value and t.abs_error."""
    pools = {}
    for g, ca in a.items():
        for h, cb in b.items():
            if ca and cb:
                pool = pools.setdefault(group.multiply(group.inverse(g), h), [0, 0])
                pool[0] += ca * cb
                pool[1] += abs(ca * cb)
    value = error = Fraction(0)
    for x, (c, c_abs) in pools.items():
        value += translates[x].value * c
        error += translates[x].abs_error * c_abs
    return DecimalWithError(value, error)


@pytest.mark.parametrize("p, factors", [(5, [5]), (7, [7]), (3, [9]), (3, [3, 3])])
def test_integer_pairing_matches_the_fraction_loop(p, factors):
    """Translates with 40-digit denominators and nonzero errors; coefficients
    with zeros, negatives and mixed denominators, some combinations all zero."""
    group = DihedralGroup(p, factors)
    rng = random.Random(f"integer pairing:{factors}")
    elements = list(group.elements())
    tr = {g: DecimalWithError(
        Fraction(rng.randrange(-10 ** 45, 10 ** 45), rng.randrange(1, 10 ** 40)),
        Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 40))) for g in elements}
    coefficients = [Fraction(0), Fraction(-3, 7), Fraction(5, 12), Fraction(-1), Fraction(2),
                    Fraction(9, 4), Fraction(-11, 18)]
    for _ in range(20):
        a, b = ({g: rng.choice(coefficients) for g in rng.sample(elements, rng.randrange(1, 7))}
                for _ in range(2))
        got, want = pairing_of_combinations(group, tr, a, b), fraction_pairing(group, tr, a, b)
        assert got.value == want.value and got.abs_error == want.abs_error
    zero = {elements[0]: Fraction(0)}
    assert pairing_of_combinations(group, tr, zero, {elements[1]: Fraction(1, 3)}) == \
        DecimalWithError.exact(0)


def test_pairing_of_combinations():
    tr = translates_21()
    s = G5.element((1,))
    a = {G5.identity: Fraction(1), s: Fraction(-1)}
    v = pairing_of_combinations(G5, tr, a, a)
    # 2*t(1) - t(s) - t(s^-1) = 22/4 - 1 = 9/2
    assert v.value == Fraction(9, 2) and v.abs_error == 0


def test_regulator_circulant_determinant():
    tr = translates_21()
    gens = [{G5.element((d,)): Fraction(1)} for d in range(5)]
    reg = regulator_from_translates(G5, tr, gens, 1)
    # det of the rank-5 circulant Gram: (13/4) * (99/16)^2
    assert reg.contains(Fraction(127413, 1024))


def test_regulator_scaling_by_degree():
    tr = translates_21()
    gens = [{G5.identity: Fraction(1)}]
    full = regulator_from_translates(G5, tr, gens, 1)
    halved = regulator_from_translates(G5, tr, gens, 2)
    assert full.value == Fraction(11, 4) and halved.value == Fraction(11, 8)


def test_regulator_rejects_degenerate_lattice():
    tr = translates_21()
    g = {G5.identity: Fraction(1)}
    with pytest.raises(IntervalError):
        regulator_from_translates(G5, tr, [g, dict(g)], 1)


def laplace_det(rows):
    """The plain Laplace recursion along the first row, O(r!) products: the
    oracle for the Bareiss determinant and its error bound."""
    n = len(rows)
    if n == 0:
        return DecimalWithError.exact(1)
    if n == 1:
        return rows[0][0]
    acc = DecimalWithError.exact(0)
    for j in range(n):
        term = rows[0][j] * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def assert_contains_laplace(det, rows, rng, draws=4):
    """det has the Laplace recursion's value and an error no smaller, and it
    holds the determinants of matrices drawn at random inside the entry
    intervals."""
    laplace = laplace_det(rows)
    assert det.value == laplace.value and det.abs_error >= laplace.abs_error
    for _ in range(draws):
        drawn = [[DecimalWithError.exact(x.value + x.abs_error * Fraction(rng.randint(-4, 4), 4))
                  for x in row] for row in rows]
        assert det.contains(laplace_det(drawn).value)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 5, 6, 7])
def test_memoized_determinant_matches_laplace_recursion(r):
    rng = random.Random(r)
    rows = [[DecimalWithError(Fraction(rng.randint(-40, 40), rng.randint(1, 16)),
                              Fraction(rng.randint(0, 3), 10 ** rng.randint(2, 6)))
             for _ in range(r)] for _ in range(r)]
    assert_contains_laplace(_interval_det(rows), rows, rng)


def test_determinant_pivots_past_zeros():
    # a zero pivot swaps rows and flips the sign; a zero column gives 0
    swap = [[0, 2, 1], [3, 0, 0], [1, 1, 1]]
    zero = [[1, 0, 2], [3, 0, 5], [4, 0, 6]]
    for m, det in ((swap, -3), (zero, 0)):
        rows = [[DecimalWithError(Fraction(x), Fraction(1, 100)) for x in row] for row in m]
        interval = _interval_det(rows)
        assert interval.value == det
        assert_contains_laplace(interval, rows, random.Random(det))


@pytest.mark.parametrize("r, degree", [(1, 1), (2, 2), (3, 5), (4, 2)])
def test_regulator_matches_laplace_of_scaled_pairings(r, degree):
    """The regulator's interval against the plain Laplace recursion over the
    double-loop pairings, each divided by [F:E] before the determinant."""
    rng = random.Random(f"regulator:{r}:{degree}")
    tr = {g: DecimalWithError(t.value, Fraction(rng.randrange(1, 9), 10 ** rng.randrange(8, 20)))
          for g, t in translates_21().items()}
    rotations = [G5.element((i,)) for i in range(5)]
    gens = [{g: Fraction(rng.randrange(1, 5), rng.randrange(1, 3)),
             rotations[(i + 1) % 5]: Fraction(-rng.randrange(0, 2), 3)}
            for i, g in enumerate(rotations[:r])]
    rows = [[direct_pairing(G5, tr, a, b) * Fraction(1, degree) for b in gens] for a in gens]
    assert_contains_laplace(regulator_from_translates(G5, tr, gens, degree), rows, rng)


def test_empty_generator_list_gives_unit_regulator():
    reg = regulator_from_translates(G5, translates_21(), [], 1)
    assert reg.value == 1 and reg.abs_error == 0


# ---------------------------------------------------------------------------
# the septic dataset round-trips its construction constants
# ---------------------------------------------------------------------------

def test_septic_contractions_recover_eta():
    ds = load_bundled_dataset("37a1-septic-577")
    g = ds.group
    heights = character_heights(g, ds.heights.translates)
    assert heights["triv"].contains(Fraction(1022228164799376, 10 ** 16))
    # each induced contraction recovers one of the planted Gram eigenvalues:
    # log 4, log 8, log 3 to the shipped precision
    import mpmath
    with mpmath.workdps(50):
        for label, target in (("ind:1", mpmath.log(4)), ("ind:2", mpmath.log(8)),
                              ("ind:3", mpmath.log(3))):
            h = heights[label]
            t = Fraction(mpmath.nstr(target, 40, strip_zeros=False))
            assert abs(h.value - t) < Fraction(1, 10 ** 30)


def test_septic_regulators():
    ds = load_bundled_dataset("37a1-septic-577")
    g = ds.group
    tr = ds.heights.translates
    p_sum = {g.element((d,)): Fraction(1) for d in range(7)}
    h_t = Fraction(1022228164799376, 10 ** 16)
    reg_k = regulator_from_translates(g, tr, [p_sum], 14)
    reg_K = regulator_from_translates(g, tr, [p_sum], 7)
    assert reg_k.contains(h_t / 2)
    assert reg_K.contains(h_t)


# ---------------------------------------------------------------------------
# period conventions
# ---------------------------------------------------------------------------

def test_omega_factor_real_layer():
    op = DecimalWithError.exact(3)
    triv = Character.from_label(G5, "triv")
    eps = Character.from_label(G5, "eps")
    ind = Character.from_label(G5, "ind:1")
    assert omega_factor(triv, op, None, True).value == 3
    assert omega_factor(eps, op, None, True).value == 3
    assert omega_factor(ind, op, None, True).value == 9


def test_omega_factor_imaginary_layer():
    op = DecimalWithError.exact(3)
    om = DecimalWithError.exact(5)
    triv = Character.from_label(G5, "triv")
    eps = Character.from_label(G5, "eps")
    ind = Character.from_label(G5, "ind:1")
    assert omega_factor(triv, op, om, False).value == 3
    assert omega_factor(eps, op, om, False).value == 5
    assert omega_factor(ind, op, om, False).value == 15


def test_field_period_by_signature():
    op = DecimalWithError.exact(3)
    om = DecimalWithError.exact(5)
    assert field_period((1, 0), op, om, 2).value == 3
    assert field_period((2, 0), op, om, 2).value == 9
    assert field_period((0, 1), op, om, 2).value == 30
    assert field_period((1, 2), op, om, 2).value == 3 * 30 * 30
