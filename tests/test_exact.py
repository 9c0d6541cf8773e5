"""Exact arithmetic: cyclotomic field axioms, valuations, intervals,
recognition."""
import random
import time
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import twistcong.exact as exact
from twistcong.exact import (
    AmbiguousRecognitionError, CyclotomicNumber, DecimalWithError, ExactArithmeticError,
    IntervalError, NotRealError, RecognitionError, UnsupportedConductorError,
    _farey_neighbors, _fixed_pi, _simplest_between, as_fraction,
    cyclotomic_field, euler_phi, is_probable_prime, is_square_rational, p_valuation,
    prime_power_base, rational_reconstruct, rational_valuation, real_embedding,
    recognize_orbit, scientific, sqrt_rational_approx,
)
from twistcong.groups import DihedralGroup, character_orbits, orbit_units

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def cyclo(m):
    return st.lists(small_fractions, min_size=0, max_size=euler_phi(m)).map(
        lambda cs: CyclotomicNumber(m, cs))


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def test_as_fraction_forms():
    # number strings are read by dataset._rational alone (tests/test_dataset.py)
    assert as_fraction(Fraction(24, 19)) == Fraction(24, 19)
    assert as_fraction(7) == 7
    with pytest.raises(TypeError):
        as_fraction(object())
    with pytest.raises(TypeError):
        as_fraction("24/19")


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s^2 * d with d squarefree; returns (s, d).

    Trial division up to 10^6 plus a primality check on the remainder; raises
    if the remainder could hide a square factor we cannot see.
    """
    if n <= 0:
        raise ExactArithmeticError("squarefree decomposition needs n > 0")
    s, d = 1, 1
    m = n
    q = 2
    while q * q <= m and q < 10 ** 6:
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            s *= q ** (e // 2)
            if e % 2:
                d *= q
        q += 1 if q == 2 else 2
    if m > 1:
        r = isqrt(m)
        if r * r == m:
            s *= r
        elif is_probable_prime(m):
            d *= m
        else:
            raise ExactArithmeticError(f"cannot certify squarefree part of {n}")
    return s, d


def test_squarefree_decompose_known():
    assert squarefree_decompose(1280) == (16, 5)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(577) == (1, 577)
    s, d = squarefree_decompose(4 * 1444 ** 4)
    assert s == 2 * 1444 ** 2 and d == 1


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_squarefree_decompose_reconstructs(n):
    s, d = squarefree_decompose(n)
    assert s * s * d == n
    # d has no square factor below its own size
    q = 2
    while q * q <= d:
        assert d % (q * q) != 0
        q += 1


@given(st.fractions(max_denominator=10 ** 6).filter(lambda x: x != 0),
       st.sampled_from([2, 3, 5, 7, 19]))
def test_rational_valuation_multiplicative(x, p):
    v = rational_valuation(x, p)
    assert rational_valuation(x * p, p) == v + 1
    assert x / Fraction(p) ** v % p != 0 or True  # x * p^-v is a p-unit
    unit = x / Fraction(p) ** v
    assert unit.numerator % p != 0 and unit.denominator % p != 0


def test_is_square_rational():
    assert is_square_rational(Fraction(9, 4))
    assert not is_square_rational(Fraction(8, 4))
    assert not is_square_rational(Fraction(-9, 4))
    assert is_square_rational(Fraction(0))


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

@given(cyclo(7), cyclo(7), cyclo(7))
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cyclo(5), cyclo(5), st.sampled_from([1, 2, 3, 4]))
@settings(max_examples=40)
def test_galois_is_automorphism(a, b, k):
    assert (a + b).galois_apply(k) == a.galois_apply(k) + b.galois_apply(k)
    assert (a * b).galois_apply(k) == a.galois_apply(k) * b.galois_apply(k)


@given(cyclo(7), st.sampled_from([1, 2, 3, 4, 5, 6]))
def test_galois_composition(a, k):
    assert a.galois_apply(k).galois_apply(pow(k, -1, 7)) == a


def test_zeta_power_order():
    z = CyclotomicNumber.zeta_power(7, 1)
    assert z ** 7 == CyclotomicNumber.rational(1)
    assert z ** 3 == CyclotomicNumber.zeta_power(7, 3)
    total = CyclotomicNumber.rational(0)
    for k in range(7):
        total = total + CyclotomicNumber.zeta_power(7, k)
    assert total.is_zero()


def test_negative_powers_are_refused():
    # elements have no inverse; a negative k must raise, not return 1
    with pytest.raises(ExactArithmeticError):
        CyclotomicNumber.zeta_power(7, 1) ** -1


def test_prime_power_conductor():
    z9 = CyclotomicNumber.zeta_power(9, 1)
    assert z9 ** 9 == CyclotomicNumber.rational(1)
    assert not (z9 ** 3).is_rational()
    with pytest.raises(UnsupportedConductorError):
        CyclotomicNumber(6, [Fraction(1)])
    with pytest.raises(UnsupportedConductorError):
        (z9 + CyclotomicNumber.zeta_power(5, 1))
    # a rejected conductor is not cached: it raises on every call
    for m in (1, 2, 6, 15, 45):
        for _ in range(2):
            with pytest.raises(UnsupportedConductorError):
                cyclotomic_field(m)


def test_prime_power_base():
    for n, l in ((2, 2), (9, 3), (577, 577), (3 ** 40, 3), (2 ** 13288, 2), (41 ** 9, 41),
                 ((2 ** 61 - 1) ** 7, 2 ** 61 - 1)):
        assert prime_power_base(n) == l, n
    for n in (-9, 0, 1, 6, 200000, 41 ** 9 * 43, (2 ** 61 - 1) ** 6 * 7 ** 6):
        assert prime_power_base(n) is None, n
    # a prime above 2^78 is not certified, nor are its powers
    assert prime_power_base(2 ** 89 - 1) is None
    assert prime_power_base((2 ** 89 - 1) ** 3) is None
    # every n below 5000, against a sieve
    primes = [n for n in range(2, 5000) if all(n % d for d in range(2, isqrt(n) + 1))]
    bases = {l ** k: l for l in primes for k in range(1, 13) if l ** k < 5000}
    assert {n: prime_power_base(n) for n in range(5000)} == {
        n: bases.get(n) for n in range(5000)}


def test_a_composite_of_4000_digits_is_decided_quickly():
    # the first has the factor 7, the second only Mersenne prime factors
    for n in (7 * (10 ** 3999 + 3),
              (2 ** 4423 - 1) * (2 ** 4253 - 1) * (2 ** 3217 - 1) * (2 ** 1279 - 1)):
        start = time.perf_counter()
        assert prime_power_base(n) is None
        assert time.perf_counter() - start < 1.0


def gcd_units(m):
    """(Z/m)^* by a gcd test: the reference for cyclotomic_field(m).units."""
    return [a for a in range(1, m) if gcd(a, m) == 1]


def gcd_norm(x):
    """Norm as the product of sigma_a(x) over the gcd enumeration: the
    reference for the valuation at the prime above p."""
    acc = CyclotomicNumber.rational(1).promote(x.m)
    for a in gcd_units(x.m):
        acc = acc * x.galois_apply(a)
    return acc.rational_part()


@pytest.mark.parametrize("m", [3, 5, 7, 9, 25, 27, 49, 121, 125])
def test_field_units_and_norm_match_gcd_enumeration(m):
    # the norm is checked through the valuation in test_valuation_matches_norm
    field = cyclotomic_field(m)
    assert list(field.units) == gcd_units(m)
    assert field.phi == len(field.units) == euler_phi(m)
    assert field.q * field.p == m
    assert cyclotomic_field(m) is field


def multiplicative_order(a, m):
    k, x = 1, a % m
    while x != 1:
        x, k = x * a % m, k + 1
    return k


def test_generator_is_the_smallest_unit_of_order_phi():
    odd_prime_powers = []
    for m in range(3, 1000, 2):
        p = next(d for d in range(3, m + 1, 2) if m % d == 0)
        r = m
        while r % p == 0:
            r //= p
        if r == 1:
            odd_prime_powers.append(m)
    assert len(odd_prime_powers) == 184    # 167 odd primes and 17 higher powers
    for m in odd_prime_powers:
        g = cyclotomic_field(m).generator
        units = gcd_units(m)
        assert g in units and multiplicative_order(g, m) == len(units)
        assert all(multiplicative_order(a, m) < len(units) for a in units if a < g)


@pytest.mark.parametrize("m", [3, 5, 7, 9, 25, 27, 49])
def test_valuation_matches_norm(m):
    # v(x) = v_p(Norm x) / phi, on elements with p-power denominators times
    # powers of the uniformizer 1 - zeta; m = 49 is kept to one element
    # because the oracle's norm takes about 0.6 s there
    field = cyclotomic_field(m)
    pi = CyclotomicNumber.rational(1) - CyclotomicNumber.zeta_power(m, 1)
    rng = random.Random(m)
    for _ in range(4 if field.phi <= 20 else 1):
        x = CyclotomicNumber(m, [Fraction(rng.randrange(-9, 10),
                                          field.p ** rng.randrange(4) * rng.choice([1, 2]))
                                 for _ in range(field.phi)])
        if x.is_zero():
            continue
        x = x * pi ** rng.randrange(2 * field.phi)
        expected = Fraction(rational_valuation(gcd_norm(x), field.p), field.phi)
        assert p_valuation(x, field.p) == field.valuation(x) == expected


@given(cyclo(5).filter(lambda v: not v.is_zero()),
       cyclo(5).filter(lambda v: not v.is_zero()))
@settings(max_examples=40)
def test_valuation_additive(a, b):
    assert p_valuation(a * b, 5) == p_valuation(a, 5) + p_valuation(b, 5)


def test_valuation_of_uniformizer():
    # 1 - zeta_5 generates the prime above 5 with ramification 4
    pi = CyclotomicNumber.rational(1) - CyclotomicNumber.zeta_power(5, 1)
    assert p_valuation(pi, 5) == Fraction(1, 4)
    assert p_valuation(CyclotomicNumber.rational(Fraction(1, 25)), 5) == -2


# ---------------------------------------------------------------------------
# the integer core against a Fraction reference
# ---------------------------------------------------------------------------

class FractionCyclotomic:
    """Reference element of Q(zeta_m): phi(m) Fractions in the power basis.
    Products and Galois images are taken modulo x^m - 1 and then reduced by
    Phi_m: for m = p^n, q = m/p and r < q, zeta^(r + (p-1)q) = -sum_(j < p-1)
    zeta^(r + jq), so coordinate i < phi loses the one at phi + (i mod q)."""

    def __init__(self, m, coeffs):
        self.m = m
        self.p = next(d for d in range(2, m + 1) if m % d == 0) if m > 1 else 1
        self.phi = m - m // self.p if m > 1 else 1
        self.coeffs = [Fraction(c) for c in coeffs] + [Fraction(0)] * (self.phi - len(coeffs))

    def _reduced(self, poly):
        if self.m == 1:
            return FractionCyclotomic(1, poly)
        q = self.m // self.p
        return FractionCyclotomic(self.m, [poly[i] - poly[self.phi + i % q]
                                           for i in range(self.phi)])

    def __add__(self, other):
        return FractionCyclotomic(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FractionCyclotomic(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        poly = [Fraction(0)] * self.m
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                poly[(i + j) % self.m] += a * b
        return self._reduced(poly)

    def __pow__(self, k):
        result = FractionCyclotomic(self.m, [1])
        for _ in range(k):
            result = result * self
        return result

    def galois_apply(self, a):
        poly = [Fraction(0)] * self.m
        for i, c in enumerate(self.coeffs):
            poly[a * i % self.m] += c
        return self._reduced(poly)

    def conjugates(self):
        return [self.galois_apply(a) for a in range(1, self.m) if a % self.p] or [self]

    def trace(self):
        total = FractionCyclotomic(self.m, [])
        for y in self.conjugates():
            total = total + y
        assert not any(total.coeffs[1:])
        return total.coeffs[0]

    def norm(self):
        total = FractionCyclotomic(self.m, [1])
        for y in self.conjugates():
            total = total * y
        assert not any(total.coeffs[1:])
        return total.coeffs[0]

    def __repr__(self):
        if not any(self.coeffs[1:]):
            return f"CyclotomicNumber({self.coeffs[0]})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{i}" if i > 1 else "z"
                terms.append(f"{c}*{z}" if c != 1 else z)
        return f"CyclotomicNumber(m={self.m}: {' + '.join(terms)})"


CORE_CONDUCTORS = [1, 5, 25, 27]


def core_and_reference(data, m):
    cs = data.draw(st.lists(small_fractions, max_size=euler_phi(m)))
    return CyclotomicNumber(m, cs), FractionCyclotomic(m, cs)


def assert_matches(got, want):
    """got holds phi integers over den > 0 in lowest terms, and is want."""
    assert got.m == want.m and len(got.num) == want.phi
    assert all(type(n) is int for n in got.num) and type(got.den) is int
    assert got.den > 0 and gcd(got.den, *got.num) == 1
    assert [Fraction(n, got.den) for n in got.num] == want.coeffs
    assert repr(got) == repr(want)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_core_matches_the_fraction_reference(data):
    m = data.draw(st.sampled_from(CORE_CONDUCTORS))
    (x, rx), (y, ry) = core_and_reference(data, m), core_and_reference(data, m)
    k = data.draw(st.integers(0, 5))
    a = data.draw(st.sampled_from([a for a in range(1, m) if gcd(a, m) == 1] or [1]))
    for got, want in [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                      (x ** k, rx ** k), (x.galois_apply(a), rx.galois_apply(a))]:
        assert_matches(got, want)
    if m > 1:
        assert cyclotomic_field(m).trace(x) == rx.trace()
    real, real_ref = x + x.conjugate(), rx + rx.galois_apply(m - 1)
    assert_matches(real, real_ref)
    assert contains_reference(real_embedding(real), direct_real_embedding(real_ref))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_p_valuation_matches_the_reference_norm(data):
    m = data.draw(st.sampled_from(CORE_CONDUCTORS))
    x, rx = core_and_reference(data, m)
    if x.is_zero():
        return
    p = rx.p if m > 1 else 5
    assert p_valuation(x, p) == Fraction(rational_valuation(rx.norm(), p), rx.phi)


@given(small_fractions, st.sampled_from(CORE_CONDUCTORS), st.sampled_from(CORE_CONDUCTORS))
@settings(max_examples=80)
def test_rationals_equal_and_hash_as_fractions_across_conductors(r, m1, m2):
    z = CyclotomicNumber.zeta_power(m2, 1)
    a, b = CyclotomicNumber(m1, [r]), (CyclotomicNumber(m2, [r]) + z) - z
    assert a == b == r and b == a and hash(a) == hash(b) == hash(r)
    assert {r: "found"}[b] == "found"
    if r.denominator == 1:
        assert a == int(r) and hash(a) == hash(int(r))
    assert a != r + 1 and a != CyclotomicNumber(m2, [r + 1])
    if r:    # r/2 often keeps r's numerator, so the denominators must differ
        assert a != r / 2 and a != CyclotomicNumber(m2, [r / 2])
    if m2 > 1:
        assert a != b + z and b + z != r


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

interval = st.builds(DecimalWithError,
                     st.fractions(min_value=-100, max_value=100, max_denominator=999),
                     st.fractions(min_value=0, max_value="1/10", max_denominator=10 ** 6))


@given(interval, interval, small_fractions, small_fractions)
@settings(max_examples=80)
def test_interval_arithmetic_contains(x, y, dx, dy):
    # any true points inside the operand intervals stay inside the result
    tx = x.value + dx * x.abs_error / 50 if x.abs_error else x.value
    ty = y.value + dy * y.abs_error / 50 if y.abs_error else y.value
    assert (x + y).contains(tx + ty)
    assert (x - y).contains(tx - ty)
    assert (x * y).contains(tx * ty)
    if abs(y.value) > y.abs_error and ty != 0:
        assert (x / y).contains(tx / ty)


def fraction_formulas(x, y):
    """(value, abs_error) of x + y, x - y, x * y and, unless y may be 0, x / y,
    by the interval formulas over Fraction that DecimalWithError's operators
    were first written in."""
    (a, ea), (b, eb) = (x.value, x.abs_error), (y.value, y.abs_error)
    out = {"+": (a + b, ea + eb), "-": (a - b, ea + eb),
           "*": (a * b, abs(a) * eb + abs(b) * ea + ea * eb)}
    if abs(b) > eb:
        out["/"] = (a / b, (ea + abs(a / b) * eb) / (abs(b) - eb))
    return out


def sqrt_fraction_formula(x, digits):
    lo, hi = x.value - x.abs_error, x.value + x.abs_error
    scale = 10 ** digits
    rlo = Fraction(isqrt((lo.numerator * scale * scale) // lo.denominator), scale)
    rhi = Fraction(isqrt((hi.numerator * scale * scale) // hi.denominator) + 1, scale)
    mid = (rlo + rhi) / 2
    return mid, rhi - mid


@given(interval, interval, st.integers(min_value=-30, max_value=30).filter(bool),
       st.integers(min_value=0, max_value=45))
@settings(max_examples=150)
def test_interval_operators_match_the_fraction_formulas(x, y, k, digits):
    # the integer form computes the same rationals, and its one form per
    # interval makes an interval built from Fractions equal, and hash equal,
    # to the same interval an operator gives
    got = {"+": x + y, "-": x - y, "*": x * y}
    if abs(y.value) > y.abs_error:
        got["/"] = x / y
    cases = [(got, fraction_formulas(x, y)),
             ({"+": k + x, "-": x - k, "*": k * x, "/": x / k},
              fraction_formulas(x, DecimalWithError.exact(k)))]
    z = x if x.value >= 0 else -x
    if z.value >= z.abs_error:
        cases.append(({"sqrt": z.sqrt(digits)}, {"sqrt": sqrt_fraction_formula(z, digits)}))
    else:
        with pytest.raises(IntervalError):
            z.sqrt(digits)
    for results, expected in cases:
        assert results.keys() == expected.keys()
        for op, result in results.items():
            assert (result.value, result.abs_error) == expected[op]
            built = DecimalWithError(*expected[op])
            assert built == result and hash(built) == hash(result)
            assert (built.num, built.err, built.den) == (result.num, result.err, result.den)


def test_interval_division_by_zero():
    with pytest.raises(IntervalError):
        DecimalWithError.exact(1) / DecimalWithError(Fraction(0), Fraction(1, 10))


def test_interval_sqrt():
    x = DecimalWithError(Fraction(2), Fraction(1, 10 ** 20))
    r = x.sqrt()
    assert r.contains(sqrt_rational_approx(2).value)
    with pytest.raises(IntervalError):
        DecimalWithError(Fraction(-1), Fraction(0)).sqrt()


def test_sqrt_rational_approx_tight():
    r = sqrt_rational_approx(577, 50)
    assert abs(r.value * r.value - 577) < Fraction(1, 10 ** 45)
    assert sqrt_rational_approx(1444).abs_error == 0
    assert sqrt_rational_approx(1444).value == 38


# ---------------------------------------------------------------------------
# real embeddings
# ---------------------------------------------------------------------------

def test_real_embedding_of_cosine_sum():
    # zeta + zeta^-1 at m = 5 embeds to 2cos(72 deg) = (sqrt(5) - 1)/2
    z = CyclotomicNumber.zeta_power(5, 1) + CyclotomicNumber.zeta_power(5, 4)
    emb = real_embedding(z)
    target = (sqrt_rational_approx(5).value - 1) / 2
    assert abs(emb.value - target) <= emb.abs_error + Fraction(1, 10 ** 39)


def test_real_embedding_rejects_imaginary():
    z = CyclotomicNumber.zeta_power(5, 1)
    with pytest.raises(NotRealError):
        real_embedding(z)
    # 10^-60 (zeta_5 - zeta_5^-1) is purely imaginary: realness is decided
    # exactly, so no numerical budget can swallow it
    with pytest.raises(NotRealError):
        real_embedding(Fraction(1, 10 ** 60) * (z - z.conjugate()))


def mp_fraction(x) -> Fraction:
    """An mpmath number rounded to 100 significant digits, which are all
    correct when it was computed at 110; every such value below is under
    10^9 in absolute value, so it errs by less than 10^-90."""
    return Fraction(mpmath.nstr(x, 100))


def contains_reference(interval: DecimalWithError, want: Fraction) -> bool:
    return abs(interval.value - want) <= interval.abs_error + Fraction(1, 10 ** 90)


def direct_real_embedding(x) -> Fraction:
    """sum c_i cos(2 pi i/m) for x = sum c_i zeta^i, by a per-call mpmath loop
    at 110 digits: the reference value for real_embedding."""
    with mpmath.workdps(110):
        return mp_fraction(mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator
                                       * mpmath.cospi(mpmath.mpf(2 * i) / x.m)
                                       for i, c in enumerate(x.coeffs) if c))


@pytest.mark.parametrize("m", [5, 7, 9, 25, 49])
def test_real_embedding_matches_direct_loop(m):
    """The interval contains the 100-digit value, and errs by at most
    (sum |c| + 1) 10^-45, the bound of a 50-digit embedding."""
    rng = random.Random(m)
    for _ in range(10):
        y = CyclotomicNumber(m, [Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
                                 if rng.random() < 0.7 else 0 for _ in range(euler_phi(m))])
        x = y + y.conjugate()
        got = real_embedding(x)
        assert contains_reference(got, direct_real_embedding(x))
        assert got.abs_error <= (sum(abs(c) for c in x.coeffs) + 1) * Fraction(1, 10 ** 45)
    with pytest.raises(NotRealError):
        real_embedding(CyclotomicNumber.zeta_power(m, 1))


@pytest.mark.parametrize("m", [3, 5, 7, 9, 25, 27])
def test_trace_embeddings_match_real_embedding(m):
    """CyclotomicField.cosines bounds the embedded traces zeta^k + zeta^-k,
    2cos(2 pi k/m), for every k: entries k and m - k are equal, the entries
    at 3k = 0 mod m are exact, and every entry and every real_embedding of
    zeta^k + zeta^-k contains the 100-digit value."""
    c, values, errors = cyclotomic_field(m).cosines
    assert len(values) == len(errors) == m
    for k in range(m):
        assert (values[k], errors[k]) == (values[-k % m], errors[-k % m])
        with mpmath.workdps(110):
            want = mp_fraction(2 * mpmath.cospi(mpmath.mpf(2 * k) / m))
        entry = DecimalWithError(Fraction(values[k], c), Fraction(errors[k], c))
        assert contains_reference(entry, want)
        z = CyclotomicNumber.zeta_power(m, k)
        assert contains_reference(real_embedding(z + z.conjugate()), want)
        assert (errors[k] == 0) == (3 * k % m == 0)
    assert Fraction(values[0], c) == 2
    if m % 3 == 0:
        assert Fraction(values[m // 3], c) == -1 and errors[m // 3] == 0


@pytest.mark.parametrize("m", [3, 5, 7, 9, 25, 27, 49, 121, 343, 997])
def test_cosine_table_is_correctly_rounded(m):
    """Every irrational entry is nint(2 * 10^50 cos(2 pi k/m)), taken from
    110-digit mpmath, and errs by 10^5 units; the entries at 3k = 0 mod m
    are exact."""
    c, values, errors = cyclotomic_field.__wrapped__(m).cosines
    assert c == 10 ** 50 and len(values) == len(errors) == m
    with mpmath.workdps(110):
        for k in range(m):
            if 3 * k % m == 0:
                assert errors[k] == 0
                assert values[k] == (2 * c if k == 0 else -c)
            else:
                assert errors[k] == 10 ** 5
                assert values[k] == int(mpmath.nint(2 * c * mpmath.cospi(mpmath.mpf(2 * k) / m)))


@pytest.mark.parametrize("digits", [60, 100])
def test_fixed_point_pi_is_within_its_bound(digits):
    """_fixed_pi(10^d) errs from 10^d pi by under 20(d + 1), as its
    docstring states."""
    with mpmath.workdps(digits + 20):
        error = abs(_fixed_pi(10 ** digits) - mpmath.pi * 10 ** digits)
    assert error < 20 * (digits + 1)


def test_a_fresh_cosine_table_builds_quickly():
    field = cyclotomic_field.__wrapped__(997)    # not the cached field: build the table here
    start = time.perf_counter()
    assert len(field.cosines[1]) == 997
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

@given(st.fractions(max_denominator=997, min_value=-10 ** 4, max_value=10 ** 4))
@settings(max_examples=200)
def test_simplest_in_interval_idempotent(x):
    got = simplest_between(x, x)
    assert got == x
    wide = simplest_between(x - Fraction(1, 10 ** 12), x + Fraction(1, 10 ** 12))
    assert wide.denominator <= x.denominator
    assert abs(wide - x) <= Fraction(1, 10 ** 12)


def simplest_between(lo, hi):
    """_simplest_between on the numerators and denominators of lo and hi."""
    return Fraction(*_simplest_between(lo.numerator, lo.denominator,
                                       hi.numerator, hi.denominator))


def simplest_in_interval_by_recursion(lo, hi):
    """The walk of _simplest_between as first written: recursive over Fraction."""
    if lo > hi:
        raise IntervalError("empty interval")
    if hi < 0:
        return -simplest_in_interval_by_recursion(-hi, -lo)
    if lo <= 0:
        return Fraction(0)
    a = lo.numerator // lo.denominator
    if Fraction(a) == lo:
        return lo
    if Fraction(a + 1) <= hi:
        return Fraction(a + 1)
    inner = simplest_in_interval_by_recursion(1 / (hi - a), 1 / (lo - a))
    return a + 1 / inner


def test_simplest_in_interval_matches_the_recursion():
    rng = random.Random(9)
    intervals = []
    # the intervals rational_reconstruct meets in criterion 9, either sign
    for _ in range(1000):
        x = Fraction(rng.randrange(-10 ** 4, 10 ** 4 + 1), rng.randrange(1, 10 ** 4 + 1))
        err = Fraction(1, 10 ** 15) * max(1, abs(x))
        x += err * Fraction(rng.randrange(-499, 500), 1000)
        intervals.append((x - 2 * err, x + 2 * err))
    # 30-digit endpoints, some straddling 0, and single points
    for _ in range(250):
        lo = Fraction(rng.randrange(-10 ** 30, 10 ** 30), rng.randrange(1, 10 ** 30))
        hi = lo + Fraction(rng.randrange(1, 10 ** 30), rng.randrange(1, 10 ** 30)) ** 3
        intervals += [(lo, hi), (lo, lo)]
    for lo, hi in intervals:
        expected = simplest_in_interval_by_recursion(lo, hi)
        assert simplest_between(lo, hi) == expected
        # as rational_reconstruct calls it: both ends over one unreduced denominator
        d = lo.denominator * hi.denominator
        assert Fraction(*_simplest_between(lo.numerator * hi.denominator, d,
                                           hi.numerator * lo.denominator, d)) == expected
    with pytest.raises(IntervalError):
        simplest_between(Fraction(1), Fraction(0))


@given(st.fractions(max_denominator=10 ** 5).filter(lambda f: f.denominator > 1),
       st.integers(min_value=1, max_value=10 ** 7))
@settings(max_examples=120)
def test_farey_neighbors_bracket(c, bound):
    if c.denominator > bound:
        return
    right, left = _farey_neighbors(c, bound)
    assert left < c < right or right < c < left
    for n in (left, right):
        assert n.denominator <= bound
        # mediant property: no fraction of denominator <= bound lies between
        assert abs(n.numerator * c.denominator - c.numerator * n.denominator) == 1


@given(st.fractions(max_denominator=10 ** 6, min_value=-10 ** 3, max_value=10 ** 3))
@settings(max_examples=200)
def test_rational_reconstruct_roundtrip(x):
    noisy = DecimalWithError(x + Fraction(1, 10 ** 30), Fraction(1, 10 ** 25))
    assert rational_reconstruct(noisy, 10 ** 6) == x


def test_rational_reconstruct_rejects_and_ambiguous():
    # no rational of denominator <= 10 within 1e-9 of 0.123456789
    x = DecimalWithError(Fraction(123456789, 10 ** 9), Fraction(1, 10 ** 10))
    with pytest.raises(RecognitionError):
        rational_reconstruct(x, 10)
    # a huge interval admits many candidates
    wide = DecimalWithError(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(AmbiguousRecognitionError):
        rational_reconstruct(wide, 100)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_a_farey_neighbor_on_the_bracket_is_ambiguous(sign):
    # at order 10 the neighbors of 1/3 are 3/10 and 3/8; the bracket
    # [v - 2e, v + 2e] is closed, so a neighbor on either end is a second fit
    third, eps = Fraction(1, 3), Fraction(1, 10 ** 30)

    def bracket(lo, hi):
        return DecimalWithError(sign * (lo + hi) / 2, (hi - lo) / 4)

    for lo, hi, other in ((third, Fraction(3, 8), Fraction(3, 8)),
                          (Fraction(3, 10), third, Fraction(3, 10))):
        with pytest.raises(AmbiguousRecognitionError) as excinfo:
            rational_reconstruct(bracket(lo, hi), 10)
        assert str(excinfo.value) == (
            f"both {sign * third} and {sign * other} fit the interval at denominator bound 10")
    # just inside the neighbors, 1/3 is the one fit
    assert rational_reconstruct(bracket(third, Fraction(3, 8) - eps), 10) == sign * third
    assert rational_reconstruct(bracket(Fraction(3, 10) + eps, third), 10) == sign * third


def test_a_value_below_the_float_range_keeps_its_magnitude_in_messages():
    # float() read 1e-800 as 0, so the message said "within 0 of 0"
    tiny = Fraction(1, 10 ** 800)
    assert repr(DecimalWithError(tiny, tiny / 7)) == "DecimalWithError(1e-800 +- 1.43e-801)"
    with pytest.raises(RecognitionError, match=r"within 2e-810 of 1e-800$"):
        rational_reconstruct(DecimalWithError(tiny, tiny / 10 ** 10), 10 ** 6)


def test_a_value_above_the_float_range_is_a_recognition_error():
    # float() raised OverflowError here, in place of the RecognitionError
    x = DecimalWithError(10 ** 400 + Fraction(1, 3), Fraction(1, 10 ** 10))
    with pytest.raises(RecognitionError, match=r"of 1\.00000000000e\+400$"):
        rational_reconstruct(x, 2)


@pytest.mark.parametrize("x, digits, text", [
    (Fraction(0), 3, "0e+0"), (Fraction(5), 3, "5e+0"), (Fraction(-7, 2), 3, "-3.5e+0"),
    (Fraction(1, 3), 12, "3.33333333333e-1"), (Fraction(-12, 10 ** 6), 3, "-1.2e-5"),
    (Fraction(9995, 10 ** 4), 3, "1.00e+0"), (Fraction(10 ** 2000 + 1, 3), 3, "3.33e+1999"),
])
def test_scientific_rounds_to_the_given_significant_digits(x, digits, text):
    assert scientific(x, digits) == text


def test_recognize_orbit_rational_and_pair():
    r5 = sqrt_rational_approx(5, 45).value
    a = Fraction(24) + 8 * r5
    b = Fraction(24) - 8 * r5
    xs = [DecimalWithError(v, Fraction(1, 10 ** 30)) for v in (a, b)]
    orb = recognize_orbit(xs, 5, (1, 2), 10 ** 6)
    assert orb.min_poly == (Fraction(256), Fraction(-48), Fraction(1))
    s = orb.values[0] + orb.values[1]
    q = orb.values[0] * orb.values[1]
    assert s == CyclotomicNumber.rational(48)
    assert q == CyclotomicNumber.rational(256)
    # ordering follows the numeric inputs
    assert real_embedding(orb.values[0]).value > real_embedding(orb.values[1]).value


def test_recognize_orbit_all_rational():
    xs = [DecimalWithError(Fraction(-2312, 577), Fraction(1, 10 ** 20))] * 3
    orb = recognize_orbit(xs, 7, (1, 2, 3), 10 ** 6)
    assert all(v == Fraction(-2312, 577) for v in orb.values)
    assert orb.min_poly == (Fraction(2312, 577), Fraction(1))


def test_recognize_orbit_rejects_values_outside_their_widened_inputs():
    # wide inputs at a small denominator bound: the coordinates are recognized,
    # but the element they give is not within reach of its inputs
    xs = [DecimalWithError(Fraction(-48, 11), Fraction(27, 1000)),
          DecimalWithError(Fraction(-71, 9), Fraction(1, 1000))]
    with pytest.raises(RecognitionError, match="^recognized value does not match its input"):
        recognize_orbit(xs, 5, (1, 2), 3)


@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_recognize_orbit_accepts_an_embedding_at_the_widened_edge(side, monkeypatch):
    # the check is |x - emb| <= (2 x_err + emb_err) + emb_err, closed at the edge
    x = DecimalWithError(Fraction(7, 3), Fraction(1, 10 ** 20))
    emb_err = Fraction(1, 10 ** 25)
    edge = 2 * x.abs_error + 2 * emb_err
    for gap in (edge, edge + Fraction(1, 10 ** 40)):
        monkeypatch.setattr(exact, "real_embedding",
                            lambda v, gap=gap: DecimalWithError(x.value + side * gap, emb_err))
        if gap == edge:
            assert recognize_orbit([x], 1, (1,)).values == (Fraction(7, 3),)
        else:
            with pytest.raises(RecognitionError, match="does not match its input interval"):
                recognize_orbit([x], 1, (1,))


def test_recognize_orbit_rejects_singleton_irrational():
    r2 = sqrt_rational_approx(2, 45).value
    xs = [DecimalWithError(r2, Fraction(1, 10 ** 35))]
    with pytest.raises(RecognitionError):
        recognize_orbit(xs, 7, (1,), 10 ** 6)


def embedded_orbit(x, units, err=Fraction(1, 10 ** 30)):
    """The real embeddings of sigma_a(x), a in units, each widened to err."""
    return [DecimalWithError(real_embedding(x.galois_apply(a)).value, err) for a in units]


def test_recognize_orbit_septic_cubic():
    # the orbit the conjugate-pair recognizer rejected with "3 entries resist
    # rational recognition; only conjugate pairs are supported"
    z = CyclotomicNumber.zeta_power(7, 1)
    x = 3 + 2 * (z + z.conjugate())
    orb = recognize_orbit(embedded_orbit(x, (1, 2, 3)), 7, (1, 2, 3))
    assert orb.values == tuple(x.galois_apply(a) for a in (1, 2, 3))
    # eta = 2cos(2pi/7) has eta^3 + eta^2 - 2eta - 1 = 0; put eta = (X - 3)/2
    # and clear the denominator 8
    assert orb.min_poly == (Fraction(7), Fraction(7), Fraction(-7), Fraction(1))


def test_recognize_orbit_rejects_misaligned_units():
    z = CyclotomicNumber.zeta_power(7, 1)
    xs = embedded_orbit(3 + 2 * (z + z.conjugate()), (1, 2, 3))
    with pytest.raises(ExactArithmeticError, match="cosets"):
        recognize_orbit(xs, 7, (1, 2, 5))     # 2 and 5 = -2 name one coset
    # aligned units, but the inputs permuted off the Galois order
    with pytest.raises(RecognitionError):
        recognize_orbit([xs[0], xs[2], xs[1]], 7, (1, 2, 3))


def test_recognize_orbit_needs_a_real_subfield_of_the_orbit_size():
    xs = [DecimalWithError(Fraction(v, 7) + Fraction(1, 10 ** 9), Fraction(1, 10 ** 12))
          for v in (1, 2, 3, 4)]
    with pytest.raises(RecognitionError, match="no real subfield of degree 4"):
        recognize_orbit(xs, 5, (1, 2, 3, 4), 10)


def coset_reps(m, k):
    """The smallest unit of each coset of the k-th powers in (Z/m)^*, in
    increasing order: the alignment of a Galois orbit of size k."""
    units = [a for a in range(1, m) if gcd(a, m) == 1]
    powers = {pow(a, k, m) for a in units}
    reps = []
    for a in units:
        if not any(a * pow(b, -1, m) % m in powers for b in reps):
            reps.append(a)
    return tuple(reps)


# (m, d, k): x in the real subfield of degree d of Q(zeta_m), recognized as an
# orbit of size k, a multiple of d; d < k puts x in a proper subfield
SUBFIELD_CASES = [(7, 3, 3), (9, 3, 3), (11, 5, 5), (13, 2, 2), (13, 3, 3), (13, 2, 6),
                  (13, 3, 6), (13, 6, 6), (25, 2, 2), (25, 5, 5), (25, 2, 10),
                  (25, 5, 10), (25, 10, 10)]


def subfield_element(m, d, data):
    """A drawn x of the real subfield of degree d of Q(zeta_m): the relative
    trace of a drawn y to the fixed field of the d-th powers. One common
    denominator keeps every coordinate under the default bound."""
    numerators = data.draw(st.lists(st.integers(-50, 50), max_size=euler_phi(m)))
    y = CyclotomicNumber(m, [Fraction(n, 12) for n in numerators])
    d_th_powers = {pow(a, d, m) for a in range(1, m) if gcd(a, m) == 1}
    return sum((y.galois_apply(h) for h in d_th_powers), CyclotomicNumber.rational(0))


@pytest.mark.parametrize("m, d, k", SUBFIELD_CASES)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_recognize_orbit_round_trips_in_real_subfields(m, d, k, data):
    x = subfield_element(m, d, data)
    units = coset_reps(m, k)
    assert len(units) == k
    orb = recognize_orbit(embedded_orbit(x, units), m, units)
    assert orb.values == tuple(x.galois_apply(a) for a in units)
    assert len(orb.min_poly) - 1 == len(set(orb.values))
    assert d % (len(orb.min_poly) - 1) == 0


def test_recognize_orbit_of_size_50_at_125_ends_quickly():
    # the Gauss-Jordan basis and the product of linear factors took 12-13 s
    z = CyclotomicNumber.zeta_power(125, 1)
    x = Fraction(3, 2) + z + z.conjugate()
    units = coset_reps(125, 50)
    xs = embedded_orbit(x, units)
    start = time.perf_counter()
    orb = recognize_orbit(xs, 125, units)
    assert time.perf_counter() - start < 3
    assert orb.values[0] == x and len(orb.min_poly) == 51
    # the degree-50 polynomial vanishes at x, by Horner's rule in Q(zeta_125)
    acc = CyclotomicNumber.rational(0)
    for c in reversed(orb.min_poly):
        acc = acc * x + c
    assert acc.is_zero()


def test_recognize_orbit_rejects_coordinates_outside_the_subfield():
    # wide inputs whose coordinates reconstruct to an element that the cubes
    # do not fix: its sigma_a, a in units, are not a whole conjugate set
    xs = [DecimalWithError(v, Fraction(1, 25))
          for v in (Fraction(1787, 1000), Fraction(-38, 25), Fraction(-9, 4))]
    with pytest.raises(RecognitionError, match="not in the subfield of degree 3"):
        recognize_orbit(xs, 9, (1, 2, 4), 3)


@given(x=cyclo(9) | cyclo(13) | cyclo(25))
@settings(max_examples=30, deadline=None)
def test_trace_is_the_sum_of_the_conjugates(x):
    field = cyclotomic_field(x.m)
    total = sum((x.galois_apply(a) for a in field.units), CyclotomicNumber.rational(0))
    assert total == field.trace(x)


def test_groups_alignment_is_the_coset_alignment():
    for p, factors in ((5, [5]), (7, [7]), (13, [13]), (5, [25]), (3, [3, 9])):
        group = DihedralGroup(p, factors)
        e = group.exponent
        for orbit, units in zip(character_orbits(group), orbit_units(group)):
            assert units == coset_reps(e, len(orbit))
            assert [group.galois_label(orbit[0].label, a) for a in units] == [
                c.label for c in orbit]


# ---------------------------------------------------------------------------
# the retired conjugate-pair recognizer, kept as an oracle
# ---------------------------------------------------------------------------

def legendre_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_in_cyclotomic(d: int, m: int) -> CyclotomicNumber:
    """An exact square root of d > 0 inside Q(zeta_m), positive in the
    canonical embedding: perfect squares (any m) and d whose squarefree part
    is m's prime p with p = 1 mod 4 (quadratic Gauss sum)."""
    if d <= 0:
        raise ExactArithmeticError("radicand must be positive")
    s, d0 = squarefree_decompose(d)
    if d0 == 1:
        return CyclotomicNumber.rational(s).promote(m)
    field = cyclotomic_field(m)
    p = field.p
    if d0 != p or p % 4 != 1:
        raise RecognitionError(
            f"sqrt({d}) does not lie in Q(zeta_{m}) (squarefree part {d0})")
    # Gauss sum over the subfield Q(zeta_p): zeta_p = zeta_m^q
    g = CyclotomicNumber.rational(0).promote(m)
    for a in range(1, p):
        g = g + legendre_symbol(a, p) * CyclotomicNumber.zeta_power(m, a * field.q)
    assert g * g == CyclotomicNumber.rational(p).promote(m)
    root = s * g
    if real_embedding(root).value < 0:
        root = -root
    return root


def pair_oracle(xs, m, den_bound):
    """The values the conjugate-pair recognizer gave for a two-entry orbit:
    rational entries, or a pair recognized through its sum and product with
    the square root taken by a Gauss sum, the larger value first in the
    order of the inputs."""
    values = []
    for x in xs:
        try:
            values.append(CyclotomicNumber.rational(rational_reconstruct(x, den_bound)))
        except RecognitionError:
            break
    else:
        return tuple(values)
    s = rational_reconstruct(xs[0] + xs[1], den_bound)
    q = rational_reconstruct(xs[0] * xs[1], den_bound)
    disc = s * s - 4 * q
    if disc <= 0:
        raise RecognitionError("conjugate pair has non-real quadratic discriminant")
    sq, d = squarefree_decompose(disc.numerator * disc.denominator)
    root = sqrt_in_cyclotomic(d, m)
    half = CyclotomicNumber.rational(s / 2).promote(m)
    diff = Fraction(sq, disc.denominator) / 2 * root
    plus, minus = half + diff, half - diff
    return (plus, minus) if xs[0].value >= xs[1].value else (minus, plus)


def test_legendre_symbol_values():
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1
    assert legendre_symbol(14, 7) == 0
    # 37 must be inert in the quadratic field of discriminant 577
    assert legendre_symbol(577, 37) == -1


def test_sqrt_in_cyclotomic():
    r5 = sqrt_in_cyclotomic(5, 5)
    assert r5 * r5 == CyclotomicNumber.rational(5)
    assert abs(real_embedding(r5).value - Fraction(2236067977, 10 ** 9)) < Fraction(1, 10 ** 8)
    r20 = sqrt_in_cyclotomic(20, 5)
    assert r20 == 2 * r5
    assert sqrt_in_cyclotomic(16, 7) == CyclotomicNumber.rational(4)
    with pytest.raises(RecognitionError):
        sqrt_in_cyclotomic(3, 5)
    # p = 3 mod 4: the real quadratic root is not inside
    with pytest.raises(RecognitionError):
        sqrt_in_cyclotomic(7, 7)



def outcome(recognize):
    """The values recognize() returns, or the class of what it raises."""
    try:
        return recognize()
    except RecognitionError as e:
        return type(e)


@pytest.mark.parametrize("p", [5, 13])
def test_recognize_orbit_agrees_with_the_pair_oracle(p):
    rng = random.Random(p)
    root = sqrt_rational_approx(p, 40)
    # sigma_u(sqrt(p)) = -sqrt(p) for a non-residue u: the pair r + c*sqrt(p), r - c*sqrt(p)
    units = (1, next(a for a in range(2, p) if legendre_symbol(a, p) == -1))
    seen = set()
    for _ in range(150):
        regime = rng.choice(["exact", "ambiguous", "no candidate"])
        r = Fraction(rng.randrange(-60, 61), rng.randrange(1, 7))
        c = Fraction(rng.randrange(1, 41), rng.randrange(1, 7))
        err, den_bound = Fraction(1, 10 ** 30), 10 ** 6
        if regime == "ambiguous":
            err = Fraction(1, 10)
        elif regime == "no candidate":
            # r + c and 2r both have denominator 3
            r, c, den_bound = rng.randrange(-60, 61) + Fraction(1, 3), rng.randrange(1, 41), 1
        xs = [DecimalWithError(v.value, err) for v in
              (DecimalWithError.exact(r) + c * root, DecimalWithError.exact(r) - c * root)]
        new = outcome(lambda: recognize_orbit(xs, p, units, den_bound).values)
        old = outcome(lambda: pair_oracle(xs, p, den_bound))
        assert new == old, (regime, r, c)
        seen.add(new if isinstance(new, type) else tuple)
    assert seen == {tuple, AmbiguousRecognitionError, RecognitionError}


# ---------------------------------------------------------------------------
# the retired Gauss-Jordan subfield basis and product of linear factors,
# kept as oracles
# ---------------------------------------------------------------------------

def gauss_jordan_subfield(m, k):
    """(basis, duals) as the retired CyclotomicField.real_subfield built
    them: basis is the first k linearly independent sums over the H-orbits of
    zeta^i, H the k-th powers, and duals maps a^(phi/k) mod m to the real
    embeddings of sigma_a of the trace-dual basis, from Gauss-Jordan on the
    Gram matrix."""
    field = cyclotomic_field(m)
    phi = field.phi
    h = pow(field.generator, k, m)
    powers = {pow(h, i, m) for i in range(phi // k)}
    basis, echelon = [], []
    for i in range(m):
        poly = [0] * m
        for a in powers:
            poly[a * i % m] = 1
        b = CyclotomicNumber(m, field.reduce(poly))
        row = list(b.coeffs)
        for col, pivot in echelon:
            f = row[col] / pivot[col]
            row = [x - f * y for x, y in zip(row, pivot)]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            echelon.append((col, row))
            basis.append(b)
            if len(basis) == k:
                break

    def trace(y):
        c = y.coeffs
        return Fraction(k, phi) * (phi * c[0] - field.q * sum(c[field.q::field.q]))

    rows = [[trace(b * c) for c in basis] + [Fraction(i == j) for j in range(k)]
            for i, b in enumerate(basis)]
    for i in range(k):
        rows[i] = [x / rows[i][i] for x in rows[i]]
        for r in range(k):
            f = rows[r][i]
            if r != i and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    dual = [CyclotomicNumber(m, [sum(g * b.coeffs[j] for g, b in zip(row[k:], basis))
                                 for j in range(phi)]) for row in rows]
    duals, a = {}, 1
    for _ in range(k):
        duals[pow(a, phi // k, m)] = tuple(real_embedding(d.galois_apply(a)) for d in dual)
        a = a * field.generator % m
    return basis, duals


def gauss_jordan_element(xs, m, units, den_bound=10 ** 6):
    """x as the retired recognizer solved for it: its coordinate on b_j is
    Tr(x b^v_j) = sum_i xs[i] sigma_units[i](b^v_j)."""
    k = len(xs)
    basis, duals = gauss_jordan_subfield(m, k)
    keys = [pow(a, euler_phi(m) // k, m) for a in units]
    coords = [rational_reconstruct(sum((x * duals[key][j] for x, key in zip(xs, keys)),
                                       DecimalWithError.exact(0)), den_bound)
              for j in range(k)]
    return CyclotomicNumber(m, [sum(c * b.coeffs[i] for c, b in zip(coords, basis))
                                for i in range(euler_phi(m))])


def product_min_poly(values):
    """The product of (X - v) over the distinct values, in the field."""
    distinct = []
    for v in values:
        if not any(v == w for w in distinct):
            distinct.append(v)
    poly = [CyclotomicNumber.rational(1)]
    for v in distinct:
        nxt = [CyclotomicNumber.rational(0) for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * v
        poly = nxt
    return tuple(c.rational_part() for c in poly)


@pytest.mark.parametrize("m, d, k", SUBFIELD_CASES)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_recognize_orbit_agrees_with_the_gauss_jordan_oracle(m, d, k, data):
    x = subfield_element(m, d, data)
    units = coset_reps(m, k)
    xs = embedded_orbit(x, units)
    orb = recognize_orbit(xs, m, units)
    assert orb.values[0] == gauss_jordan_element(xs, m, units)
    assert orb.min_poly == product_min_poly(orb.values)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rational_orbits_agree_with_the_product_oracle(data):
    k = data.draw(st.sampled_from([2, 3, 6]))
    rs = data.draw(st.lists(small_fractions, min_size=k, max_size=k).filter(
        lambda rs: len(set(rs)) > 1))
    xs = [DecimalWithError(r, Fraction(1, 10 ** 20)) for r in rs]
    orb = recognize_orbit(xs, 13, coset_reps(13, k))
    assert orb.values == tuple(CyclotomicNumber.rational(r) for r in rs)
    assert orb.min_poly == product_min_poly(orb.values)
