"""Exact arithmetic over small cyclotomic fields, plus interval decimals and
recognition of exact values from decimal approximations.

cyclotomic_field(m), m = p^n with p an odd prime, is the one field core: it
holds p, p^(n-1), phi, the units (Z/m)^* and a generator of that cyclic
group, the reduction modulo Phi_m, the valuation at the prime 1 - zeta_m
above p and the cached cosine table: 2cos(2*pi*k/m) for every k, integers
over one denominator, the only real numbers the canonical embedding needs,
built in integer fixed point, with no floating point.
real_embedding decides realness exactly (x is fixed by complex conjugation)
and then reads the table in one integer dot product. An element is phi
integers in the power basis 1, z, ..., z^(phi-1) (m = 1 for Q) over one
denominator, in lowest terms (Cohen, GTM 138, 4.2); its arithmetic works on
the integers and does one gcd at the end, and never divides.
Decimal inputs carry explicit rational error bounds and every arithmetic
operation propagates a worst-case bound, so a successful recognition comes
with an honest certificate: the recognized value is re-verified exactly and
its embedding is checked back against the input interval.

recognize_orbit is the one Galois-orbit recognizer. Its inputs are aligned,
xs[i] ~ sigma_units[i](x); den_bound bounds each entry of a rational orbit,
or else each coordinate of x in the power basis 1, z, ..., z^(phi-1).
"""
from __future__ import annotations

import decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .record import Record


class ExactArithmeticError(ValueError):
    """Base class for everything raised by this module."""


class UnsupportedConductorError(ExactArithmeticError):
    """Conductor is not 1 or an odd prime power, or two conductors were mixed."""


class InvalidAutomorphismError(ExactArithmeticError):
    """Galois automorphism index not coprime to the conductor."""


class NotRealError(ExactArithmeticError):
    """Asked for the real embedding of an element complex conjugation does not fix."""


class IntervalError(ExactArithmeticError):
    """Interval arithmetic cannot proceed (division by an interval containing 0, ...)."""


class RecognitionError(ExactArithmeticError):
    """No exact value of the allowed shape fits the input interval."""


class AmbiguousRecognitionError(RecognitionError):
    """More than one candidate of the allowed shape fits the input interval."""


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def as_fraction(x) -> Fraction:
    """Coerce an int or a Fraction to a Fraction; strings are read only by
    `dataset`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_valuation(x: Fraction | int, p: int) -> int:
    """v_p of a nonzero rational or integer."""
    if x == 0:
        raise ExactArithmeticError("valuation of zero is not defined")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_square_rational(x: Fraction) -> bool:
    """True when x is the square of a rational (0 counts)."""
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def scientific(x: Fraction, digits: int) -> str:
    """x rounded to at most `digits` significant digits, as in 1.23e-5, without
    float(): float(x) reads 0 below about 1e-324 and overflows above 1.8e308."""
    ctx = decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return f"{ctx.divide(decimal.Decimal(x.numerator), x.denominator):e}"


def is_probable_prime(n: int) -> bool:
    # Miller-Rabin with the first 12 primes as bases: a proof for n < 3.18e23
    # (Sorenson and Webster 2015)
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_base(n: int) -> int | None:
    """The prime l with n = l^f for some f >= 1; None unless n is such a
    power of a prime l < 2^78, below which is_probable_prime is a proof.
    isqrt takes out even exponents; for odd f, x -> x^f permutes the odd
    residues mod 2^78, so l can only be the f-th root of n mod 2^78: one
    small pow per f, fast at thousands of digits. The largest f comes first,
    and its root is l itself."""
    if n < 3 or n % 2 == 0:
        return 2 if n >= 2 and n & (n - 1) == 0 else None
    while (r := isqrt(n)) * r == n:
        n = r
    bits, low = n.bit_length(), n % (1 << 78)
    for f in range(bits | 1, 0, -2):
        r = pow(low, pow(f, -1, 1 << 76), 1 << 78)
        if (r.bit_length() - 1) * f < bits <= r.bit_length() * f and r ** f == n:
            return r if is_probable_prime(r) else None
    return None


def brief(n: int) -> str:
    """n in full up to 40 digits; a longer n as its leading digits and its
    length, so that a message stays one readable line."""
    text = str(n)
    digits = len(text) - (n < 0)
    return text if digits <= 40 else f"{text[:20 + (n < 0)]}... ({digits} digits)"


# ---------------------------------------------------------------------------
# the field Q(zeta_m)
# ---------------------------------------------------------------------------

_EMBEDDING_DPS = 50  # digits of CyclotomicField.cosines; an irrational entry errs by 10^-(dps - 5)
_COSINE_GUARD_DIGITS = 10  # working digits of CyclotomicField.cosines beyond _EMBEDDING_DPS
SQRT_DIGITS = 50     # digits of the sqrt(d) bounds in every normalized leading term
DEFAULT_DEN_BOUND = 10 ** 6  # the recognizers' denominator bound unless a dataset sets one


def _fixed_pi(one: int) -> int:
    """pi * one, for one = 10^d, by Machin's pi = 16 arccot 5 - 4 arccot 239.
    The k-th term of arccot x is floor(one / x^(2k+1)) exactly (nested
    floors), and its division by 2k + 1 errs by under 1; each series has
    fewer than d nonzero terms and a tail under 1, so the result errs by
    under 20(d + 1)."""
    def arccot(x: int) -> int:
        total = term = one // x
        n, sign = 3, -1
        while term:
            term //= x * x
            total += sign * (term // n)
            n, sign = n + 2, -sign
        return total
    return 16 * arccot(5) - 4 * arccot(239)


def _fixed_cis(t: int, one: int) -> tuple[int, int]:
    """(cos, sin) of theta = t / one, times one, for 0 < theta < 2.1, by the
    Taylor series of exp(i theta). Term n is term n-1 times theta/n, floored,
    so its error stays under 2; for one = 10^d, d >= 60, fewer than d terms
    are nonzero and the rest sum to under 3, so the two errors sum to under
    2d + 4."""
    cs, term, n = [one, 0, 0, 0], one, 0    # the coefficients of 1, i, -1, -i
    while term:
        n += 1
        term = term * t // (n * one)
        cs[n % 4] += term
    return cs[0] - cs[2], cs[1] - cs[3]


class CyclotomicField(Record, hashable=True):
    """Q(zeta_m) for m = p^n, p an odd prime, in the power basis
    1, z, ..., z^(phi-1).

    q = p^(n-1), so zeta_m^q = zeta_p and Phi_m(x) = sum_{i<p} x^(i*q);
    units lists (Z/m)^* as the a in [1, m) with p not dividing a, in
    increasing order (units[0] = 1), and generator is its smallest
    generator. Build it with cyclotomic_field(m).
    """

    def __init__(self, m: int, p: int, q: int, phi: int, units: tuple[int, ...]):
        self.m, self.p, self.q, self.phi, self.units = m, p, q, phi, units

    def reduce(self, poly: Sequence) -> list:
        """The integer polynomial poly in zeta_m, of any length, reduced
        modulo Phi_m: x^phi = -(1 + x^q + ... + x^((p-2)q))."""
        phi, q = self.phi, self.q
        cs = list(poly) + [0] * (phi - len(poly))
        # top-down, so every folded coefficient lands below the degree just cleared
        for d in range(len(cs) - 1, phi - 1, -1):
            c = cs[d]
            if c:
                for j in range(d - phi, d, q):
                    cs[j] -= c
        return cs[:phi]

    @cached_property
    def generator(self) -> int:
        """The smallest a in units of multiplicative order phi mod m. (Z/m)^*
        is cyclic for odd prime powers m, so a exists; it has order phi
        exactly when a^(phi/r) != 1 for every prime r dividing phi."""
        primes, rest, r = [], self.phi, 2
        while r * r <= rest:
            if rest % r == 0:
                primes.append(r)
                while rest % r == 0:
                    rest //= r
            r += 1
        if rest > 1:
            primes.append(rest)
        return next(a for a in self.units
                    if all(pow(a, self.phi // r, self.m) != 1 for r in primes))

    @cached_property
    def cosines(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(C, values, errors), integers over the one denominator C =
        10^_EMBEDDING_DPS: entry k, for k in [0, m), is the interval
        values[k]/C +- errors[k]/C around 2cos(2*pi*k/m), the image of
        zeta^k + zeta^-k under the canonical embedding zeta_m -> exp(2*pi*i/m).
        Entries k and m - k are equal. An entry is exact when 3k = 0 mod m
        (2 at k = 0, -1 at k = m/3 when m = 3^n), the only rational ones for
        odd m; every other is an integer rounded to the nearest unit of C.

        The table is built in integers at d = dps + G digits (G =
        _COSINE_GUARD_DIGITS), in units u = 10^-d. theta = 2pi/m comes from
        _fixed_pi and one floor, erring by under 40(d + 1)/m + 1 u; z_1 =
        exp(i theta) from _fixed_cis errs by under 2d + 4 u. The rotation
        z_(k+1) = z_k z_1 floors each component once, so after k steps z_k
        errs from exp(i k theta) by under k(2d + 6) u plus the angle error
        k(40(d + 1)/m + 1) u. At k <= m/2 <= MAX_P_ORDER/2 = 500 and d = 60
        that is under 2 * (500 * 126 + 1220 + 500) u < 1.3 * 10^5 u for
        2cos(k theta): under 10^-4 of a unit of C when G = 10, so each
        rounded entry lies within 1/2 + 10^-4 of a unit of the true value
        (and is the correctly rounded one unless that value falls within
        10^-4 of a rounding boundary), far inside the declared 10^5 units."""
        c, m = 10 ** _EMBEDDING_DPS, self.m
        guard = 10 ** _COSINE_GUARD_DIGITS
        one = c * guard
        cos_1, sin_1 = _fixed_cis(2 * _fixed_pi(one) // m, one) if m > 1 else (one, 0)
        values, errors = [2 * c], [0]
        cos_k, sin_k = one, 0
        for k in range(1, m // 2 + 1):
            cos_k, sin_k = ((cos_k * cos_1 - sin_k * sin_1) // one,
                            (sin_k * cos_1 + cos_k * sin_1) // one)
            if 3 * k % m == 0:
                values.append(-c)
                errors.append(0)
            else:
                values.append((2 * cos_k + guard // 2) // guard)
                errors.append(10 ** 5)    # 10^-(dps - 5) over C = 10^dps
        return (c, tuple(values[min(k, m - k)] for k in range(m)),
                tuple(errors[min(k, m - k)] for k in range(m)))

    def zeta_trace(self, j: int) -> int:
        """Tr(zeta_m^j) from Q(zeta_m) to Q: phi when m | j, -q = -m/p when
        q | j but m does not, and 0 otherwise (Washington, GTM 83, ch. 2)."""
        return self.phi if j % self.m == 0 else -self.q if j % self.q == 0 else 0

    def trace(self, x: "CyclotomicNumber") -> Fraction:
        """Tr(x) from Q(zeta_m) to Q, one zeta_trace per multiple of q below
        phi: the other powers of the basis have trace 0."""
        x = x.promote(self.m)
        return Fraction(sum(x.num[i] * self.zeta_trace(i) for i in range(0, self.phi, self.q)),
                        x.den)

    def valuation(self, x: "CyclotomicNumber") -> Fraction:
        """v(x) at the one prime above p, normalized v(p) = 1.

        p is totally ramified and pi = 1 - zeta_m is a uniformizer, v(pi) =
        1/phi, so 1, pi, ..., pi^(phi-1) is an integral basis whose terms
        b_i pi^i have valuations v_p(b_i) + i/phi, distinct mod 1: v(x) is
        their minimum. With x = f(zeta)/D, f integral, the b_i are up to sign
        the coefficients of f(1 + y), a Taylor shift of O(phi^2) additions."""
        b = list(x.num)
        for i in range(len(b) - 1):
            for j in range(len(b) - 2, i - 1, -1):
                b[j] += b[j + 1]
        scaled = [self.phi * rational_valuation(c, self.p) + i for i, c in enumerate(b) if c]
        if not scaled:
            raise ExactArithmeticError("valuation of zero is not defined")
        return Fraction(min(scaled), self.phi) - rational_valuation(x.den, self.p)


@lru_cache(maxsize=64)
def cyclotomic_field(m: int) -> CyclotomicField:
    """Q(zeta_m) for m = p^n with p an odd prime; cached, and a rejected m
    raises anew on every call."""
    p = prime_power_base(m)
    if p is None or p == 2:
        raise UnsupportedConductorError(f"conductor {m} is not an odd prime power")
    q = m // p
    return CyclotomicField(m=m, p=p, q=q, phi=q * (p - 1),
                           units=tuple(a for a in range(1, m) if a % p))


def euler_phi(m: int) -> int:
    return 1 if m == 1 else cyclotomic_field(m).phi


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class CyclotomicNumber:
    """(num[0] + num[1] z + ... + num[phi-1] z^(phi-1)) / den in Q(zeta_m), m = 1
    or an odd prime power, with den > 0 and gcd(den, *num) = 1, so equal
    elements of one conductor have equal (num, den). Built from ints or
    Fractions over den, padded with zeros to phi(m)."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs: Sequence = (), den: int = 1):
        phi, num = euler_phi(m), list(coeffs)
        if len(num) > phi or den < 1:
            raise ExactArithmeticError(f"{len(num)} coefficients over {den} are not an "
                                       f"element of Q(zeta_{m}), phi({m}) = {phi}")
        if not all(type(c) is int for c in num):
            fs = [as_fraction(c) for c in num]
            d = lcm(1, *(f.denominator for f in fs))
            num, den = [f.numerator * (d // f.denominator) for f in fs], den * d
        if den > 1 and (g := gcd(den, *num)) > 1:
            num, den = [c // g for c in num], den // g
        self.m, self.num, self.den = m, tuple(num) + (0,) * (phi - len(num)), den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions, for display."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # construction -----------------------------------------------------------

    @classmethod
    def rational(cls, x) -> "CyclotomicNumber":
        return cls(1, [x])

    @classmethod
    def zeta_power(cls, m: int, k: int) -> "CyclotomicNumber":
        """zeta_m^k as an element of Q(zeta_m)."""
        if m == 1:
            return cls.rational(1)
        return cls(m, cyclotomic_field(m).reduce([0] * (k % m) + [1]))

    def promote(self, m: int) -> "CyclotomicNumber":
        """Reinterpret in Q(zeta_m); only rational elements may change conductor."""
        if m == self.m:
            return self
        if self.is_rational():
            return CyclotomicNumber(m, self.num[:1], self.den)
        raise UnsupportedConductorError(
            f"cannot move an irrational element from conductor {self.m} to {m}")

    # predicates / accessors --------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_zero(self) -> bool:
        return not any(self.num)

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise ExactArithmeticError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # arithmetic --------------------------------------------------------------

    def _pair(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.rational(other)
        if not isinstance(other, CyclotomicNumber):
            raise TypeError(f"cannot combine CyclotomicNumber with {type(other).__name__}")
        if self.m != other.m and 1 not in (self.m, other.m):
            raise UnsupportedConductorError(f"mixed conductors {self.m} and {other.m}")
        m = max(self.m, other.m)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        g = gcd(a.den, b.den)
        sa, sb = b.den // g, a.den // g
        return CyclotomicNumber(a.m, [x * sa + y * sb for x, y in zip(a.num, b.num)],
                                a.den * sa)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.m, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a.m == 1:
            return CyclotomicNumber(1, [a.num[0] * b.num[0]], a.den * b.den)
        prod = [0] * (2 * len(a.num) - 1)
        terms = [(j, cj) for j, cj in enumerate(b.num) if cj]
        for i, ci in enumerate(a.num):
            if ci:
                for j, cj in terms:
                    prod[i + j] += ci * cj
        return CyclotomicNumber(a.m, cyclotomic_field(a.m).reduce(prod), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ExactArithmeticError("negative powers are not supported")
        result = CyclotomicNumber(self.m, [1])
        for _ in range(k):    # a sparse self keeps each product sparse, unlike squaring
            result = result * self
        return result

    def __eq__(self, other):
        # both sides in lowest terms: equal elements have equal integers, and
        # a rational equals another conductor's element only if both are rational
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.rational(other)
        elif not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.m == other.m:
            return self.den == other.den and self.num == other.num
        return (self.is_rational() and other.is_rational()
                and (self.num[0], self.den) == (other.num[0], other.den))

    def __hash__(self):
        if self.is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.m, self.num, self.den))

    def __repr__(self):
        if self.is_rational():
            return f"CyclotomicNumber({self.rational_part()})"
        cs = [(i, Fraction(n, self.den)) for i, n in enumerate(self.num) if n]
        terms = (str(c) if i == 0 else ("" if c == 1 else f"{c}*") + (f"z{i}" if i > 1 else "z")
                 for i, c in cs)
        return f"CyclotomicNumber(m={self.m}: {' + '.join(terms)})"

    # Galois action -----------------------------------------------------------

    def galois_apply(self, a: int) -> "CyclotomicNumber":
        """Image under zeta -> zeta^a; a must be coprime to the conductor."""
        if self.m == 1:
            return self
        field = cyclotomic_field(self.m)
        if a % field.p == 0:
            raise InvalidAutomorphismError(f"{a} is not coprime to conductor {self.m}")
        poly = [0] * self.m
        for i, c in enumerate(self.num):
            if c:
                poly[(a * i) % self.m] += c
        return CyclotomicNumber(self.m, field.reduce(poly), self.den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois_apply(-1)


def p_valuation(x, p: int) -> Fraction:
    """Normalized p-adic valuation, v(p) = 1; x rational or in Q(zeta_{p^n}).

    An irrational element of Q(zeta_{p^n}) is valuated at the unique prime
    above p (CyclotomicField.valuation); elements of Q(zeta_m) can only be
    valuated at m's own prime unless they are rational.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(rational_valuation(x, p))
    if not isinstance(x, CyclotomicNumber):
        raise TypeError(f"cannot take a valuation of {type(x).__name__}")
    if x.is_rational():
        return Fraction(rational_valuation(x.rational_part(), p))
    field = cyclotomic_field(x.m)
    if field.p != p:
        raise UnsupportedConductorError(
            f"valuation at {p} of an irrational element of Q(zeta_{x.m}) is ambiguous")
    return field.valuation(x)


# ---------------------------------------------------------------------------
# decimals with error bounds
# ---------------------------------------------------------------------------

class DecimalWithError(Record, hashable=True):
    """A real number known to lie in [value - abs_error, value + abs_error].

    It is stored as integers, value = num/den and abs_error = err/den over
    the least common denominator den > 0 of the two, so each interval has one
    form; every operator computes on those integers and _of reduces its result
    by one gcd. value and abs_error, the record's fields, are read back as
    Fractions."""

    def __init__(self, value: Fraction, abs_error: Fraction):
        value, abs_error = as_fraction(value), as_fraction(abs_error)
        if abs_error < 0:
            raise IntervalError("negative error bound")
        vd, ed = value.denominator, abs_error.denominator
        self.den = lcm(vd, ed)
        self.num = value.numerator * (self.den // vd)
        self.err = abs_error.numerator * (self.den // ed)

    @classmethod
    def _of(cls, num: int, err: int, den: int) -> "DecimalWithError":
        """num/den +- err/den for integers err >= 0 and den > 0."""
        g = gcd(num, err, den)
        x = cls.__new__(cls)
        x.num, x.err, x.den = num // g, err // g, den // g
        return x

    @classmethod
    def exact(cls, value) -> "DecimalWithError":
        value = as_fraction(value)
        return cls._of(value.numerator, 0, value.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def abs_error(self) -> Fraction:
        return Fraction(self.err, self.den)

    # interval arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "DecimalWithError":
        if isinstance(other, DecimalWithError):
            return other
        return DecimalWithError.exact(other)

    def __add__(self, other):
        o = self._coerce(other)
        return DecimalWithError._of(self.num * o.den + o.num * self.den,
                                    self.err * o.den + o.err * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return DecimalWithError._of(-self.num, self.err, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        a, ae, b, be = self.num, self.err, o.num, o.err
        return DecimalWithError._of(a * b, abs(a) * be + abs(b) * ae + ae * be,
                                    self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        a, ae, b, be = self.num, self.err, abs(o.num), o.err
        if b <= be:
            raise IntervalError("division by an interval containing zero")
        # |a/b - a0/b0| <= (|a0|*eb + |b0|*ea) / (|b0| * (|b0| - eb)) is the
        # tight bound; use the slightly looser monotone one,
        # (ea + |a0/b0| * eb) / (|b0| - eb)
        value = a * o.den * (b - be)
        return DecimalWithError._of(value if o.num > 0 else -value,
                                    (ae * b + abs(a) * be) * o.den, self.den * b * (b - be))

    def sqrt(self, digits: int = 40) -> "DecimalWithError":
        """Interval square root via integer isqrt at the given precision."""
        if self.num < self.err:
            raise IntervalError("square root of an interval reaching below zero")
        square = 10 ** (2 * digits)
        lo = isqrt((self.num - self.err) * square // self.den)
        hi = isqrt((self.num + self.err) * square // self.den) + 1
        return DecimalWithError._of(lo + hi, hi - lo, 2 * 10 ** digits)

    # predicates ---------------------------------------------------------------

    def contains(self, x) -> bool:
        x = as_fraction(x)
        return (abs(self.num * x.denominator - x.numerator * self.den)
                <= self.err * x.denominator)

    def overlaps(self, other: "DecimalWithError") -> bool:
        return (abs(self.num * other.den - other.num * self.den)
                <= self.err * other.den + other.err * self.den)

    def is_positive(self) -> bool:
        return self.num > self.err

    def __repr__(self):
        return (f"DecimalWithError({scientific(self.value, 12)} "
                f"+- {scientific(self.abs_error, 3)})")


def common_denominator(intervals: Iterable[DecimalWithError]) -> int:
    """The least D with D*x.value and D*x.abs_error integers for every x."""
    return lcm(1, *(x.den for x in intervals))


def scaled(x: DecimalWithError, d: int) -> tuple[int, int]:
    """(D*value, D*abs_error) for a common denominator D of x."""
    return x.num * (d // x.den), x.err * (d // x.den)


def sqrt_rational_approx(n: int, digits: int = 40) -> DecimalWithError:
    """Rational approximation of sqrt(n) for n >= 0; exact for perfect squares."""
    if n < 0:
        raise IntervalError("negative radicand")
    r = isqrt(n)
    if r * r == n:
        return DecimalWithError.exact(r)
    return DecimalWithError.exact(Fraction(n)).sqrt(digits)


# ---------------------------------------------------------------------------
# real embeddings
# ---------------------------------------------------------------------------

def real_embedding(x: CyclotomicNumber) -> DecimalWithError:
    """The image of x under the canonical embedding zeta_m -> exp(2*pi*i/m);
    raises NotRealError unless x is fixed by complex conjugation.

    A real x = sum c_i zeta^i equals (1/2) sum c_i (zeta^i + zeta^-i), so its
    image is (1/2) sum c_i T[i] against the cosine table T, one integer dot
    product, with error (1/2) sum |c_i| e_i."""
    if x.m == 1 or x.is_rational():
        return DecimalWithError.exact(x.rational_part())
    if x != x.conjugate():
        raise NotRealError(f"complex conjugation moves this element of Q(zeta_{x.m})")
    c, values, errors = cyclotomic_field(x.m).cosines
    ns, d = x.num, x.den    # c_i = ns[i] / d
    return DecimalWithError._of(sum(map(mul, ns, values)),
                                sum(abs(n) * e for n, e in zip(ns, errors)), 2 * c * d)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def _simplest_between(ln: int, ld: int, hn: int, hd: int) -> tuple[int, int]:
    """(num, den) in lowest terms of the fraction with the smallest denominator
    in [ln/ld, hn/hd], ld, hd > 0 (ties: closest to 0).

    For 0 < lo, an integer walk down the continued fractions: while no integer
    lies in [lo, hi], a = floor(lo) is a shared term and [lo, hi] becomes
    [1/(hi - a), 1/(lo - a)]; the last term is lo or floor(lo) + 1. The walk
    reads only the values of the endpoints, so they need not be reduced."""
    if ln * hd > hn * ld:
        raise IntervalError("empty interval")
    if hn < 0:
        num, den = _simplest_between(-hn, hd, -ln, ld)
        return -num, den
    if ln <= 0:
        return 0, 1
    h0, k0, h1, k1 = 0, 1, 1, 0    # the two convergents before the current term
    while True:
        a, rest = divmod(ln, ld)
        if rest == 0 or (a + 1) * hd <= hn:
            a += rest > 0    # the last term: lo itself, or the integer above it
            return a * h1 + h0, a * k1 + k0
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        ln, ld, hn, hd = hd, hn - a * hd, ld, rest


def _farey_neighbors(c: Fraction, bound: int) -> tuple[Fraction, Fraction]:
    """The Farey-sequence neighbors of c at order `bound` (c's own denominator <= bound)."""
    p, q = c.numerator, c.denominator
    # right neighbor a/b with a*q - p*b = 1, b maximal <= bound
    # left neighbor with p*b - a*q = 1
    if q == 1:
        b = bound
        return Fraction(p * b - 1, b), Fraction(p * b + 1, b)

    def neighbor(sign: int) -> Fraction:
        # find b in [1, bound] with p*b = sign (mod q), b maximal
        binv = pow(p % q, -1, q)
        b0 = (sign * binv) % q
        if b0 == 0:
            b0 = q
        b = b0 + ((bound - b0) // q) * q
        a = (p * b - sign) // q
        return Fraction(a, b)
    return neighbor(1), neighbor(-1)


def rational_reconstruct(x: DecimalWithError, den_bound: int = DEFAULT_DEN_BOUND) -> Fraction:
    """The unique rational with denominator <= den_bound within twice the
    input's error bound of x.

    Raises RecognitionError when no candidate exists and
    AmbiguousRecognitionError when the interval admits a second candidate of
    admissible denominator.
    """
    v, e, d = x.num, x.err, x.den
    lo, hi = v - 2 * e, v + 2 * e    # the bracket [lo/d, hi/d]
    c = Fraction(*_simplest_between(lo, d, hi, d))
    if c.denominator > den_bound:
        raise RecognitionError(
            f"no rational with denominator <= {den_bound} within "
            f"{scientific(Fraction(2 * e, d), 3)} of {scientific(x.value, 12)}")
    # a Farey neighbor differs from c; one of them lies in the bracket exactly
    # when a second candidate does
    for other in _farey_neighbors(c, den_bound):
        if lo * other.denominator <= other.numerator * d <= hi * other.denominator:
            raise AmbiguousRecognitionError(
                f"both {c} and {other} fit the interval at denominator bound {den_bound}")
    return c


class AlgebraicOrbit(Record, hashable=True):
    """Result of recognizing a family of real algebraic numbers in Q(zeta_m).

    values    -- exact elements, aligned with the input order
    min_poly  -- monic minimal polynomial of the distinct values, ascending
                 rational coefficients [c0, c1, ..., 1]
    """

    def __init__(self, values: tuple[CyclotomicNumber, ...], min_poly: tuple[Fraction, ...]):
        self.values, self.min_poly = values, min_poly


def _min_poly_of(values: Sequence[CyclotomicNumber]) -> tuple[Fraction, ...]:
    """The monic polynomial of the distinct values, one whole conjugate set.
    With D a common denominator, the D*x are algebraic integers, so Newton's
    identities j b_j = -(b_(j-1) p_1 + ... + b_0 p_j) on their power sums p_j
    run in integers and each division by j is exact; b_j / D^j is then the
    coefficient of X^(d-j). p_j is the sum of the j-th powers of rational
    values, and otherwise (d/phi) Tr(y^j) for y = D*x, x any one value."""
    distinct = list(dict.fromkeys(values))
    d = len(distinct)
    if all(v.is_rational() for v in distinct):
        den = lcm(*(v.den for v in distinct))
        ys = [v.num[0] * (den // v.den) for v in distinct]
        sums = [sum(y ** j for y in ys) for j in range(1, d + 1)]
    else:
        x = distinct[0]
        field, den = cyclotomic_field(x.m), x.den
        sums = [d * field.trace(y).numerator // field.phi    # y, y^2, ..., y^d
                for y in accumulate(repeat(CyclotomicNumber(x.m, x.num), d), mul)]
    b = [1]
    for j in range(1, d + 1):
        b.append(-sum(b[j - i] * sums[i - 1] for i in range(1, j + 1)) // j)
    return tuple(Fraction(b[j], den ** j) for j in range(d, -1, -1))


def _subfield_element(xs: Sequence[DecimalWithError], field: CyclotomicField,
                      units: Sequence[int], den_bound: int) -> CyclotomicNumber:
    """The x of the real subfield of degree k = len(xs) with xs[i] ~
    sigma_units[i](x), from its power-basis coordinates.

    For i, j < phi, Tr(zeta^(i-j)) = m[i = j] - q[i = j mod q], so the trace
    form inverts in closed form: m c_j = T_j + sum_(l < phi, l = j mod q) T_l
    with T_j = Tr(x zeta^-j), which for a real x is (1/2) sum over the units
    a of sigma_a(x) 2cos(2 pi a j/m). The cosines of each coset aH of the
    k-th powers H are pooled in integers over the table's denominator C,
    against the inputs over theirs, D."""
    m, phi, q, k = field.m, field.phi, field.q, len(xs)
    if k < 1 or phi % (2 * k):
        raise RecognitionError(f"Q(zeta_{m}) has no real subfield of degree {k}")
    keys = [pow(a, phi // k, m) for a in units]
    if sorted(keys) != sorted(pow(field.generator, i * phi // k, m) for i in range(k)):
        raise ExactArithmeticError(
            f"units {list(units)} do not name the {k} cosets of an orbit in Q(zeta_{m})")
    h = pow(field.generator, k, m)
    cosets = [[a * pow(h, i, m) % m for i in range(phi // k)] for a in units]
    c, cos_v, cos_e = field.cosines
    d = common_denominator(xs)
    inputs = [scaled(y, d) for y in xs]
    tv, te = [], []    # value and error of 2*D*C*T_j
    for j in range(phi):
        value = error = 0
        for (xv, xe), coset in zip(inputs, cosets):
            pv = sum(cos_v[a * j % m] for a in coset)
            pe = sum(cos_e[a * j % m] for a in coset)
            value += xv * pv
            error += abs(xv) * pe + abs(pv) * xe + xe * pe
        tv.append(value)
        te.append(error)
    class_v, class_e = [sum(tv[r::q]) for r in range(q)], [sum(te[r::q]) for r in range(q)]
    den = 2 * d * c * m
    x = CyclotomicNumber(m, [rational_reconstruct(DecimalWithError._of(
        tv[j] + class_v[j % q], te[j] + class_e[j % q], den), den_bound) for j in range(phi)])
    # the conjugates are the sigma_a(x), a in units, only when H fixes x
    if x.galois_apply(h) != x:
        raise RecognitionError(f"the recognized element is not in the subfield of degree {k}")
    return x


def recognize_orbit(xs: Sequence[DecimalWithError], m: int, units: Sequence[int],
                    den_bound: int = DEFAULT_DEN_BOUND) -> AlgebraicOrbit:
    """Recognize xs as the Galois orbit of one real x in Q(zeta_m).

    Aligned inputs: xs[i] ~ sigma_a(x) for a = units[i], the units naming
    the k = len(xs) cosets of the k-th powers in (Z/m)^* (groups.orbit_units
    aligns every character orbit). Each entry is first tried as a rational
    of denominator <= den_bound. Otherwise x lies in the real subfield of
    degree k, and each coordinate of x in the power basis is read from the
    explicit inverse of the trace form, with denominator <= den_bound; the
    orbit is sigma_a(x), a in units. Each value is checked against its input."""
    if len(xs) == 1:
        # a singleton orbit must be rational; let recognition errors
        # (including ambiguity) surface with their own reasons
        values = (CyclotomicNumber.rational(rational_reconstruct(xs[0], den_bound)),)
    else:
        try:
            values = tuple(CyclotomicNumber.rational(rational_reconstruct(x, den_bound))
                           for x in xs)
        except RecognitionError:
            x = _subfield_element(xs, cyclotomic_field(m), units, den_bound)
            values = tuple(x.galois_apply(a) for a in units)
    poly = _min_poly_of(values)

    # verification: every exact value must sit inside (a slight widening of)
    # its input interval, |x - emb| <= (2 x_err + emb_err) + emb_err, compared
    # over the two denominators
    for x, v in zip(xs, values):
        emb = real_embedding(v)
        if abs(x.num * emb.den - emb.num * x.den) > 2 * (x.err * emb.den + emb.err * x.den):
            raise RecognitionError("recognized value does not match its input interval")
    return AlgebraicOrbit(values=values, min_poly=poly)
