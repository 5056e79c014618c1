"""Exact arithmetic for germs at q -> 1-.

A subset S of the naturals has generating function S_q = sum_{n in S} q^n.
Two such functions are compared by their *germs*: f dominates g if f >= g on
some interval (1-eps, 1).  For eventually periodic sets the generating
functions are rational, of the form P(q)/(1-q^d), and the germ order is total
and computable exactly: substitute t = 1-q and look at the sign of the lowest
nonzero coefficient of the t-expansion.

One routine, `_t_series`, computes t-coefficients, by repeated exact
division by (q - 1).  Every sign near 1, every comparison, every leading
gap and every Laurent coefficient here is read off it.

Everything here is integer/rational arithmetic; no floating point is used
anywhere (the binomial coefficients that appear in the t-expansion overflow
fixed-width types almost immediately).

Orderings are reported as LESS (-1), EQUAL (0), GREATER (+1), so that
swapping arguments negates the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, zip_longest

LESS = -1
EQUAL = 0
GREATER = 1

ORDER_NAMES = {LESS: "Less", EQUAL: "Equal", GREATER: "Greater"}


def _t_series(coeffs):
    """Yield the coefficients of sum(coeffs[i] * q**i) in powers of t = 1 - q.

    Repeatedly divides by (q - 1): the value at q = 1 before each division
    is the next t-coefficient up to sign, and since q - 1 = -t each division
    flips the sign.  Lazy, so callers that need only the lowest terms pay
    only for those; every coefficient past the last one yielded is 0.
    """
    work = list(coeffs)
    while work and not work[-1]:
        work.pop()
    flip = 1
    while work:
        yield flip * sum(work)
        # the quotient by (q - 1): b[i] = c[i+1] + c[i+2] + ...
        work = list(accumulate(reversed(work[1:])))[::-1]
        flip = -flip


def _lowest_t_term(coeffs):
    """(j, coefficient) of the lowest nonzero t-coefficient; None for zero."""
    for j, c in enumerate(_t_series(coeffs)):
        if c:
            return j, c
    return None


def _sign_near_one(coeffs) -> int:
    """Sign of sum(coeffs[i] * q**i) on some interval (1-eps, 1), exactly.

    t = 1 - q is small and positive there, so the lowest t-term decides.
    """
    term = _lowest_t_term(coeffs)
    return EQUAL if term is None else (GREATER if term[1] > 0 else LESS)


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    coeffs[i] multiplies q**i; trailing zeros are stripped so the zero
    polynomial is the empty tuple and degree == len(coeffs) - 1 otherwise.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_bits(cls, bits) -> IntPolynomial:
        """Indicator polynomial of a 0/1 string: sum of q**i over the 1s."""
        return cls(tuple(1 if b in (1, "1") else 0 for b in bits))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> IntPolynomial:
        return cls((0,) * power + (coefficient,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def shifted(self, power: int) -> IntPolynomial:
        """Multiply by q**power."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * power + self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner; exact when x is an int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def one_minus_power(d: int) -> IntPolynomial:
    """The polynomial 1 - q**d."""
    if d < 1:
        raise ValueError("power must be >= 1")
    return IntPolynomial((1,) + (0,) * (d - 1) + (-1,))


def poly_sign_near_one(p: IntPolynomial) -> int:
    """Sign of p(q) for all q in some interval (1-eps, 1); 0 iff p == 0."""
    return _sign_near_one(p.coeffs)


def poly_germ_compare(p: IntPolynomial, r: IntPolynomial) -> int:
    """Total order on polynomials by germ at 1-: the sign of p - r there."""
    return _sign_near_one([a - b for a, b in zip_longest(p.coeffs, r.coeffs, fillvalue=0)])


@dataclass(frozen=True)
class RationalGF:
    """Rational generating function numerator(q) / (1 - q**period).

    Not reduced to lowest terms; germ equality is semantic and decided by
    cross-multiplication (see germ_compare), which avoids any gcd machinery.
    """

    numerator: IntPolynomial
    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be >= 1")


def _cross_numerator(f: RationalGF, g: RationalGF) -> IntPolynomial:
    """num(f)*(1-q^{dg}) - num(g)*(1-q^{df}): f - g over (1-q^{df})(1-q^{dg})."""
    return f.numerator * one_minus_power(g.period) - g.numerator * one_minus_power(f.period)


def germ_compare(f: RationalGF, g: RationalGF) -> int:
    """Total order on rational generating functions by germ at 1-.

    Cross-multiplies: both denominators 1 - q**d are positive on (0, 1), so
    f - g has the sign of its cross numerator near 1.
    """
    return poly_sign_near_one(_cross_numerator(f, g))


@dataclass(frozen=True)
class LaurentPrefix:
    """Leading coefficients of the Laurent expansion in t = 1 - q.

    coefficients[j] is the exact rational coefficient of t**(j-1), i.e. the
    tuple starts at order -1.  For the germ of a set, the order -1 value is
    the set's density.
    """

    coefficients: tuple[Fraction, ...]

    @property
    def density(self) -> Fraction:
        return self.coefficients[0]

    @property
    def a0(self) -> Fraction:
        return self.coefficients[1]

    def coefficient(self, order: int) -> Fraction:
        return self.coefficients[order + 1]


def laurent_prefix(f: RationalGF, count: int = 4) -> LaurentPrefix:
    """First `count` Laurent coefficients of f at t = 1 - q, exactly.

    Substituting q = 1 - t turns the denominator 1 - (1-t)**d into t*u(t)
    with u(0) = d, so f = (N(t)/u(t)) / t and the series N/u (computed by
    truncated power-series division over the rationals) gives the
    coefficients of orders -1, 0, 1, ...  Only the first `count`
    t-coefficients of N and of u are expanded.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    num_t = list(islice(_t_series(f.numerator.coeffs), count))
    # u[i] = coeff of t**i in (1 - (1-t)**d) / t, so u(0) = d
    u = list(islice(_t_series(one_minus_power(f.period).coeffs), 1, count + 1))
    out = []
    for n in range(count):
        acc = Fraction(num_t[n] if n < len(num_t) else 0)
        for i in range(1, min(n + 1, len(u))):
            acc -= u[i] * out[n - i]
        out.append(acc / u[0])
    return LaurentPrefix(tuple(out))


def germ_gap(f: RationalGF, g: RationalGF):
    """Leading term of the Laurent expansion of f - g at t = 1 - q.

    Returns (order, value) for the first nonzero coefficient (order >= -1),
    or None when the germs are identical.  Equal densities show up as a gap
    at order 0, the constant-term level.

    f - g is the cross numerator over (1-q^{df})(1-q^{dg}) = t**2 u_f u_g
    with u_f(0) u_g(0) = df*dg, so a lowest cross term c*t**j gives
    c/(df*dg) at order j - 2; the cross numerator vanishes at q = 1, so j >= 1.
    """
    term = _lowest_t_term(_cross_numerator(f, g).coeffs)
    if term is None:
        return None
    j, c = term
    return j - 2, Fraction(c, f.period * g.period)
