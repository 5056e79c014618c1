"""Exact arithmetic for germs at q -> 1-.

A subset S of the naturals has generating function S_q = sum_{n in S} q^n.
Two such functions are compared by their *germs*: f dominates g if f >= g on
some interval (1-eps, 1).  For eventually periodic sets the generating
functions are rational, of the form P(q)/(1-q^d), and the germ order is total
and computable exactly: substitute t = 1-q and look at the sign of the lowest
nonzero coefficient of the t-expansion.

`_leading_gap` settles rational comparisons and gaps on the closed forms
f = N(1)/(d t) + (N(1)(d-1) - 2N'(1))/(2d) + O(t) of f = N(q)/(1 - q^d).
Past those two orders, one routine, `_t_series`, computes t-coefficients,
by repeated exact division by (q - 1); every polynomial sign, every tie
and every Laurent coefficient here is read off it (the line kernel settles
its ties in closed form, `local.germ_greater`).  The only product is
`_times_one_minus_power`, by 1 - q^d: `IntPolynomial` is a tuple of int
coefficients with no ring arithmetic of its own.

No floating point is used anywhere (the t-expansion's binomial coefficients
overflow fixed-width types almost at once).  Ints inside, Fraction at the API:
a rational is an int pair, polynomials are built and summed in C-level passes,
a `Fraction` is built only where a public function returns one
(`germ_gap`, `laurent_prefix`, `sets.valuation`), and a set's numerator only
when read (`RationalGF._deferred`); an order reads a sign.

Orderings are reported as LESS (-1), EQUAL (0), GREATER (+1), so that
swapping arguments negates the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, starmap, zip_longest
from operator import mul, sub

LESS = -1
EQUAL = 0
GREATER = 1

ORDER_NAMES = {LESS: "Less", EQUAL: "Equal", GREATER: "Greater"}
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # "0"/"1" to 0/1, by bytes.translate


def _sums(c):
    """(N(1), N'(1)) for the polynomial N with coefficients c."""
    return sum(c), sum(map(mul, range(len(c)), c))


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


def _term_sign(term) -> int:
    """Order given by a leading (order, coefficient, ...) term; EQUAL for None."""
    return EQUAL if term is None else (GREATER if term[1] > 0 else LESS)


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    coeffs[i] multiplies q**i; trailing zeros are stripped so the zero
    polynomial is the empty tuple.  Non-int coefficients, bools too, are refused.
    """

    coeffs: tuple[int, ...] = ()
    _BITS = {(str, "0"): 0, (str, "1"): 1, (int, 0): 0, (int, 1): 1}

    def __post_init__(self):
        c = list(self.coeffs)  # a bytes object holds only ints, so it goes unchecked
        if type(self.coeffs) is not bytes and not {int}.issuperset(map(type, c)):
            raise ValueError(f"coefficients must be ints, got {self.coeffs!r}")
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @classmethod
    def from_bits(cls, bits) -> IntPolynomial:
        """Indicator polynomial of 0/1 bits, "0"/"1" or ints (not bools): q**i for each 1."""
        if type(bits) is str and not bits.strip("01"):  # checked once, decoded whole
            return cls(bits.rstrip("0").encode().translate(_BIT_VALUES))
        try:
            return cls(tuple(cls._BITS[type(b), b] for b in bits))
        except (KeyError, TypeError):
            raise ValueError(f"bits must be 0/1 or '0'/'1', got {bits!r}") from None


def _check_natural(value, what: str, least: int = 1):
    """Raise unless `value` is an int (bools refused) of at least `least`, 0 or 1."""
    if type(value) is not int or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")
    return value


def _times_one_minus_power(coeffs, d: int) -> list[int]:
    """The coefficients of sum(coeffs[i] * q**i) * (1 - q**d), as a list."""
    pad = (0,) * d
    return list(map(sub, (*coeffs, *pad), (*pad, *coeffs)))


def one_minus_power(d: int) -> IntPolynomial:
    """The polynomial 1 - q**d."""
    _check_natural(d, "power")
    return IntPolynomial((1,) + (0,) * (d - 1) + (-1,))


def poly_sign_near_one(p: IntPolynomial) -> int:
    """Sign of p(q) for all q in some interval (1-eps, 1); 0 iff p == 0.

    t = 1 - q is small and positive there, so the lowest t-term decides.
    """
    return _term_sign(_lowest_t_term(p.coeffs))


def poly_germ_compare(p: IntPolynomial, r: IntPolynomial) -> int:
    """Total order on polynomials by germ at 1-: the sign of p - r there.  Its t-terms
    of orders 0 and 1 are the gaps in N(1) and -N'(1); only a tie of both expands it."""
    a, b = p.coeffs, r.coeffs
    gap = sum(a) - sum(b) or _sums(b)[1] - _sums(a)[1]
    if gap:
        return GREATER if gap > 0 else LESS
    return _term_sign(_lowest_t_term(list(starmap(sub, zip_longest(a, b, fillvalue=0)))))


@dataclass(frozen=True)
class RationalGF:
    """Rational generating function numerator(q) / (1 - q**period).

    Not reduced to lowest terms; germ equality is semantic and decided by
    cross-multiplication (see germ_compare), which avoids any gcd machinery.
    A set's GF (`_deferred`) builds its numerator on first read and stores
    it, so ==, hash, repr, pickle and copy see an eager GF's fields.
    """

    numerator: IntPolynomial
    period: int

    def __post_init__(self):
        _check_natural(self.period, "period")

    @classmethod
    def _deferred(cls, pre: str, rep: str, moments) -> RationalGF:
        """The GF of the set pre, then rep forever, and its `_moments`, which most orders read."""
        gf = cls.__new__(cls)
        gf.__dict__.update(period=len(rep), _moments=moments, _bits=(pre, rep))
        gf.__post_init__()
        return gf

    def __getattr__(self, name):
        """A deferred numerator pre(q)(1 - q**d) + q**len(pre) rep(q): coefficient
        i is bit i of pre + rep less bit i - d of pre, one pass over ASCII
        codes, which differ as bits do.  Every other missing name raises."""
        bits = self.__dict__.get("_bits") if name == "numerator" else None
        if bits is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pre, rep = bits
        coeffs = map(sub, (pre + rep).encode(), ("0" * len(rep) + pre).encode())
        object.__setattr__(self, "numerator", IntPolynomial(tuple(coeffs)))
        return self.numerator

    @cached_property
    def _moments(self) -> tuple[int, int, int]:
        """(N(1), N'(1), d) for N the numerator and d the period, summed once
        per instance; `sets.generating_function` hands over its set's."""
        return (*_sums(self.numerator.coeffs), self.period)


def _cross_numerator(f: RationalGF, g: RationalGF) -> list[int]:
    """num(f)*(1-q^{dg}) - num(g)*(1-q^{df}): f - g over (1-q^{df})(1-q^{dg})."""
    a = _times_one_minus_power(f.numerator.coeffs, g.period)
    b = _times_one_minus_power(g.numerator.coeffs, f.period)
    return list(starmap(sub, zip_longest(a, b, fillvalue=0)))


def _a0_numerator(n1: int, dn1: int, d: int) -> int:
    """2d times the constant term of N(q)/(1 - q**d), from N(1) and N'(1)."""
    return n1 * (d - 1) - 2 * dn1


def _leading_gap(mf, mg, gfs):
    """Leading Laurent term (order, numerator, denominator > 0) of f - g at t = 1 - q; None if f == g.

    Orders -1 and 0 by cross-multiplying the `_moments` triples mf, mg; only
    on a tie of both is the pair (f, g) = gfs() built.  Its cross numerator
    is f - g times (1-q^{df})(1-q^{dg}) = t**2 u_f u_g, u_f(0) u_g(0) = df*dg,
    so a lowest cross term c*t**j gives c/(df*dg) at order j - 2.
    """
    (nf, dnf, pf), (ng, dng, pg) = mf, mg
    c = nf * pg - ng * pf
    if c:
        return -1, c, pf * pg
    c = _a0_numerator(nf, dnf, pf) * pg - _a0_numerator(ng, dng, pg) * pf
    if c:
        return 0, c, 2 * pf * pg
    term = _lowest_t_term(_cross_numerator(*gfs()))
    return None if term is None else (term[0] - 2, term[1], pf * pg)


def germ_compare(f: RationalGF, g: RationalGF) -> int:
    """Total order on rational generating functions by germ at 1-: germ_gap's sign."""
    return _term_sign(_leading_gap(f._moments, g._moments, lambda: (f, g)))


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


def laurent_prefix(f: RationalGF, count: int = 4) -> LaurentPrefix:
    """First `count` Laurent coefficients of f at t = 1 - q, exactly.

    Substituting q = 1 - t turns the denominator 1 - (1-t)**d into t*u(t)
    with u(0) = d, so f = (N(t)/u(t)) / t and the series N/u (computed by
    truncated power-series division over the rationals) gives the
    coefficients of orders -1, 0, 1, ...  Only the first `count`
    t-coefficients of N and of u are expanded.
    """
    _check_natural(count, "count")
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
    at order 0, the constant-term level.  The sign of value is germ_compare.
    """
    gap = _leading_gap(f._moments, g._moments, lambda: (f, g))
    return gap and (gap[0], Fraction(gap[1], gap[2]))
