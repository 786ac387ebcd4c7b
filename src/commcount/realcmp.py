"""Exact sign, comparison and absolute value for real cyclotomic numbers.

The sign of a real element of Q(zeta_N) is decided without floating point:
an exact zero test first (canonical forms are unique), then rational
interval enclosures of sum_k c_k cos(2 pi k / N), refined until zero is
excluded.  Square roots of non-negative rationals are produced as exact
cyclotomic values via quadratic Gauss sums, so absolute values of character
values stay inside the field.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm

from .cyclo import Cyclo, cyclo_root

_ZERO = Fraction(0)


def _dyadic_floor(x: Fraction, terms: int) -> Fraction:
    # x rounded down to a multiple of 2^-(5 terms), below 5^-(2 terms), the
    # error of pi_bounds(terms).  Rounding the enclosures onto this grid
    # keeps their denominators from growing with every term.
    scale = 1 << (5 * terms)
    return Fraction(x.numerator * scale // x.denominator, scale)


@cache
def pi_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Rational lo < pi < hi from Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239), with alternating-series tail bounds,
    rounded outward onto the grid of `_dyadic_floor`."""

    def atan_bounds(inv_x: int) -> tuple[Fraction, Fraction]:
        # atan(1/inv_x) for inv_x > 1: partial sums of the alternating
        # series bracket the limit on both sides
        total = _ZERO
        x = Fraction(1, inv_x)
        power = x
        below = above = total
        for j in range(terms):
            term = power / (2 * j + 1)
            total = total - term if j % 2 else total + term
            if j % 2:
                below = total
            else:
                above = total
            power *= x * x
        if terms % 2:
            below = total - power / (2 * terms + 1)
        else:
            above = total + power / (2 * terms + 1)
        return below, above

    lo5, hi5 = atan_bounds(5)
    lo239, hi239 = atan_bounds(239)
    return (
        _dyadic_floor(16 * lo5 - 4 * hi239, terms),
        -_dyadic_floor(4 * lo239 - 16 * hi5, terms),
    )


def cos_bounds(lo: Fraction, hi: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of cos over the interval [lo, hi].

    Taylor expansion at the midpoint, rounded onto the grid of
    `_dyadic_floor`, with a geometric tail bound, widened by the distance
    to the farther end of the argument interval (|cos'| <= 1)."""
    mid = _dyadic_floor((lo + hi) / 2, terms)
    halfwidth = max(hi - mid, mid - lo)
    t2 = mid * mid
    total = Fraction(1)
    power = Fraction(1)
    for i in range(1, terms):
        power *= t2 / ((2 * i - 1) * (2 * i))
        total = total - power if i % 2 else total + power
    tail_num = abs(mid) ** (2 * terms)
    tail = Fraction(tail_num, factorial(2 * terms))
    ratio = t2 / ((2 * terms + 1) * (2 * terms + 2))
    if ratio >= Fraction(1, 2):
        raise ValueError("too few Taylor terms for this argument size")
    slack = 2 * tail + halfwidth
    return total - slack, total + slack


@cache
def _cos_enclosure(k: int, n: int, terms: int) -> tuple[Fraction, Fraction]:
    """`cos_bounds` of cos(2 pi k / n) at the `pi_bounds` of `terms`."""
    pi_lo, pi_hi = pi_bounds(terms)
    return cos_bounds(2 * k * pi_lo / n, 2 * k * pi_hi / n, terms)


def _enclose_real(v: Cyclo, terms: int) -> tuple[Fraction, Fraction]:
    # v is real, so v = Re(v) = sum_k c_k cos(2 pi k / N) / den; the sum
    # is enclosed first and divided by den > 0 at the end
    n = v.conductor
    lo = hi = _ZERO
    for k, c in enumerate(v.ints):
        if not c:
            continue
        if k == 0:
            lo += c
            hi += c
            continue
        c_lo, c_hi = _cos_enclosure(k, n, terms)
        if c >= 0:
            lo += c * c_lo
            hi += c * c_hi
        else:
            lo += c * c_hi
            hi += c * c_lo
    return lo / v.den, hi / v.den


def real_cyclo_sign(v: Cyclo) -> int:
    """-1, 0 or +1 for a real cyclotomic value; exact."""
    if not v.is_real():
        raise ValueError(f"value is not real: {v}")
    if v.is_zero():
        return 0
    if v.is_rational():
        return 1 if v.ints[0] > 0 else -1  # den > 0
    terms = 12
    for _ in range(8):
        lo, hi = _enclose_real(v, terms)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        terms *= 2
    raise RuntimeError(f"sign of {v} did not resolve; enclosure stuck at 0")


def compare(a: Cyclo, b: Cyclo | int | Fraction) -> int:
    """-1, 0 or +1 as the real value a is <, = or > b."""
    return real_cyclo_sign(a - b)


def _squarefree_split(m: int) -> tuple[int, int]:
    # m = s*s * f with f squarefree
    s, f, d = 1, 1, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            f *= d
        d += 1
    return s, f * m


def _sqrt_prime(p: int) -> Cyclo:
    if p == 2:
        return cyclo_root(8, 1) - cyclo_root(8, 3)
    # quadratic Gauss sum: sum over k of legendre(k, p) zeta_p^k equals
    # sqrt(p) when p = 1 mod 4 and i*sqrt(p) when p = 3 mod 4
    gauss = Cyclo.zero()
    for k in range(1, p):
        if pow(k, (p - 1) // 2, p) == 1:
            gauss = gauss + cyclo_root(p, k)
        else:
            gauss = gauss - cyclo_root(p, k)
    if p % 4 == 1:
        return gauss
    return gauss * cyclo_root(4, 3)


def sqrt_rational_as_cyclo(q) -> Cyclo:
    """The non-negative square root of a rational q >= 0, as an exact
    cyclotomic value (built from quadratic Gauss sums)."""
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"square root of a negative rational: {q}")
    if q == 0:
        return Cyclo.zero()
    # sqrt(a/b) = sqrt(a*b) / b
    m = q.numerator * q.denominator
    s, f = _squarefree_split(m)
    root = Cyclo.rational(Fraction(s, q.denominator))
    d = 2
    rest = f
    while rest > 1:
        if rest % d == 0:
            root = root * _sqrt_prime(d)
            rest //= d
        d += 1
    if root * root != q:
        raise RuntimeError(f"square-root construction failed for {q}")
    if real_cyclo_sign(root) < 0:
        root = -root
    return root


def abs_as_cyclo(v: Cyclo) -> Cyclo:
    """|v| as an exact cyclotomic value.

    Real values are negated if negative.  For a complex v with |v|^2
    rational (roots of unity, most character values) the result is a
    Gauss-sum square root.  Otherwise v must be a real value times a root
    of unity u of Q(zeta_lcm(2, N)), such as a real character value times
    a linear one, and |v| = |v / u|."""
    if v.is_real():
        return -v if real_cyclo_sign(v) < 0 else v
    norm = v * v.conj()
    if norm.is_rational():
        return sqrt_rational_as_cyclo(norm.to_rational())
    m = lcm(2, v.conductor)
    for k in range(1, m):
        w = v * cyclo_root(m, -k)
        if w.is_real():
            return abs_as_cyclo(w)
    raise ValueError(
        f"|{v}| is not supported: |v|^2 is irrational and v is no real "
        "value times a root of unity"
    )
