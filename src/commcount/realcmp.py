"""Exact sign, comparison and absolute value for real cyclotomic numbers.

The sign of a real element of Q(zeta_N) is decided without floating point:
an exact zero test first (canonical forms are unique), then an integer
enclosure of sum_k c_k cos(2 pi k / N) * 2^(5 terms), refined by doubling
`terms` until zero is excluded.  The enclosure is a dot product of the
residue with a cached integer grid, the floor and the ceiling of
2^(5 terms) cos(2 pi k / N) for the phi(N) powers k of a residue, rounded
outward from rational enclosures of pi and cos; its sign is the value's,
since the denominator and the scale are positive.  Each rational cos
enclosure is computed once per reduced angle k/N with k <= N/2
(cos(2 pi k / N) = cos(2 pi (N - k) / N)), so every conductor shares the
angles of its divisors: dihedral:10 reuses those of dihedral:5.  Square
roots of non-negative rationals are produced as exact cyclotomic values via
quadratic Gauss sums, so absolute values of character values stay inside
the field.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, gcd, lcm

from .cyclo import Cyclo, cyclo_root, degree

_ZERO = Fraction(0)


def _scaled_floor(x: Fraction, terms: int) -> int:
    # floor(x * 2^(5 terms)): x on the grid of multiples of 2^-(5 terms),
    # below 5^-(2 terms), the error of pi_bounds(terms)
    return x.numerator * (1 << (5 * terms)) // x.denominator


def _dyadic_floor(x: Fraction, terms: int) -> Fraction:
    # x rounded down onto the grid of `_scaled_floor`.  Rounding the
    # enclosures onto it keeps their denominators from growing with every
    # term.
    return Fraction(_scaled_floor(x, terms), 1 << (5 * terms))


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
    # sum_{i < terms} (-1)^i t2^i / (2i)! by Horner's rule on one integer
    # fraction, normalized once
    a, b = t2.numerator, t2.denominator
    num = den = 1
    for i in range(terms - 1, 0, -1):
        q = b * (2 * i - 1) * (2 * i)
        num, den = den * q - a * num, den * q
    total = Fraction(num, den)
    tail_num = abs(mid) ** (2 * terms)
    tail = Fraction(tail_num, factorial(2 * terms))
    ratio = t2 / ((2 * terms + 1) * (2 * terms + 2))
    if ratio >= Fraction(1, 2):
        raise ValueError("too few Taylor terms for this argument size")
    slack = 2 * tail + halfwidth
    return total - slack, total + slack


@cache
def _cos_enclosure(k: int, n: int, terms: int) -> tuple[Fraction, Fraction]:
    """`cos_bounds` of cos(2 pi k / n) at the `pi_bounds` of `terms`; called
    with k / n reduced and k <= n / 2 only, so each angle is enclosed once."""
    pi_lo, pi_hi = pi_bounds(terms)
    return cos_bounds(2 * k * pi_lo / n, 2 * k * pi_hi / n, terms)


@cache
def _cos_grid(n: int, terms: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integers floor_k <= 2^(5 terms) cos(2 pi k / n) <= ceil_k for the
    powers k < phi(n) of a residue at conductor n: the `_cos_enclosure` of
    the reduced angle, rounded outward onto the grid of `_scaled_floor`."""
    floors, ceils = [], []
    for k in range(degree(n)):
        g = gcd(k, n)
        lo, hi = _cos_enclosure(min(k, n - k) // g, n // g, terms)
        floors.append(_scaled_floor(lo, terms))
        ceils.append(-_scaled_floor(-hi, terms))
    return tuple(floors), tuple(ceils)


def _enclose_real(v: Cyclo, terms: int) -> tuple[int, int]:
    # v is real, so v = Re(v) = sum_k c_k cos(2 pi k / N) / den: integers
    # lo <= 2^(5 terms) den v <= hi, which share v's sign where they exclude 0
    floors, ceils = _cos_grid(v.conductor, terms)
    lo = hi = 0
    for c, f, u in zip(v.ints, floors, ceils):
        if c > 0:
            lo += c * f
            hi += c * u
        elif c < 0:
            lo += c * u
            hi += c * f
    return lo, hi


def _real_sign(v: Cyclo) -> int:
    # the sign of v, known to be real
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


def real_cyclo_sign(v: Cyclo) -> int:
    """-1, 0 or +1 for a real cyclotomic value; exact."""
    if not v.is_real():
        raise ValueError(f"value is not real: {v}")
    return _real_sign(v)


def compare(a: Cyclo, b: Cyclo | int | Fraction) -> int:
    """-1, 0 or +1 as the real value a is <, = or > b."""
    b = b if isinstance(b, Cyclo) else Cyclo.rational(b)
    if a.is_rational() and b.is_rational():
        x, y = a.to_rational(), b.to_rational()
        return (x > y) - (x < y)
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
    # root^2 = q >= 0, so root is real
    if _real_sign(root) < 0:
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
        return -v if _real_sign(v) < 0 else v
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
