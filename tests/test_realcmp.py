from fractions import Fraction
from math import cos, pi

import pytest

from commcount import realcmp
from commcount.cyclo import Cyclo, cyclo_root, degree
from commcount.realcmp import (
    abs_as_cyclo,
    compare,
    cos_bounds,
    pi_bounds,
    real_cyclo_sign,
    sqrt_rational_as_cyclo,
)


def test_pi_bounds_bracket():
    lo, hi = pi_bounds(12)
    assert lo < hi
    assert Fraction(3141592653, 10**9) < lo
    assert hi < Fraction(3141592654, 10**9)
    lo2, hi2 = pi_bounds(24)
    assert lo <= lo2 < hi2 <= hi


def test_cos_bounds():
    lo, hi = cos_bounds(Fraction(0), Fraction(0), 12)
    assert lo <= 1 <= hi
    assert hi - lo < Fraction(1, 10**6)
    pi_lo, pi_hi = pi_bounds(12)
    lo, hi = cos_bounds(pi_lo, pi_hi, 12)
    assert lo <= -1 <= hi
    # half the circle: cos(pi/2) = 0
    lo, hi = cos_bounds(pi_lo / 2, pi_hi / 2, 12)
    assert lo < 0 < hi


def test_sign_of_golden_ratio_values():
    phi_minor = cyclo_root(5) + cyclo_root(5, 4)      # 2 cos 72deg > 0
    phi_major = cyclo_root(5, 2) + cyclo_root(5, 3)   # 2 cos 144deg < 0
    assert real_cyclo_sign(phi_minor) == 1
    assert real_cyclo_sign(phi_major) == -1
    assert real_cyclo_sign(Cyclo.zero()) == 0
    assert real_cyclo_sign(Cyclo.rational(Fraction(-3, 2))) == -1
    assert real_cyclo_sign(cyclo_root(7, 3) + cyclo_root(7, 4)) == -1


def test_sign_rejects_complex_values():
    with pytest.raises(ValueError, match="not real"):
        real_cyclo_sign(cyclo_root(5))


def test_sign_resolves_tight_margins():
    phi_minor = cyclo_root(5) + cyclo_root(5, 4)
    # (sqrt(5) - 1) / 2 = 0.6180339887498949...; margin ~ 5e-11
    below = Fraction(6180339887, 10**10)
    above = Fraction(6180339888, 10**10)
    assert real_cyclo_sign(phi_minor - below) == 1
    assert real_cyclo_sign(phi_minor - above) == -1


@pytest.mark.parametrize("terms", [12, 24])
def test_cos_grid_brackets_the_enclosures_outward(terms):
    scale = 1 << (5 * terms)
    for n in range(1, 121):
        floors, ceils = realcmp._cos_grid(n, terms)
        assert len(floors) == len(ceils) == degree(n)
        for k, (f, c) in enumerate(zip(floors, ceils)):
            # the enclosure of the reduced angle k / n, folded into [0, 1/2]
            q = Fraction(k, n)
            q = min(q, 1 - q)
            lo, hi = realcmp._cos_enclosure(q.numerator, q.denominator, terms)
            assert f == lo.numerator * scale // lo.denominator
            assert c == -(-hi.numerator * scale // hi.denominator)
            # of the right angle, to float precision
            assert f / scale - 1e-12 < cos(2 * pi * k / n) < c / scale + 1e-12
    assert realcmp._cos_grid(1, terms) == ((scale,), (scale,))  # cos 0 = 1


def test_cos_enclosure_of_a_reduced_angle_is_cos_bounds():
    for terms in (12, 24):
        pi_lo, pi_hi = pi_bounds(terms)
        for k, n in ((0, 1), (1, 5), (2, 5), (3, 10), (1, 97), (59, 120)):
            want = cos_bounds(2 * k * pi_lo / n, 2 * k * pi_hi / n, terms)
            assert realcmp._cos_enclosure(k, n, terms) == want


def test_cos_enclosures_are_shared_across_conductors():
    realcmp._cos_grid.cache_clear()
    realcmp._cos_enclosure.cache_clear()
    realcmp._cos_grid(5, 12)
    five = realcmp._cos_enclosure.cache_info().currsize
    realcmp._cos_grid(10, 12)
    # the angles k / 10 with k even are those of conductor 5; the odd ones
    # reduce to 1/10 and 3/10
    assert realcmp._cos_enclosure.cache_info().currsize == five + 2


def test_sign_doubles_the_terms_on_a_near_tie(monkeypatch):
    # 2 cos(2 pi / 97) = 1.99580565247542333009638606810...; the conductor
    # 97 residue has 95 nonzero coefficients, so the 12-term enclosure is
    # wider than the 1e-20 margins and the sign needs 24 terms
    x = cyclo_root(97) + cyclo_root(97, 96)
    assert x.ints.count(0) == 1
    below = Fraction(199580565247542333009, 10**20)
    above = below + Fraction(1, 10**20)
    asked = []
    enclose = realcmp._enclose_real

    def spy(v, terms):
        asked.append(terms)
        return enclose(v, terms)

    monkeypatch.setattr(realcmp, "_enclose_real", spy)
    assert real_cyclo_sign(x - below) == 1
    assert asked == [12, 24]
    asked.clear()
    assert real_cyclo_sign(x - above) == -1
    assert asked == [12, 24]
    assert compare(x, below) == 1 and compare(x, above) == -1


def test_rational_comparisons_compare_fractions(monkeypatch):
    def refuse(v):
        raise AssertionError("sign machinery called")

    monkeypatch.setattr(realcmp, "real_cyclo_sign", refuse)
    assert compare(Cyclo.rational(Fraction(1, 3)), Fraction(1, 2)) == -1
    assert compare(Cyclo.rational(2), 2) == 0
    assert compare(Cyclo.rational(Fraction(-1, 7)), Cyclo.rational(Fraction(-1, 8))) == -1
    # a rational held at a larger conductor is still rational
    assert compare(cyclo_root(6) + cyclo_root(6, 5), 1) == 0


def test_compare():
    sqrt2 = sqrt_rational_as_cyclo(2)
    assert compare(sqrt2, 1) == 1
    assert compare(sqrt2, 2) == -1
    assert compare(sqrt2, Fraction(141421356237, 10**11)) == 1
    assert compare(sqrt2, sqrt2) == 0


@pytest.mark.parametrize(
    "q",
    [0, 1, 2, 3, 4, 5, 6, 7, 18, Fraction(4, 9), Fraction(45, 4), Fraction(9, 16)],
)
def test_sqrt_squares_back(q):
    root = sqrt_rational_as_cyclo(q)
    assert root * root == Fraction(q)
    assert real_cyclo_sign(root) >= 0


def test_sqrt_known_forms():
    assert sqrt_rational_as_cyclo(4) == Cyclo.rational(2)
    assert sqrt_rational_as_cyclo(Fraction(9, 16)) == Cyclo.rational(Fraction(3, 4))
    assert sqrt_rational_as_cyclo(2) == cyclo_root(8) - cyclo_root(8, 3)
    with pytest.raises(ValueError, match="negative"):
        sqrt_rational_as_cyclo(-1)


def test_abs():
    assert abs_as_cyclo(Cyclo.rational(Fraction(-5, 2))) == Fraction(5, 2)
    phi_major = cyclo_root(5, 2) + cyclo_root(5, 3)
    assert abs_as_cyclo(phi_major) == -phi_major
    assert abs_as_cyclo(cyclo_root(7, 3)) == 1
    assert abs_as_cyclo(3 * cyclo_root(4)) == 3
    one_plus_i = 1 + cyclo_root(4)
    assert abs_as_cyclo(one_plus_i) == sqrt_rational_as_cyclo(2)
    # 1 + zeta_5 = zeta_10 * (golden ratio), a rotated real value
    assert abs_as_cyclo(1 + cyclo_root(5)) == -phi_major


def test_abs_of_a_real_value_times_a_root_of_unity():
    # |v|^2 = phi^2 is irrational, so |v| is no Gauss-sum square root; it is
    # found by rotating v onto the real line inside Q(zeta_30)
    phi = -(cyclo_root(5, 2) + cyclo_root(5, 3))
    for u in (cyclo_root(3), cyclo_root(3, 2), -cyclo_root(3), cyclo_root(10, 3)):
        v = phi * u
        assert not (v * v.conj()).is_rational()
        assert abs_as_cyclo(v) == phi
        assert abs_as_cyclo(-v) == phi
    # |1 + 2 zeta_5|^2 is irrational and 1 + 2 zeta_5 is no rotated real value
    with pytest.raises(ValueError, match="not supported"):
        abs_as_cyclo(1 + 2 * cyclo_root(5))
