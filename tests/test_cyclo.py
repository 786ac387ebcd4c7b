from __future__ import annotations

import cmath
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest

from commcount.cyclo import (
    TABLE_CAP,
    Cyclo,
    CycloArray,
    NotRationalError,
    cyclo_root,
    cyclotomic_polynomial,
    degree,
    exact_matmul,
    format_cyclo,
    is_prime,
    parse_cyclo,
    split_primes,
    unit_generators,
    _reduction,
)


def numeric(z: Cyclo) -> complex:
    # independent floating evaluation used only as a test oracle
    return sum(
        c / z.den * cmath.exp(2j * cmath.pi * k / z.conductor)
        for k, c in enumerate(z.ints)
    )


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_x_n_minus_1():
    for n in range(1, 31):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        expect = [0] * (n + 1)
        expect[0], expect[n] = -1, 1
        assert prod == expect


def test_degree_is_totient():
    for n in range(1, 50):
        assert degree(n) == totient(n)


@pytest.mark.parametrize("n", [105, 1155, 5040])
def test_large_cyclotomic_polynomials_vanish_at_primitive_roots(n):
    # monic of degree phi(n) with integer coefficients and a root at every
    # primitive n-th root of unity: the minimal polynomial of zeta_n
    coeffs = cyclotomic_polynomial(n)
    assert coeffs[-1] == 1 and len(coeffs) - 1 == totient(n)
    assert all(type(c) is int for c in coeffs)
    scale = sum(map(abs, coeffs))
    for k in (1, 13, 17, n - 1):  # units mod n
        z = cmath.exp(2j * cmath.pi * k / n)
        assert abs(np.polyval(coeffs[::-1], z)) < 1e-9 * scale, k


def long_division_residues(n: int):
    # x^e mod Phi_n for every e < n by schoolbook long division, all the
    # dividends x^e at once: each step clears the top remaining degree
    phi = np.array(cyclotomic_polynomial(n), dtype=np.int64)
    d = len(phi) - 1
    rem = np.eye(n, dtype=np.int64)
    for top in range(n - 1, d - 1, -1):
        rem[:, top - d : top + 1] -= rem[:, top, None] * phi
    return rem[:, :d]


@pytest.mark.parametrize("n", [*range(1, 61), 105, 1155])
def test_reduction_rows_are_long_division_remainders(n):
    R = _reduction(n)
    assert R.shape == (n, totient(n)) and not R.flags.writeable
    assert (R == long_division_residues(n)).all()
    if n == 1155:
        assert np.abs(R).max() == 9


def test_root_products():
    z5 = [cyclo_root(5, k) for k in range(5)]
    assert (z5[1] + z5[4]) * (z5[2] + z5[3]) == Cyclo.rational(-1)
    assert cyclo_root(2) * cyclo_root(3) == cyclo_root(6, 5)
    assert cyclo_root(4) * cyclo_root(4) == Cyclo.rational(-1)
    for n in (1, 2, 3, 4, 6, 7, 12):
        assert cyclo_root(n) ** n == Cyclo.rational(1)


def test_root_of_unity_sums():
    # sum over all nontrivial n-th roots of unity is -1
    for n in range(2, 31):
        total = Cyclo.rational(0)
        for k in range(1, n):
            total = total + cyclo_root(n, k)
        assert total == Cyclo.rational(-1)
    # odd n: the same sum grouped as zeta^(2k) + zeta^(-2k)
    for n in range(3, 31, 2):
        total = Cyclo.rational(0)
        for k in range(1, (n - 1) // 2 + 1):
            total = total + cyclo_root(n, 2 * k) + cyclo_root(n, -2 * k)
        assert total == Cyclo.rational(-1)


def test_exponent_wraparound():
    rng = random.Random(20260813)
    for _ in range(200):
        n = rng.randrange(1, 16)
        a, b = rng.randrange(2 * n), rng.randrange(2 * n)
        prod = cyclo_root(n, a) * cyclo_root(n, b)
        assert prod == cyclo_root(n, (a + b) % n)
        assert abs(numeric(prod) - cmath.exp(2j * cmath.pi * (a + b) / n)) < 1e-9


def random_value(rng, max_conductor=12):
    n = rng.randrange(1, max_conductor + 1)
    total = Cyclo.rational(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)))
    for _ in range(rng.randrange(0, 3)):
        q = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
        total = total + q * cyclo_root(n, rng.randrange(n))
    return total


def test_field_laws_on_random_samples():
    rng = random.Random(43)
    for _ in range(120):
        a, b, c = (random_value(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Cyclo.rational(0)
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
        assert abs(numeric(a * b) - numeric(a) * numeric(b)) < 1e-9
        assert abs(numeric(a + b) - (numeric(a) + numeric(b))) < 1e-9


def test_conjugate_fixes_reals():
    z = cyclo_root(7) + cyclo_root(7, 6)
    assert z.conj() == z
    assert z.is_real()
    w = cyclo_root(7)
    assert w.conj() != w


def test_to_rational():
    assert Cyclo.rational(Fraction(7, 2)).to_rational() == Fraction(7, 2)
    # zeta_6^3 = -1 is rational even though the conductor is 6
    assert cyclo_root(6, 3).to_rational() == -1
    z = cyclo_root(5)
    with pytest.raises(NotRationalError) as info:
        z.to_rational()
    assert info.value.value == z


def test_equality_across_conductors():
    assert cyclo_root(6, 2) == cyclo_root(3)
    assert cyclo_root(8, 2) == cyclo_root(4)
    z = cyclo_root(3) + 1
    for m in (6, 12, 15):
        w = cyclo_root(m, m // 3) + 1  # the same value built at conductor m
        assert w.conductor == m
        assert w == z and z == w
    assert z != cyclo_root(5) + 1


def test_division():
    assert (2 * cyclo_root(3)) / 2 == cyclo_root(3)
    assert cyclo_root(3) / Fraction(1, 3) == 3 * cyclo_root(3)
    with pytest.raises(ZeroDivisionError):
        cyclo_root(3) / 0
    with pytest.raises(NotRationalError):
        cyclo_root(3) / cyclo_root(5)


def test_format_canonical():
    phi = -(cyclo_root(5, 2) + cyclo_root(5, 3))  # the golden ratio
    assert format_cyclo(phi) == "-E(5)^2-E(5)^3"
    assert format_cyclo(Cyclo.rational(0)) == "0"
    assert format_cyclo(Cyclo.rational(Fraction(-3, 2))) == "-3/2"
    assert format_cyclo(cyclo_root(4)) == "E(4)"
    assert format_cyclo(3 * cyclo_root(4) + Fraction(1, 2)) == "1/2+3*E(4)"


def test_parse_round_trip():
    rng = random.Random(7)
    values = [random_value(rng) for _ in range(80)]
    values += [
        Cyclo.rational(0),
        Cyclo.rational(-5),
        cyclo_root(8, 3),
        -(cyclo_root(5, 2) + cyclo_root(5, 3)),
    ]
    for z in values:
        assert parse_cyclo(format_cyclo(z)) == z


def test_parse_inputs():
    assert parse_cyclo("2 + E(3)") == 2 + cyclo_root(3)
    assert parse_cyclo("-1/2") == Cyclo.rational(Fraction(-1, 2))
    assert parse_cyclo("-E(5)-E(5)^4") == -(cyclo_root(5) + cyclo_root(5, 4))
    assert parse_cyclo("2*E(7)^3") == 2 * cyclo_root(7, 3)
    assert parse_cyclo("E(1)") == Cyclo.rational(1)
    for bad in ("", "E(", "2**E(3)", "E(3)^", "1//2", "x+1"):
        with pytest.raises(ValueError):
            parse_cyclo(bad)


# (conductor, ints, den) of accepted literals, as the token-loop parser gave
# them: juxtaposed terms add, a rational before a root multiplies it, sign
# runs multiply out, and the value sits at the lcm of the conductors named
ACCEPTED_LITERALS = [
    ("2 3", (1, (5,), 1)),
    ("3E(4)", (4, (0, 3), 1)),
    ("2/3 E(4)", (4, (0, 2), 3)),
    ("E(4)E(4)", (4, (0, 2), 1)),
    ("E(4) 3", (4, (3, 1), 1)),
    ("--2", (1, (2,), 1)),
    ("+-+E(5)^2", (5, (0, 0, -1, 0), 1)),
    ("- - E(3)", (3, (0, 1), 1)),
    ("E(1)", (1, (1,), 1)),
    ("E(1)^5", (1, (1,), 1)),
    ("0*E(7)", (7, (0, 0, 0, 0, 0, 0), 1)),
    ("1/2+3*E(4)", (4, (1, 6), 2)),
    ("  -1/2", (1, (-1,), 2)),
    ("\t2*E(8)^3", (8, (0, 0, 0, 2), 1)),
    ("6/4", (1, (3,), 2)),
    ("E(3)^0", (3, (1, 0), 1)),
    ("E(6)^7", (6, (0, 1), 1)),
    ("E(2)+E(3)", (6, (-2, 1), 1)),
    ("1/2*E(4)-1/3*E(6)^2", (12, (2, 0, -2, 3), 6)),
    ("E(03)^004", (3, (0, 1), 1)),
    ("0", (1, (0,), 1)),
]


@pytest.mark.parametrize("text, want", ACCEPTED_LITERALS)
def test_accepted_literals_keep_their_normal_form(text, want):
    z = parse_cyclo(text)
    assert (z.conductor, z.ints, z.den) == want


REJECTED_LITERALS = [
    "", "  ", "2 ", "E(3) ", "E(0)", "E(00)^2", "1/0", "0/0", "3*", "1/2*2",
    "E(3)^-1", "E( 3)", "-", "1+",
    # the token-loop parser never returned on these: a term that opened with
    # "*", "/" or "^" consumed no token
    "2^3", "E(3)*2", "/", "*", "^", "2/3/4", "E(3)^2^3", "- *E(3)", "E(5)/2",
    "*E(3)",
    # digits other than ASCII ones
    "\u0663", "E(\u0664)", "\uff13", "2+\u0662",
    # conductors, or an lcm of them, whose n x phi(n) residues exceed the cap
    "E(10007)", "1+E(4)^3+E(2503)",
]


@pytest.mark.parametrize("text", REJECTED_LITERALS)
def test_rejected_literals_raise_value_error(text):
    with pytest.raises(ValueError):
        parse_cyclo(text)


def test_a_conductor_over_the_cap_is_refused_before_any_table():
    # 10007 x 10006 int64 residues would take 800 MB; n = 2^30 is refused
    # before its prime factors are sought
    for n in (10007, 1 << 30):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"conductor {n}: .* exceed the cap"):
                cyclo_root(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, n
    assert 5040 * degree(5040) <= TABLE_CAP < 10007 * degree(10007)


def test_a_root_at_a_large_conductor_times_its_conjugate_is_one():
    z = parse_cyclo("E(5040)")
    assert z.conductor == 5040 and z * z.conj() == 1
    assert z.conj() == cyclo_root(5040, -1) and z**5040 == 1


def test_scalar_products_past_int64_match_hand_expanded_residues():
    # in Q(zeta_5), x^4 = -(1 + x + x^2 + x^3), x^5 = 1 and x^6 = x
    z = Cyclo(5, [2**70, -3, 0, 1])
    w = Cyclo(5, [1, 2, -(2**40), 5], 3)
    # z * w on x^0..x^6: 2^70, 2^71 - 3, -2^110 - 6, 5*2^70 + 3*2^40 + 1,
    # -13, -2^40, 5; the x^4 term folds into the lower powers
    product = (2**70 + 13 - 2**40, 2**71 + 15, 7 - 2**110, 5 * 2**70 + 3 * 2**40 + 14)
    assert ((z * w).ints, (z * w).den) == (product, 3)
    assert ((w * z).ints, (w * z).den) == (product, 3)
    # conj(a0 + a1 x + a2 x^2 + a3 x^3) = a0 + a3 x^2 + a2 x^3 + a1 x^4
    assert (z.conj().ints, z.conj().den) == ((2**70 + 3, 3, 4, 3), 1)
    assert (w.conj().ints, w.conj().den) == ((-1, -2, 3, -(2**40) - 2), 3)
    assert z.conj().conj() == z and w.conj().conj() == w


def test_exact_products_read_python_int_lists_exactly():
    # numpy reads a list that mixes ints beyond int64 with negative ones as
    # float64; the typed product must see the exact ints
    got = exact_matmul([[2**63 + 3, -1]], [[1], [1]])
    assert got.dtype == object and type(got[0, 0]) is int and got[0, 0] == 2**63 + 2
    assert Cyclo(4, [2**63 + 3, -1]) * Cyclo(4, [1, 1]) == Cyclo(4, [2**63 + 4, 2**63 + 2])


def test_immutability():
    z = cyclo_root(5)
    with pytest.raises(AttributeError):
        z.conductor = 7


def in_normal_form(z: Cyclo) -> bool:
    return z.den > 0 and gcd(z.den, *z.ints) == 1 and all(
        type(c) is int for c in z.ints
    )


def test_normal_form_after_arithmetic():
    rng = random.Random(11)
    for _ in range(120):
        a, b = random_value(rng), random_value(rng)
        q = Fraction(rng.choice([-4, -3, -2, 2, 3, 6]), rng.randrange(1, 5))
        for z in (a + b, a - b, a * b, a / q, a.conj(), -a, a * q):
            assert in_normal_form(z)
        # the reduced denominator is the same at a multiple conductor
        for m in (2 * a.conductor, 3 * a.conductor):
            w = CycloArray.of([a], m).cyclos()[0]
            assert w.conductor == m and w.den == a.den and w == a
    z = Cyclo(3, (2, -4), -6)
    assert (z.ints, z.den) == ((-1, 2), 3)


def test_denominator_is_the_same_at_every_conductor():
    half = (1 + cyclo_root(5)) / 2
    assert half.den == 2 and format_cyclo(half) == "1/2+1/2*E(5)"
    for m in (5, 10, 20):
        built = (1 + cyclo_root(m, m // 5)) / 2
        lifted = CycloArray.of([half], m).cyclos()[0]
        assert built.conductor == lifted.conductor == m
        assert built.den == lifted.den == 2
        assert built == half and half == built and lifted == built
        assert format_cyclo(built) == format_cyclo(lifted)
        assert parse_cyclo(format_cyclo(built)) == half
    # equal residues over different denominators are different values
    assert half != (1 + cyclo_root(5)) / 4


def test_constructor_rejects_non_integers_and_zero_denominator():
    with pytest.raises(ValueError):
        Cyclo(3, (Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        Cyclo(3, (1.0, 0))
    with pytest.raises(ValueError):
        Cyclo(3, (1, 0), 0)
    with pytest.raises(ValueError):
        Cyclo(3, (1, 0, 0))
    z = Cyclo(3, np.array([4, -2], dtype=np.int64), np.int64(6))
    assert (z.ints, z.den) == ((2, -1), 3) and in_normal_form(z)


def test_array_round_trip_over_different_denominators():
    vs = [
        Fraction(1, 2) + cyclo_root(3),
        cyclo_root(4) / 3,
        Cyclo.rational(5),
        (1 + cyclo_root(5)) / 2,
        Cyclo.rational(Fraction(-7, 4)),
    ]
    X = CycloArray.of(vs)
    assert X.den == 12 and X.conductor == 60
    back = X.cyclos()
    assert back == vs
    assert [z.den for z in back] == [z.den for z in vs] == [2, 3, 1, 2, 4]


def test_array_rows_are_the_scalar_residues():
    def at(v: Cyclo, n: int) -> Cyclo:
        return v + Cyclo(n, [0] * degree(n))  # v as a value at conductor n

    rng = random.Random(5)
    for _ in range(40):
        vs = [random_value(rng) for _ in range(4)]
        X = CycloArray.of(vs, rng.choice([1, 2, 3, 4]))
        n = X.conductor
        for row, v in zip(X.ints.tolist(), vs):
            w = at(v, n)
            assert row == [c * (X.den // w.den) for c in w.ints]
        for Y, want in ((X.conj(), [v.conj() for v in vs]), (X.lifted(3 * n), vs)):
            for got, v in zip(Y.cyclos(), want):
                w = at(v, Y.conductor)
                assert (got.conductor, got.ints, got.den) == (
                    w.conductor, w.ints, w.den
                )


@pytest.mark.parametrize("big", [False, True])
def test_distinct_values_and_where_they_sit(big):
    rng = random.Random(11)
    pool = [random_value(rng) for _ in range(5)]
    if big:  # entries beyond int64 take the Python-int path
        pool[0] = pool[0] + 2**70 * cyclo_root(4)
    grid = [[rng.choice(pool) for _ in range(6)] for _ in range(4)]
    X = CycloArray.of(grid)
    assert (X.ints.dtype == object) == big
    values, where = X.distinct()
    assert where.shape == (4, 6) and values.ints.ndim == 2
    found = values.cyclos()
    rows = X.ints.reshape(-1, X.ints.shape[-1]).tolist()
    assert len(found) == len({tuple(r) for r in rows})
    assert [[found[i] for i in row] for row in where.tolist()] == grid
    # numbered in order of first appearance
    assert list(dict.fromkeys(where.ravel().tolist())) == list(range(len(found)))


# -- split primes ------------------------------------------------------------


def test_miller_rabin_matches_trial_division():
    limit = 2 * 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(sieve[q * q :: q])
    assert [n for n in range(limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]
    ]


def test_miller_rabin_needs_base_seven():
    # 25326001 = 2251 * 11251 is a strong pseudoprime to bases 2, 3 and 5
    n = 25326001
    assert n == 2251 * 11251
    d, s = (n - 1) >> 4, 4
    assert d % 2 == 1 and d << s == n - 1
    for a in (2, 3, 5):
        assert pow(a, d, n) == 1 or any(pow(a, d << j, n) == n - 1 for j in range(s))
    assert not is_prime(n)


def test_prime_search_stays_in_the_proven_range():
    limit = 3_215_031_751
    assert all(p < limit for p in split_primes(1, 2**64, limit))
    for ceiling in (limit + 1, limit + 2, 2 * limit):
        with pytest.raises(ValueError, match="Miller-Rabin"):
            split_primes(1, 10, ceiling)
    with pytest.raises(ValueError):
        is_prime(limit)


def _uncached_split_primes(n, bound, ceiling):
    primes = []
    for p in range(ceiling - 1 - (ceiling - 2) % n, 1, -n):
        if is_prime(p):
            primes.append(p)
            if prod(primes) > bound:
                return primes
    raise ArithmeticError(f"too few primes = 1 (mod {n}) below {ceiling}")


@pytest.mark.parametrize("n, ceiling", [(1, 10**4), (12, 10**5), (240, 10**6), (7, 3000)])
def test_cached_split_primes_equal_a_fresh_search(n, ceiling):
    # bounds in mixed order, so a call cannot lean on the ones before it
    for bound in (10, 10**3, 10**40, 10**6, 1, 10**80, 10**20):
        try:
            want = _uncached_split_primes(n, bound, ceiling)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                split_primes(n, bound, ceiling)
            continue
        got = split_primes(n, bound, ceiling)
        assert got == want, (n, ceiling, bound)
        got.append(2)  # the caller's list is its own
        assert split_primes(n, bound, ceiling) == want


def test_refused_prime_search_is_refused_again():
    limit = 3_215_031_751
    for _ in range(3):
        with pytest.raises(ValueError, match="Miller-Rabin"):
            split_primes(7, 10, limit + 7)


def test_split_primes_are_descending_and_cover_the_bound():
    primes = split_primes(240, 10**30, 10**6)
    assert primes == sorted(primes, reverse=True) and max(primes) < 10**6
    assert prod(primes) > 10**30 >= prod(primes[:-1])
    candidates = [q for q in reversed(range(1, 10**6, 240)) if is_prime(q)]
    assert primes == candidates[: len(primes)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 16, 23, 24, 240, 300])
def test_unit_generators_generate_the_units(n):
    units = {u for u in range(n) if gcd(u, n) == 1}
    reached = {1 % n}
    for u in unit_generators(n):
        assert u in units
        while True:
            grown = reached | {r * u % n for r in reached}
            if grown == reached:
                break
            reached = grown
    assert reached == units
