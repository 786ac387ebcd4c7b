"""Exact arithmetic in cyclotomic fields Q(zeta_n) with rational coefficients.

A value is stored as its canonical residue modulo the n-th cyclotomic
polynomial, a vector of deg(Phi_n) = phi(n) Python ints, over one positive
denominator in lowest terms.  The normal form makes equality a comparison of
denominators and residues (after lifting both operands to the lcm of their
conductors).  No conductor minimisation is performed and no multiplicative
inverse is provided; the only division is by a nonzero rational.

`Cyclo` is the scalar type.  `CycloArray` holds many values at one
conductor over one common denominator as a single integer numpy array, for
table-scale work (see its docstring); a `Cyclo` has the format of one of its
rows.  Products, conjugates, lifts, Galois images and parsed literals all
reduce by one rule, `_on_powers`: an exact product with the rows of the one
cached table `_reduction(n)`, the residues of zeta_n^e.  That table is
refused with ValueError above ``TABLE_CAP`` entries before it is built, so a
literal such as E(10007) fails at once; the same cap bounds character tables.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import index

import numpy as np


class NotRationalError(ValueError):
    """Raised when a cyclotomic value with nonzero irrational part is
    coerced to a rational; carries the offending value."""

    def __init__(self, value: "Cyclo"):
        self.value = value
        super().__init__(f"not a rational number: {value}")


# One cap on residue arrays: a table of rows x classes x phi(N) residues, or
# the reduction table of a conductor n, n x phi(n), above 2^24 int64 entries
# (128 MB) is refused before it is allocated.
TABLE_CAP = 1 << 24


@cache
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing a conductor n, ascending."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return tuple(out + [n] * (n > 1))


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree.  Phi_1 = x - 1.

    Phi_n is the product of (x^(n/s) - 1)^mu(s) over the squarefree divisors
    s of n: each factor with mu(s) = 1 multiplies by shift-and-subtract, then
    each with mu(s) = -1 divides exactly by a running sum."""
    divisors = [(1, 1)]  # the squarefree divisors s of n, with mu(s)
    for p in _prime_factors(n):
        divisors += [(s * p, -mu) for s, mu in divisors]
    poly = [1]
    for s, mu in sorted(divisors, key=lambda t: -t[1]):  # products first
        d = n // s
        if mu > 0:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
        else:
            # poly = q * (x^d - 1), so q_i = q_(i-d) - poly_i
            poly = [-c for c in poly[: len(poly) - d]]
            for i in range(d, len(poly)):
                poly[i] += poly[i - d]
    return tuple(poly)


@cache
def degree(n: int) -> int:
    """deg Phi_n = phi(n), from the prime factors of n."""
    ps = _prime_factors(n)
    return n // prod(ps) * prod(p - 1 for p in ps)


@cache
def _reduction(n: int):
    """Row e is the canonical residue of zeta_n^e, for 0 <= e < n, as a
    read-only int64 array of shape (n, phi(n)); refused with ValueError above
    ``TABLE_CAP`` entries.  Phi_n is monic, so the residues are integral: row
    phi(n) is -Phi_n without its leading 1, and each later row is the one
    before times x, its top coefficient folded back through row phi(n)."""
    if n > TABLE_CAP or n * degree(n) > TABLE_CAP:
        raise ValueError(
            f"conductor {n}: its table of n x phi(n) residues would exceed "
            f"the cap {TABLE_CAP}"
        )
    d = degree(n)
    out = np.zeros((n, d), dtype=np.int64)
    np.fill_diagonal(out, 1)  # rows e < phi(n): zeta_n^e itself
    low = -np.array(cyclotomic_polynomial(n)[:d], dtype=np.int64)
    row = low
    for e in range(d, n):
        out[e] = row
        row = row[-1] * low
        row[1:] += out[e, :-1]
    # by induction on e, every row is exact if each entry times 1 + max|low|
    # fits: then no step can leave int64 (the extremes need no copy of out)
    if max(int(out.max()), -int(out.min())) * (1 + _amax(low)) > _INT64_MAX:
        raise OverflowError(f"the residues of conductor {n} exceed int64")
    out.flags.writeable = False
    return out


def _on_powers(coeffs, exponents, n: int):
    """The canonical residues of sum_i coeffs[..., i] * zeta_n^exponents[i]:
    the one reduction rule.  One exact product with the rows of
    `_reduction(n)` at the exponents whose coefficients are nonzero
    somewhere; a sequence of Python ints is read exactly."""
    if not isinstance(coeffs, np.ndarray):
        coeffs = np.array(coeffs, dtype=object)
    live = np.flatnonzero(coeffs.reshape(-1, coeffs.shape[-1]).any(axis=0))
    if len(live) < coeffs.shape[-1]:  # a dense array is multiplied uncopied
        coeffs = coeffs[..., live]
    return exact_matmul(coeffs, _reduction(n)[np.asarray(exponents)[live] % n])


class Cyclo:
    """An element of Q(zeta_conductor): sum_i ints[i] * zeta^i / den.

    ``ints`` is the canonical residue as Python ints, one per power of zeta
    below phi(conductor); ``den`` is positive and gcd(den, *ints) == 1, so a
    value has the format of one reduced row of a `CycloArray`.  Entries must
    be integers (numpy integers included): a `Fraction` is refused rather
    than truncated.
    """

    __slots__ = ("conductor", "ints", "den")

    def __init__(self, conductor: int, ints, den: int = 1):
        if len(ints) != degree(conductor):
            raise ValueError(
                f"expected {degree(conductor)} coefficients for conductor "
                f"{conductor}, got {len(ints)}"
            )
        if not den:
            raise ValueError("Cyclo denominator is zero")
        try:
            g = gcd(den, *ints)
        except TypeError:
            raise ValueError(
                f"Cyclo entries must be integers, got {ints!r} over {den!r}"
            ) from None
        g = g if den > 0 else -g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "ints", tuple(index(c) // g for c in ints))
        object.__setattr__(self, "den", index(den) // g)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo values are immutable")

    @staticmethod
    def rational(q) -> "Cyclo":
        """An int or a Fraction as a value at conductor 1."""
        if isinstance(q, Fraction):
            return Cyclo(1, (q.numerator,), q.denominator)
        return Cyclo(1, (q,))

    @staticmethod
    def zero() -> "Cyclo":
        return _RAT_ZERO

    def _lifted(self, m: int) -> tuple[int, ...]:
        # residue of self * den at conductor m (a multiple of conductor)
        n = self.conductor
        if m == n:
            return self.ints
        if n == 1:  # a rational is its own residue at every conductor
            return self.ints + (0,) * (degree(m) - 1)
        # zeta_n^i = zeta_m^(i * m/n)
        exponents = np.arange(len(self.ints)) * (m // n)
        return tuple(_on_powers(self.ints, exponents, m).tolist())

    # -- predicates and coercions ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.ints)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.ints[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRationalError(self)
        return Fraction(self.ints[0], self.den)

    def is_real(self) -> bool:
        return self.is_rational() or self == self.conj()

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Cyclo | None":
        if isinstance(other, Cyclo):
            return other
        try:
            return Cyclo.rational(other)
        except ValueError:
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = lcm(self.conductor, o.conductor)
        a, b = self._lifted(m), o._lifted(m)
        den = lcm(self.den, o.den)
        s, t = den // self.den, den // o.den
        return Cyclo(m, [x * s + y * t for x, y in zip(a, b)], den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.conductor, [-c for c in self.ints], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = self.den * o.den
        a, b = (o, self) if self.conductor == 1 else (self, o)
        if b.conductor == 1:
            return Cyclo(a.conductor, [c * b.ints[0] for c in a.ints], den)
        m = lcm(self.conductor, o.conductor)
        a, b = self._lifted(m), o._lifted(m)
        a, b = _exact(len(a) * max(map(abs, a)) * max(map(abs, b)), a, b)
        pairs = np.convolve(a, b)  # the coefficient of zeta_m^e is pairs[e]
        return Cyclo(m, _on_powers(pairs, np.arange(len(pairs)), m).tolist(), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q = o.to_rational()
        if not q:
            raise ZeroDivisionError("division of a cyclotomic value by zero")
        return Cyclo(
            self.conductor,
            [c * q.denominator for c in self.ints],
            self.den * q.numerator,
        )

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = _RAT_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def conj(self) -> "Cyclo":
        """Complex conjugate: zeta -> zeta^(-1)."""
        n = self.conductor
        if n <= 2:
            return self
        residue = _on_powers(self.ints, -np.arange(len(self.ints)), n)
        return Cyclo(n, residue.tolist(), self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # The reduced den is the least d with d * value in Z[zeta_n]: the
        # power basis is an integral basis and Z[zeta_m] meets Q(zeta_n) in
        # Z[zeta_n], so it does not depend on the conductor.  Equal values
        # therefore have equal den, and only the residues are compared.
        if self.den != o.den:
            return False
        if self.conductor == o.conductor:
            return self.ints == o.ints
        m = lcm(self.conductor, o.conductor)
        return self._lifted(m) == o._lifted(m)

    __hash__ = None  # values at different conductors compare equal; no hashing

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        return format_cyclo(self)

    def __repr__(self) -> str:
        return f"<Cyclo {format_cyclo(self)}>"


_RAT_ZERO = Cyclo(1, (0,))
_RAT_ONE = Cyclo(1, (1,))


def cyclo_root(n: int, k: int = 1) -> Cyclo:
    """zeta_n^k as an exact value."""
    if n < 1:
        raise ValueError(f"conductor must be positive, got {n}")
    return _root(n, k % n)


@cache
def _root(n: int, k: int) -> Cyclo:
    return Cyclo(n, _reduction(n)[k].tolist())


# -- literal grammar -------------------------------------------------------
#
#   literal := term+
#   term    := sign* (rat ["*"] root | rat | root)
#   sign    := "+" | "-"
#   rat     := int ["/" int]
#   root    := "E(" int ")" ["^" int]
#   int     := ASCII digits
#
# E(n) denotes zeta_n.  A literal is the sum of its terms, so juxtaposed
# terms add ("2 3" is 5) and a rational just before a root multiplies it
# ("3E(4)" is 3*E(4)).  Whitespace may come before any token ("E(n)" is one)
# but not end the text.  The value sits at the lcm of the conductors named
# ("0*E(7)" at 7).  format_cyclo emits the canonical residue with exponents
# ascending, so parse(format(z)) == z for every value.

_TERM = re.compile(
    r"((?:\s*[+-])*)(?:\s*([0-9]+)(?:\s*/\s*([0-9]+))?(\s*\*)?)?"
    r"(?:\s*E\(([0-9]+)\)(?:\s*\^\s*([0-9]+))?)?"
)


def parse_cyclo(text: str) -> Cyclo:
    """Parse a literal of the grammar above, such as '1/2', '-E(5)^2-E(5)^3'
    or '3*E(4)'.  Each term must consume text; any other text raises
    ValueError."""
    terms, pos = [], 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        signs, num, den, star, n, k = m.groups()
        if not (num or n) or (star and not n):
            raise ValueError(f"bad cyclotomic literal at {text[pos:]!r}")
        c, q, n, k = (int(s or 1) for s in (num, den, n, k))
        if not (q and n):
            raise ValueError(f"zero denominator or conductor in {text!r}")
        terms.append((-c if signs.count("-") % 2 else c, q, n, k))
        pos = m.end()
    # each term c/q * zeta_n^k on the powers of zeta_N, over the lcm D of the q
    N, D = lcm(*(t[2] for t in terms)), lcm(*(t[1] for t in terms))
    coeffs = [c * (D // q) for c, q, n, k in terms]
    if N == 1:  # no root but E(1): a rational, with nothing to reduce
        return Cyclo(1, (sum(coeffs),), D)
    exponents = [k * (N // n) % N for c, q, n, k in terms]
    return Cyclo(N, _on_powers(coeffs, exponents, N).tolist(), D)


def format_cyclo(z: Cyclo) -> str:
    """Canonical literal for a value: exponents ascending, '0' for zero."""
    n = z.conductor
    parts: list[str] = []
    for k, c in enumerate(z.ints):
        if not c:
            continue
        mag = Fraction(abs(c), z.den)
        root = f"E({n})" if k == 1 else f"E({n})^{k}"
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = root
        else:
            body = f"{mag}*{root}"
        sign = "-" if c < 0 else "+" if parts else ""
        parts.append(sign + body)
    return "".join(parts) if parts else "0"


# -- split primes: for p = 1 (mod n), Z[zeta_n] / p is F_p^phi(n), one factor
# per root of exact order n mod p --------------------------------------------


def is_prime(n: int) -> bool:
    """Miller-Rabin on bases 2, 3, 5 and 7, a proof below 3,215,031,751 (the
    least strong pseudoprime to all four); larger n are refused."""
    if n >= 3_215_031_751:
        raise ValueError(f"{n} is beyond the proven Miller-Rabin range")
    if n < 2 or any(n % a == 0 for a in (2, 3, 5, 7)):
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << j, n) == n - 1 for j in range(s))
        for a in (2, 3, 5, 7)
    )


def split_primes(n: int, bound: int, ceiling: int) -> list[int]:
    """Primes p = 1 (mod n) below ceiling, descending, until their product
    exceeds bound.  The primes found are kept per (n, ceiling), and a larger
    bound resumes the search below the last candidate tested."""
    search = _split_prime_search(n, ceiling)
    found, total = search["found"], 1
    for i in count():
        while i == len(found):
            p = search["next"]
            if p < 2:
                raise ArithmeticError(f"too few primes = 1 (mod {n}) below {ceiling}")
            if is_prime(p):  # refuses p beyond its range before the search moves on
                found.append(p)
            search["next"] = p - n
        total *= found[i]
        if total > bound:
            return found[: i + 1]


@cache
def _split_prime_search(n: int, ceiling: int) -> dict:
    # the primes found so far, descending, and the next candidate to test
    return {"found": [], "next": ceiling - 1 - (ceiling - 2) % n}


@cache
def root_of_unity(n: int, p: int) -> int:
    """A root of exact multiplicative order n mod a prime p = 1 (mod n)."""
    qs = _prime_factors(n)
    roots = (pow(g, (p - 1) // n, p) for g in range(2, p))
    return next(w for w in roots if all(pow(w, n // q, p) != 1 for q in qs))


@cache
def unit_generators(n: int) -> tuple[int, ...]:
    """Generators of (Z/n)^x, each the least unit outside the subgroup of
    those before it."""
    gens, reached = [], {1 % n}
    for u in range(2, n):
        if gcd(u, n) == 1 and u not in reached:
            gens.append(u)
            powers = {pow(u, j, n) for j in range(n)}
            reached = {r * q % n for r in reached for q in powers}
    return tuple(gens)


# -- table-scale arrays ----------------------------------------------------------

_INT64_MAX = 2**63 - 1


def _amax(a) -> int:
    a = np.asarray(a)
    return int(np.abs(a).max()) if a.size else 0


def _exact(bound: int, *arrays):
    # int64 when nothing the caller computes exceeds `bound` in size, Python
    # ints (dtype=object) otherwise; both give the same exact result.
    dtype = np.int64 if bound <= _INT64_MAX else object
    return [np.asarray(a, dtype=dtype) for a in arrays]


def exact_matmul(a, b):
    """a @ b on integer arrays, exactly: every partial sum is at most the
    contracted length times max|a| times max|b|."""
    a, b = _exact(np.shape(a)[-1] * _amax(a) * _amax(b), a, b)
    return a @ b


class CycloArray:
    """Cyclotomic values at one conductor N over one common denominator.

    ``ints`` is an integer array of shape (..., phi(N)): each row is the
    canonical residue at N of a value times ``den``, exactly a `Cyclo` at N,
    so equal arrays hold equal values.  Entries are int64 when they fit and
    Python ints otherwise; every product is typed by `_exact`, which uses
    int64 only under a bound on the result.  Values are multiplied only in
    `dot`, and reduced, like every `Cyclo`, by `_on_powers`.
    """

    __slots__ = ("ints", "den", "conductor")

    def __init__(self, ints, den: int, conductor: int):
        self.ints = ints
        self.den = den
        self.conductor = conductor

    @staticmethod
    def of(values, conductor: int = 1) -> "CycloArray":
        """A nested sequence of Cyclo values at the lcm of their conductors
        and `conductor`: the sequence's shape plus one axis of length phi(N)."""
        grid = np.array(values, dtype=object)
        flat = grid.ravel().tolist()
        n = lcm(conductor, *(v.conductor for v in flat))
        den = lcm(1, *(v.den for v in flat))
        ints = np.zeros((len(flat), degree(n)), dtype=object)
        for c in {v.conductor for v in flat}:
            at = [i for i, v in enumerate(flat) if v.conductor == c]
            rows = [[x * (den // flat[i].den) for x in flat[i].ints] for i in at]
            ints[at] = CycloArray(np.array(rows, dtype=object), den, c).lifted(n).ints
        (ints,) = _exact(_amax(ints), ints)
        return CycloArray(ints.reshape(grid.shape + (degree(n),)), den, n)

    def _mapped(self, exponents, m: int) -> "CycloArray":
        # the values with zeta_N^i sent to zeta_m^exponents[i]
        return CycloArray(_on_powers(self.ints, exponents, m), self.den, m)

    def lifted(self, m: int) -> "CycloArray":
        """The same values at conductor m, a multiple of N."""
        if m == self.conductor:
            return self
        return self._mapped(np.arange(self.ints.shape[-1]) * (m // self.conductor), m)

    def conj(self) -> "CycloArray":
        """Complex conjugates: zeta_N^i goes to zeta_N^-i."""
        return self._mapped(-np.arange(self.ints.shape[-1]), self.conductor)

    def galois_moved(self) -> list[int]:
        """The generators u of (Z/N)^x, from `unit_generators`, under which
        the multiset of rows along the first axis changes.  Each `distinct`
        value is mapped once, and rows compare as sorted tuples of value ids,
        with -1 for a value mapped outside the array."""
        values, where = self.distinct()
        ids = {r: i for i, r in enumerate(map(tuple, values.ints.tolist()))}
        e, where = np.arange(self.ints.shape[-1]), where.reshape(len(where), -1)

        def rows(u):
            mapped = values._mapped(u * e, self.conductor).ints.tolist()
            image = np.array([ids.get(tuple(r), -1) for r in mapped])
            return sorted(map(tuple, image[where].tolist()))

        unmoved = rows(1)
        return [u for u in unit_generators(self.conductor) if rows(u) != unmoved]

    def bounded_primes(self, weight: int) -> tuple[int, list[int]]:
        """A bound on the coefficients of an integer combination, weights
        summing to `weight`, of den^2 and of products x * y and x * conj(y)
        of entries times den; and primes p = 1 (mod N) whose product exceeds
        twice it, with m * p^2 < 2^63 for every axis length m."""
        # sum_e v_e zeta_N^e has coefficients at most max|_reduction(N)| *
        # sum |v_e|; an entry has sum |v_e| <= phi(N) * max|ints|
        size = max(self.ints.shape[-1] * _amax(self.ints), self.den)
        bound = weight * _amax(_reduction(self.conductor)) * size**2
        ceiling = isqrt(_INT64_MAX // max(self.ints.shape))
        return bound, split_primes(self.conductor, 2 * bound, ceiling)

    def at_root(self, w: int, p: int):
        """The residues (values times den) with zeta_N -> w mod p, as int64
        of the leading shape; phi(N) * p^2 must stay below 2^63."""
        powers = np.array([pow(w, e, p) for e in range(self.ints.shape[-1])])
        return (self.ints % p).astype(np.int64) @ powers % p

    def distinct(self) -> tuple["CycloArray", np.ndarray]:
        """The distinct values as a one-axis array, and for every entry the
        index of its value there, in the leading shape."""
        rows = self.ints.reshape(-1, self.ints.shape[-1])
        ids: dict = {}
        where = [ids.setdefault(r, len(ids)) for r in map(tuple, rows.tolist())]
        # the keys, in order of first appearance, are the distinct rows
        values = np.array(list(ids), dtype=rows.dtype).reshape(len(ids), rows.shape[1])
        return (
            CycloArray(values, self.den, self.conductor),
            np.array(where, dtype=np.int64).reshape(self.ints.shape[:-1]),
        )

    def irrational(self):
        """For every value, in the leading shape, whether it is irrational:
        whether a residue beyond column 0 is nonzero."""
        return (self.ints[..., 1:] != 0).any(axis=-1)

    def item(self, i: int) -> Cyclo:
        """The value at index i of a one-axis array, as a Cyclo."""
        return Cyclo(self.conductor, self.ints[i].tolist(), self.den)

    def cyclos(self) -> list[Cyclo]:
        """The values of a one-axis array as Cyclo values."""
        return [Cyclo(self.conductor, r, self.den) for r in self.ints.tolist()]

    def weighted(self, weights, den: int = 1) -> "CycloArray":
        """weights @ values over den: integer weights contracted, by matmul
        rules, with the axis before the value axis."""
        return CycloArray(
            exact_matmul(weights, self.ints), den * self.den, self.conductor
        )

    def dot(self, other: "CycloArray", weights) -> "CycloArray":
        """sum_c weights[c] * self[..., c] * conj(other[..., c]) over the axis
        before the value axis, both at one conductor, leading axes broadcast
        by matmul rules; over self.den * other.den.  The sums of coefficient
        pairs, (..., phi(N), phi(N)), are reduced at exponents i - j by
        `_on_powers`, as conj(zeta_N^j) = zeta_N^-j: no conjugate is built.

        Weights too large for that to fit in int64 are split into base-B
        digits small enough for it, one int64 contraction per digit, and the
        digit sums are combined in Python ints; only entries too large by
        themselves put the contraction in Python ints."""
        w = np.asarray(weights)
        e = np.arange(self.ints.shape[-1])
        exponents = (e[:, None] - e).ravel()
        entries = _amax(self.ints) * _amax(other.ints)
        # with weights below B, every sum and reduced coefficient fits
        reduce_bound = len(exponents) * _amax(_reduction(self.conductor))
        B = _INT64_MAX // max(1, len(w) * entries * reduce_bound)
        digits, rest = [], np.abs(w)
        while B > 1 and _amax(rest) >= B:
            digits.append(np.where(w < 0, -(rest % B), rest % B))
            rest = rest // B
        digits.append(np.where(w < 0, -rest, rest) if digits else w)
        sums = []
        for d in digits:
            a, b, d = _exact(len(d) * _amax(d) * entries, self.ints, other.ints, d[:, None])
            pairs = np.matmul((a * d).swapaxes(-1, -2), b)
            pairs = pairs.reshape(pairs.shape[:-2] + (-1,))
            sums.append(_on_powers(pairs, exponents, self.conductor))
        if len(sums) > 1:
            scales = np.array([B**j for j in range(len(sums))], dtype=object)
            sums = [exact_matmul(np.stack(sums, axis=-1), scales)]
        return CycloArray(sums[0], self.den * other.den, self.conductor)
