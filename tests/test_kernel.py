"""The integer table kernel against plain Cyclo arithmetic."""
import json
from math import prod

import numpy as np
import pytest

from commcount import chars, counts, verify
from commcount.chars import (
    TableValidationError,
    build_table,
    inner_product,
    load_chartable,
    table_from_document,
    table_to_document,
    validate_table,
)
from commcount.cyclo import (
    Cyclo,
    CycloArray,
    exact_matmul,
    root_of_unity,
    split_primes,
)
from commcount.groups import conjugacy_classes, make_group


def cyclo_sum(weights, values) -> Cyclo:
    total = Cyclo.zero()
    for w, v in zip(weights, values):
        total = total + w * v
    return total


@pytest.mark.parametrize("spec", verify.sweep_specs())
def test_kernel_matches_scalar_cyclo(spec):
    G = make_group(spec)
    T = build_table(G)
    X = T.array
    part = conjugacy_classes(G)
    rows = T.irreducibles

    # rows along axis 0 against rows along axis 1: every pair of rows
    column = CycloArray(X.ints[:, None], X.den, X.conductor)
    gram = column.dot(CycloArray(X.ints[None], X.den, X.conductor), part.sizes)
    assert gram.den == X.den**2
    for i, chi in enumerate(rows):
        for j, psi in enumerate(rows[i:], i):
            got = Cyclo(X.conductor, gram.ints[i, j], G.order * gram.den)
            assert got == inner_product(chi, psi)
            back = Cyclo(X.conductor, gram.ints[j, i], G.order * gram.den)
            assert back == got.conj()
    # one row broadcast against every row is that row of the full product
    first = CycloArray(X.ints[0], X.den, X.conductor).dot(X, part.sizes)
    assert (first.ints == gram.ints[0]).all() and first.den == gram.den

    weights = counts._class_weights(G).tolist()
    for chi, coeff in zip(rows, counts.f3_coeffs(G, T)):
        theta = [cyclo_sum(w, chi.values) for w in weights]
        m = cyclo_sum(part.sizes, theta)
        assert counts.m_chi(G, chi) == m
        assert coeff == m.to_rational() / G.order

    for chi, d, coeff in zip(rows, T.degrees, counts.t_coeffs(G, 3, T)):
        norm = cyclo_sum(
            [s * (G.order // s) for s in part.sizes],
            [v * v.conj() for v in chi.values],
        )
        assert coeff == norm.to_rational() / d

    for coeffs in (counts.f3_coeffs(G, T), counts.t_coeffs(G, 3, T)):
        got = chars._combination(T, coeffs).cyclos()
        for c in range(len(part)):
            assert got[c] == cyclo_sum(coeffs, [chi.values[c] for chi in rows])


def test_exact_products_switch_to_python_ints():
    big = np.array([[2**40, -(2**40)]])
    prod = exact_matmul(big, big.T)
    assert prod.dtype == object and prod[0, 0] == 2**81
    small = exact_matmul(np.array([[3, 4]]), np.array([[5], [6]]))
    assert small.dtype == np.int64 and small[0, 0] == 39
    z = Cyclo(5, [2**70, -3, 0, 1])
    w = Cyclo(5, [1, 2, -(2**40), 5], 3)
    got = CycloArray.of([[z]]).dot(CycloArray.of([[w]]), [7])
    assert got.ints.dtype == object
    assert got.cyclos() == [7 * z * w.conj()]


@pytest.mark.parametrize("spec", ["dihedral:7", "cyclic:12", "alternating:5"])
def test_dot_takes_weights_beyond_int64_in_digits(spec):
    # weights of 20, 70 and 140 bits, of both signs, against the sum of
    # Cyclo products
    T = build_table(make_group(spec))
    X = T.array
    rng = np.random.default_rng(7)
    for bits in (20, 70, 140):
        draws = rng.integers(-(2**20), 2**20, X.ints.shape[1]).tolist()
        weights = [v * 2 ** (bits - 20) + v for v in draws]
        got = X.dot(X, np.array(weights, dtype=object)).cyclos()
        for chi, value in zip(T.irreducibles, got):
            assert value == cyclo_sum(weights, [v * v.conj() for v in chi.values]), bits


@pytest.mark.parametrize(
    "entry, dtype, den",
    [("1/2", np.int64, 2), (str(2**40), np.int64, 1), (str(2**70), object, 1)],
)
def test_corrupt_file_tables_fail_validation(tmp_path, entry, dtype, den):
    # A non-integer rational exercises the common denominator; entries of
    # 2^40 fit int64 but their products do not; 2^70 does not fit at all.
    G = make_group("alternating:5")
    doc = table_to_document(build_table(G))
    doc["irreducibles"][4][1] = entry
    T = table_from_document(G, doc, "file:mem")
    report = validate_table(T)
    assert not report.passed
    assert "row-orthogonality" in [c.name for c in report.failures()]
    assert T.array.den == den and T.array.ints.dtype == dtype
    bound, primes = chars._validation_primes(T)
    assert prod(primes) > 2 * bound
    if entry == str(2**70):
        assert len(primes) > 2

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TableValidationError):
        load_chartable(str(path), G)


def exact_order(w: int, p: int) -> int:
    m, x = 1, w
    while x != 1:
        x, m = x * w % p, m + 1
    return m


def test_roots_of_unity_at_every_sweep_conductor():
    # the validation primes of the sweep tables, then edge and large conductors
    cases = []
    for spec in verify.sweep_specs():
        T = build_table(make_group(spec))
        primes = chars._validation_primes(T)[1]
        cases += [(T.array.conductor, p) for p in primes]
    for n in (1, 2, 200, 240, 300):
        cases += [(n, p) for p in split_primes(n, 2**64, 2**28)]
    for n, p in cases:
        assert exact_order(root_of_unity(n, p), p) == n, (n, p)
