import pytest

from commcount import chars
from commcount import counts as counts_module
from commcount.chars import ClassFunction, build_table, decompose
from commcount.counts import (
    brute_f_n,
    brute_t_n,
    f3_coeffs,
    f3_from_characters,
    t_coeffs,
    t_from_characters,
)
from commcount.cyclo import Cyclo
from commcount.dihedral import (
    f3_class_counts_closed,
    f3_coeffs_closed,
    f3_value_closed,
    t3_class_counts_closed,
    t3_coeffs_closed,
)
from commcount.groups import make_group


def test_f3_coeffs_by_congruence_case():
    c5 = f3_coeffs_closed(5)
    assert (c5.linear_coeff, c5.psi_coeffs) == (20, (30, 30))

    c8 = f3_coeffs_closed(8)
    assert c8.linear_coeff == 60
    assert c8.psi_coeffs == (80, 88, 80)

    c6 = f3_coeffs_closed(6)
    assert c6.linear_coeff == 40
    assert c6.psi_coeffs == (56, 56)

    assert f3_coeffs_closed(5).as_row_tuple() == (20, 20, 30, 30)
    assert f3_coeffs_closed(8).as_row_tuple() == (60, 60, 60, 60, 80, 88, 80)


def test_t3_coeffs():
    assert t3_coeffs_closed(5).as_row_tuple() == (40, 40, 35, 35)
    assert t3_coeffs_closed(6).as_row_tuple() == (72,) * 4 + (60, 60)
    c3 = t3_coeffs_closed(3)
    assert (c3.linear_coeff, c3.psi_coeffs) == (18, (15,))
    G = make_group("dihedral:3")
    assert brute_t_n(G, 3).at(0) == 66 == 18 * 2 + 15 * 2


def test_f3_values():
    assert f3_value_closed(5) == 160 == 5**3 + 7 * 5
    assert f3_value_closed(8, 2) == 96 == 12 * 8
    assert f3_value_closed(8, 1) == 64
    assert f3_value_closed(6, 1) == 48 == 8 * 6
    assert f3_value_closed(7, 3) == 14


def test_domain_errors():
    with pytest.raises(ValueError, match="at least 3"):
        f3_coeffs_closed(2)
    with pytest.raises(ValueError, match="at least 3"):
        t3_coeffs_closed(1)
    for bad_s in (0, -1, 3):
        with pytest.raises(ValueError, match="not in"):
            f3_value_closed(5, bad_s)
    with pytest.raises(ValueError, match="not in"):
        f3_value_closed(6, 3)
    with pytest.raises(ValueError, match="dihedral"):
        f3_class_counts_closed(make_group("symmetric:3"))


@pytest.mark.parametrize("n", list(range(3, 13)) + [20, 25])
def test_three_way_agreement(n):
    G = make_group(f"dihedral:{n}")
    T = build_table(G)
    brute3 = brute_f_n(G, 3)

    row = f3_coeffs_closed(n).as_row_tuple()
    assert f3_coeffs(G, T) == row
    as_fn = ClassFunction(G, tuple(Cyclo.rational(v) for v in brute3.values))
    assert decompose(as_fn, T) == row

    assert f3_class_counts_closed(G) == brute3 == f3_from_characters(G, T)

    assert t_coeffs(G, 3, T) == t3_coeffs_closed(n).as_row_tuple()
    assert t3_class_counts_closed(G) == brute_t_n(G, 3) == t_from_characters(G, 3, T)


@pytest.mark.parametrize("n", range(3, 13))
def test_support_is_the_derived_subgroup(n):
    G = make_group(f"dihedral:{n}")
    support = brute_f_n(G, 3).support()
    if n % 2:
        assert support == frozenset(range(n))
    else:
        assert support == frozenset(range(0, n, 2))


def test_rotation_values_match_brute():
    for n in (5, 6, 7, 8, 9, 12):
        G = make_group(f"dihedral:{n}")
        counts = brute_f_n(G, 3)
        assert counts.at(0) == f3_value_closed(n)
        for s in range(1, (n - 1) // 2 + 1 if n % 2 else n // 2):
            if 2 * s < n:
                assert counts.at((2 * s) % n) == f3_value_closed(n, s), (n, s)


def _t3_on_the_closed_table(G):
    """t_3 read through a character table: the closed coefficients against
    the group's closed-form table, certified integral (validation changes no
    entry, so the table is built unvalidated)."""
    coeffs = t3_coeffs_closed(G.order // 2).as_row_tuple()
    return counts_module._certified_counts(G, chars._build_unvalidated(G), coeffs, "t", 3)


def test_closed_t3_equals_the_closed_coefficients_on_the_table():
    # every n to 100, and all four residues mod 4 near 300
    for n in [*range(3, 101), *range(290, 301)]:
        G = make_group(f"dihedral:{n}")
        assert t3_class_counts_closed(G) == _t3_on_the_closed_table(G), n


def test_closed_t3_reads_no_table_and_equals_brute(monkeypatch):
    def refuse(G):
        raise AssertionError("a character table was built")

    monkeypatch.setattr(chars, "_build_unvalidated", refuse)
    for n in range(3, 61):
        G = make_group(f"dihedral:{n}")
        assert t3_class_counts_closed(G) == brute_t_n(G, 3), n
