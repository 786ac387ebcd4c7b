from fractions import Fraction

import pytest

from commcount import distributions
from commcount.chars import ClassFunction, build_table, decompose
from commcount.counts import brute_f_n, brute_t_n, count_f_n
from commcount.cyclo import Cyclo, CycloArray, cyclo_root, format_cyclo, parse_cyclo
from commcount.distributions import (
    BoundsReport,
    GroupDistribution,
    bounds_report,
    convolve,
    convolve_power,
    distribution_from_counts,
    first_saturating_k,
    l1_to_uniform,
    p_n,
    point_mass,
    q3,
    q3_power_by_characters,
    uniform,
)
from commcount.groups import conjugacy_classes, make_group
from commcount.verify import sweep_specs
from commcount.realcmp import abs_as_cyclo, compare


@pytest.fixture(scope="module")
def a5():
    G = make_group("alternating:5")
    return G, count_f_n(G, 2), count_f_n(G, 3)


def test_a5_probabilities(a5):
    G, f2, f3 = a5
    assert p_n(f2, 0) == Fraction(1, 12)
    assert p_n(f3, 0) == Fraction(11, 1800)
    double = conjugacy_classes(G).reps[1]
    assert p_n(f2, double) == Fraction(32, 3600)


def test_a5_q3(a5):
    G, _, f3 = a5
    d = q3(f3)
    assert d.at(0) == Fraction(11, 20)
    assert sum(d.mass) == 1
    # coefficient form (1/60)(1, 8/5, 8/5, 21/10, 14/5) in the character basis
    T = build_table(G)
    part = conjugacy_classes(G)
    as_fn = ClassFunction(
        G, tuple(Cyclo.rational(d.at(rep)) for rep in part.reps)
    )
    sixtieth = Fraction(1, 60)
    assert decompose(as_fn, T) == (
        sixtieth,
        sixtieth * Fraction(8, 5),
        sixtieth * Fraction(8, 5),
        sixtieth * Fraction(21, 10),
        sixtieth * Fraction(14, 5),
    )


def test_q3_requires_f3_counts():
    G = make_group("symmetric:3")
    with pytest.raises(ValueError, match="f_3"):
        q3(brute_f_n(G, 2))
    with pytest.raises(ValueError, match="f_3"):
        q3(brute_t_n(G, 3))


def test_distribution_validation():
    G = make_group("cyclic:2")
    with pytest.raises(ValueError, match="sum"):
        GroupDistribution(G, (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        GroupDistribution(G, (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="one mass"):
        GroupDistribution(G, (Fraction(1),))


def test_convolution_identities():
    G = make_group("symmetric:3")
    d = q3(brute_f_n(G, 3))
    assert convolve(d, point_mass(G)) == d
    assert convolve(point_mass(G), d) == d
    assert convolve(uniform(G), d) == uniform(G)
    assert convolve(d, uniform(G)) == uniform(G)
    assert convolve_power(d, 0) == point_mass(G)
    assert convolve_power(d, 2) == convolve(d, d)

    other = make_group("symmetric:4")
    with pytest.raises(ValueError, match="different group"):
        convolve(d, uniform(other))


def test_l1_distance():
    G = make_group("alternating:5")
    assert l1_to_uniform(uniform(G)) == 0
    assert l1_to_uniform(point_mass(G)) == Fraction(2 * 59, 60)


def test_a5_l1_sequence_non_increasing(a5):
    G, _, f3 = a5
    d = q3(f3)
    distances = []
    power = d
    for _ in range(10):
        distances.append(l1_to_uniform(power))
        power = convolve(power, d)
    assert all(a >= b for a, b in zip(distances, distances[1:]))


def test_support_saturation(a5):
    G, _, f3 = a5
    # every element of this group is a commutator, so Q_3 already has
    # full support
    assert first_saturating_k(q3(f3)) == 1

    S3 = make_group("symmetric:3")
    # f_3 lives on even permutations only; convolution never escapes
    assert first_saturating_k(q3(brute_f_n(S3, 3)), k_max=5) is None


def test_p3_values_are_not_a_distribution(a5):
    G, _, f3 = a5
    total = sum(p_n(f3, g) for g in range(G.order))
    assert total == Fraction(2400, 60**3)
    assert total != 1


def test_d8_attains_gustafson_equality():
    G = make_group("dihedral:4")
    report = bounds_report(G)
    assert report.p2_1 == Fraction(5, 8)
    gustafson = next(r for r in report.records if r.name == "gustafson")
    assert gustafson.holds
    assert report.all_hold


def test_abelian_report_is_trivial():
    report = bounds_report(make_group("cyclic:6"))
    assert report.records == ()
    assert report.p2_1 == 1
    assert report.all_hold


@pytest.mark.parametrize(
    "spec",
    ["alternating:5", "symmetric:4", "dihedral:4", "dihedral:5", "dihedral:6",
     "dihedral:7", "quaternion", "alternating:4"],
)
def test_bounds_hold(spec):
    G = make_group(spec)
    report = bounds_report(G)
    assert report.records and report.all_hold
    assert report.failures() == []
    # every record's sides re-parse and re-verify exactly
    for rec in report.records:
        assert (compare(parse_cyclo(rec.lhs), parse_cyclo(rec.rhs)) <= 0) == rec.holds


@pytest.mark.parametrize(
    "spec", ["product:alternating:5,cyclic:3", "product:dihedral:5,cyclic:3"]
)
def test_bounds_hold_where_character_norms_are_irrational(spec):
    # character values such as phi * zeta_3 have an irrational |chi|^2
    report = bounds_report(make_group(spec))
    assert report.records and report.all_hold


IRRATIONAL_NORMS = ("product:alternating:5,cyclic:3", "product:dihedral:5,cyclic:3")


def scalar_abs_sums(T):
    # the per-(class, character) loop: sum_chi chi(1) |chi(g_c)| added up as
    # Cyclo values, zero entries skipped
    sums = []
    for c in range(len(T)):
        total = Cyclo.zero()
        for chi, d in zip(T.irreducibles, T.degrees):
            v = chi.values[c]
            if v:
                total = total + d * abs_as_cyclo(v)
        sums.append(total)
    return sums


@pytest.mark.parametrize("spec", sweep_specs() + IRRATIONAL_NORMS)
def test_abs_table_is_the_entrywise_abs(spec):
    T = build_table(make_group(spec))
    values = [chi.values for chi in T.irreducibles]
    seen = set()
    for classes, A in distributions._abs_table(T):
        assert A.ints.shape[:2] == (len(classes), len(T))
        seen.update(classes)
        for i, c in enumerate(classes):
            row = CycloArray(A.ints[i], A.den, A.conductor).cyclos()
            for j, got in enumerate(row):
                v = values[j][c]
                assert got == (abs_as_cyclo(v) if v else 0)
    assert seen == set(range(len(T)))


@pytest.mark.parametrize(
    "spec",
    sweep_specs() + IRRATIONAL_NORMS + ("symmetric:6", "dihedral:60", "dihedral:100"),
)
def test_bounds_report_matches_the_scalar_loop(spec, monkeypatch):
    G = make_group(spec)
    f2, f3, T = count_f_n(G, 2), count_f_n(G, 3), build_table(G)
    got = bounds_report(G, f2, f3, T)
    monkeypatch.setattr(distributions, "_abs_sums", scalar_abs_sums)
    want = bounds_report(G, f2, f3, T)
    assert got == want  # name for name, string for string


def test_abs_is_taken_once_per_distinct_table_entry(monkeypatch):
    G = make_group("dihedral:100")
    f2, f3, T = count_f_n(G, 2), count_f_n(G, 3), build_table(G)
    distinct, _ = T.array.distinct()
    calls = []

    def spy(v):
        calls.append(v)
        return abs_as_cyclo(v)

    monkeypatch.setattr(distributions, "abs_as_cyclo", spy)
    assert bounds_report(G, f2, f3, T).all_hold
    assert 0 < len(calls) <= len(distinct.ints) < len(T) ** 2


def test_a5_report_values(a5):
    G, f2, f3 = a5
    report = bounds_report(G, f2, f3)
    assert report.alpha == Fraction(1, 60)
    assert report.p3_1 == Fraction(11, 1800)
    prop_i = next(r for r in report.records if r.name == "prop-i")
    assert prop_i.lhs == "11/1800"
    assert isinstance(report, BoundsReport)


def test_class_constant_masses():
    G = make_group("symmetric:4")
    d = distribution_from_counts(brute_f_n(G, 3))
    part = conjugacy_classes(G)
    for cls in part.classes:
        assert len({d.at(g) for g in cls}) == 1


# -- class-level powers against the element-level oracle ------------------------


def literal_saturating_k(d, k_max=30):
    # the element loop: convolve, then read the whole support
    full = frozenset(range(d.group.order))
    power = d
    for k in range(1, k_max + 1):
        if power.support() == full:
            return k
        power = convolve(power, d)
    return None


def on_elements(d):
    return GroupDistribution(d.group, d.mass)


@pytest.mark.parametrize("spec", sweep_specs())
def test_class_powers_match_element_convolution(spec):
    G = make_group(spec)
    q = q3(brute_f_n(G, 3))
    assert q.classes is not None
    oracle = point_mass(G)
    for k in range(1, 5):
        oracle = convolve(oracle, on_elements(q))
        d = convolve_power(q, k)
        assert d.classes is not None and d.den == q.den**k
        assert [d.at(g) for g in range(G.order)] == list(oracle.mass)
        assert d.support() == oracle.support()
        assert l1_to_uniform(d) == l1_to_uniform(oracle)
        assert d == oracle and oracle == d
    assert first_saturating_k(q, k_max=5) == literal_saturating_k(q, k_max=5)


def test_saturation_cutoff_on_a_cyclic_walk():
    # supports {0..k} of size k + 1: the whole of cyclic:10 first at k = 9
    G = make_group("cyclic:10")
    d = GroupDistribution(G, (Fraction(1, 2),) * 2 + (Fraction(0),) * 8)
    for k_max, want in ((8, None), (9, 9), (10, 9)):
        assert first_saturating_k(d, k_max) == want
        assert literal_saturating_k(d, k_max) == want


def test_saturation_without_mass_at_the_identity():
    G = make_group("cyclic:10")
    step = GroupDistribution(G, (0, Fraction(1, 2), Fraction(1, 2)) + (0,) * 7)
    rotation = point_mass(G, 1)  # supports move round and never grow
    S3, S4 = make_group("symmetric:3"), make_group("symmetric:4")
    off_identity = GroupDistribution.on_classes(S3, (0, 1, 1), 5)
    transpositions = GroupDistribution.on_classes(S4, (0, 1, 0, 0, 0), 6)
    for d, want in ((step, 9), (rotation, None), (off_identity, 2),
                    (transpositions, None)):
        assert d.at(0) == 0
        assert first_saturating_k(d, k_max=12) == want
        assert literal_saturating_k(d, k_max=12) == want


def test_saturation_reads_supports_only(monkeypatch, a5):
    G, _, f3 = a5
    S4 = make_group("symmetric:4")
    q_s4 = q3(brute_f_n(S4, 3))

    def refuse(*args):
        raise AssertionError("convolve called")

    monkeypatch.setattr(distributions, "convolve", refuse)
    assert first_saturating_k(q3(f3)) == 1
    assert first_saturating_k(q_s4) is None  # stops once the support is A4
    assert first_saturating_k(on_elements(q_s4)) is None
    assert first_saturating_k(point_mass(S4)) is None


def test_class_distribution_validation():
    G = make_group("symmetric:3")
    with pytest.raises(ValueError, match="one mass per conjugacy class"):
        GroupDistribution.on_classes(G, (1, 1), 4)
    with pytest.raises(ValueError, match="non-negative"):
        GroupDistribution.on_classes(G, (2, -1, 1), 1)
    with pytest.raises(ValueError, match="sum"):
        GroupDistribution.on_classes(G, (1, 1, 1), 7)
    with pytest.raises(ValueError, match="sum"):
        GroupDistribution.on_classes(G, (0, 0, 0), 0)
    assert uniform(G) == GroupDistribution(G, (Fraction(1, 6),) * 6)


@pytest.mark.parametrize(
    "spec", ["alternating:5", "symmetric:4", "dihedral:7", "quaternion"]
)
def test_character_path_matches_class_path(spec):
    G = make_group(spec)
    q = q3(brute_f_n(G, 3))
    for k in range(4):
        assert q3_power_by_characters(G, k) == convolve_power(q, k)
    assert q3_power_by_characters(G, 0) == point_mass(G)
    with pytest.raises(ValueError, match="non-negative"):
        q3_power_by_characters(G, -1)


def test_powers_past_int64():
    # denominators above 2^63 take the Python-int path of every product
    S5 = make_group("symmetric:5")
    q = q3(brute_f_n(S5, 3))
    assert q.den**5 > 2**63
    assert convolve_power(q, 6) == q3_power_by_characters(S5, 6)
    big = 2**70
    d = GroupDistribution.on_classes(make_group("symmetric:3"), (big, 2 * big, big), 9 * big)
    assert convolve_power(d, 3) == convolve(convolve(d, d), d)


def test_every_distribution_carries_a_partition():
    G = make_group("symmetric:3")
    classes, elements = conjugacy_classes(G), distributions._elements(G)
    assert elements is distributions._elements(G)  # built once per group
    assert elements.classes == tuple((g,) for g in range(G.order))
    assert elements.reps == elements.class_of == tuple(range(G.order))
    assert elements.sizes == (1,) * G.order
    q = q3(brute_f_n(G, 3))
    step = GroupDistribution(G, (0, Fraction(1, 2), Fraction(1, 2), 0, 0, 0))
    on_classes = [
        GroupDistribution.on_classes(G, (1, 1, 1), 6), uniform(G), q,
        distribution_from_counts(brute_f_n(G, 2)), q3_power_by_characters(G, 2),
        convolve_power(q, 0), convolve_power(q, 3),
    ]
    on_elements = [
        step, GroupDistribution(G, q.mass), point_mass(G), point_mass(G, 3),
        convolve(q, q), convolve(step, uniform(G)), convolve_power(step, 0),
        convolve_power(step, 3),
    ]
    assert all(d.classes is classes for d in on_classes)
    assert all(d.classes is elements for d in on_elements)


def _not_class_functions():
    S4, D5 = make_group("symmetric:4"), make_group("dihedral:5")
    transposition = S4.perm_list.index((1, 0, 2, 3))
    step = [Fraction(0)] * D5.order
    step[1] = step[D5.order - 1] = Fraction(1, 2)  # a rotation and a reflection
    out = [point_mass(S4, transposition), GroupDistribution(D5, step)]
    for d in out:
        assert d.classes is not conjugacy_classes(d.group)
        assert any(len({d.at(g) for g in c}) > 1 for c in conjugacy_classes(d.group).classes)
    return out


def test_element_powers_match_iterated_convolution():
    for d in _not_class_functions():
        oracle = point_mass(d.group)
        for k in range(5):
            power = convolve_power(d, k)
            assert power.classes is d.classes and power.den == d.den**k
            assert power.mass == oracle.mass
            oracle = convolve(oracle, d)


def test_element_saturation_matches_the_literal_powers():
    for d in _not_class_functions():
        for k_max in (1, 3, 12):
            assert first_saturating_k(d, k_max) == literal_saturating_k(d, k_max)


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        (Fraction(-3, 4), 0),
        (0, Fraction(5, 8)),
        (Fraction(5, 8), Fraction(5, 8)),
        (Cyclo(5, [3, 0, 0, 0], 4), Fraction(3, 4)),
        (7, Cyclo(12, [-1, 0, 0, 0], 3)),
        (cyclo_root(5) + cyclo_root(5, 4), Fraction(1, 2)),
        (Fraction(1, 3), cyclo_root(5, 2) + cyclo_root(5, 3)),
    ],
)
def test_bound_records_read_as_the_cyclotomic_comparison(lhs, rhs):
    # rational sides skip Cyclo, with the same literals and verdict
    left = lhs if isinstance(lhs, Cyclo) else Cyclo.rational(lhs)
    right = rhs if isinstance(rhs, Cyclo) else Cyclo.rational(rhs)
    record = distributions._record("r", lhs, rhs)
    assert (record.lhs, record.rhs, record.holds) == (
        format_cyclo(left), format_cyclo(right), compare(left, right) <= 0
    )


@pytest.mark.parametrize("spec", ("alternating:5", "dihedral:5") + IRRATIONAL_NORMS)
def test_bound_records_take_no_second_realness_proof(spec, monkeypatch):
    # |chi(g)| is proved real by abs_as_cyclo in _abs_sums; _record then
    # reads the sign of an irrational record without Cyclo.conj
    G = make_group(spec)
    f2, f3, T = count_f_n(G, 2), count_f_n(G, 3), build_table(G)
    want = bounds_report(G, f2, f3, T)
    sums = distributions._abs_sums(T)
    monkeypatch.setattr(distributions, "_abs_sums", lambda T: sums)
    calls = []
    conj = Cyclo.conj

    def spy(self):
        calls.append(self)
        return conj(self)

    monkeypatch.setattr(Cyclo, "conj", spy)
    got = bounds_report(G, f2, f3, T)
    monkeypatch.undo()
    assert got == want and calls == []
    assert any(not parse_cyclo(r.rhs).is_rational() for r in got.records)
