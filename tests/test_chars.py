import cmath
import dataclasses
import json
from math import gcd

import numpy as np
import pytest

from commcount import chars, verify
from commcount.cli import main
from commcount.chars import (
    CharacterTable,
    ClassFunction,
    TableProviderError,
    TableValidationError,
    _combination,
    build_table,
    decompose,
    inner_product,
    load_chartable,
    partitions_of,
    rimhook_character,
    save_chartable,
    table_from_document,
    table_to_document,
    validate_table,
)
from commcount.cyclo import Cyclo, CycloArray, cyclo_root, parse_cyclo, unit_generators
from commcount.groups import conjugacy_classes, make_group, save_group


def _approx(c: Cyclo) -> complex:
    """A floating approximation of c, for the assertions below only."""
    n = c.conductor
    return sum(
        v / c.den * cmath.exp(2j * cmath.pi * i / n)
        for i, v in enumerate(c.ints)
        if v
    ) or complex(0)


def conjugation_character(G) -> ClassFunction:
    """The permutation character of G acting on itself by conjugation:
    g -> |C_G(g)|."""
    part = conjugacy_classes(G)
    return ClassFunction(
        G, tuple(Cyclo.rational(G.order // s) for s in part.sizes)
    )


def test_cyclic_table():
    G = make_group("cyclic:6")
    T = build_table(G)
    assert T.validated
    assert T.degrees == (1,) * 6
    assert T.provenance == "cyclic-closed-form"
    # chi_j(a^r) = zeta_6^(jr); abelian, so class index == element index
    for j in range(6):
        for r in range(6):
            assert T.irreducibles[j].values[r] == cyclo_root(6, j * r)
    assert T.labels[0] == "chi0"


def test_dihedral_table_odd():
    G = make_group("dihedral:5")
    T = build_table(G)
    assert T.validated
    assert T.degrees == (1, 1, 2, 2)
    assert T.labels == ("chi1", "chi2", "psi1", "psi2")
    part = conjugacy_classes(G)
    refl = part.class_of[5]
    assert T.irreducibles[1].values[refl] == -1
    # psi_1 at the class of a: zeta + zeta^-1 = 2cos(72deg)
    psi1_a = T.irreducibles[2].values[part.class_of[1]]
    assert psi1_a == cyclo_root(5, 1) + cyclo_root(5, 4)
    assert abs(_approx(psi1_a).real - 0.6180339887) < 1e-9
    psi2_a = T.irreducibles[3].values[part.class_of[1]]
    assert psi2_a == cyclo_root(5, 2) + cyclo_root(5, 3)


def test_dihedral_table_even():
    G = make_group("dihedral:4")
    T = build_table(G)
    assert T.validated
    assert T.degrees == (1, 1, 1, 1, 2)
    part = conjugacy_classes(G)
    # classes: 1, a, a^2, b-type, ab-type
    psi = T.irreducibles[4]
    assert [v.to_rational() for v in psi.values] == [2, 0, -2, 0, 0]
    chi3 = T.irreducibles[2]
    assert [v.to_rational() for v in chi3.values] == [1, -1, 1, 1, -1]
    chi4 = T.irreducibles[3]
    assert [v.to_rational() for v in chi4.values] == [1, -1, 1, -1, 1]

    T12 = build_table(make_group("dihedral:6"))
    assert T12.degrees == (1, 1, 1, 1, 2, 2)


def test_dihedral_table_identity_on_all_pairs_above_order_24():
    # order 40: the product identity runs on every pair of class reps
    T = build_table(make_group("dihedral:20"))
    assert T.validated
    identity = T.report.checks[-1]
    assert (identity.name, identity.detail) == ("product-identity", "all class-rep pairs")
    assert len(T) == 13
    assert sorted(T.degrees) == [1, 1, 1, 1] + [2] * 9


def test_symmetric_tables():
    T3 = build_table(make_group("symmetric:3"))
    assert T3.validated
    assert T3.degrees == (1, 1, 2)
    assert T3.labels == ("(1,1,1)", "(3)", "(2,1)")
    # the degree-2 character vanishes on transpositions
    part = conjugacy_classes(T3.group)
    std = T3.irreducibles[2]
    vals = {
        T3.group.element_orders()[rep]: std.values[i].to_rational()
        for i, rep in enumerate(part.reps)
    }
    assert vals == {1: 2, 2: 0, 3: -1}

    T4 = build_table(make_group("symmetric:4"))
    assert T4.validated
    assert T4.degrees == (1, 1, 2, 3, 3)

    T5 = build_table(make_group("symmetric:5"))
    assert T5.validated
    assert T5.degrees == (1, 1, 4, 4, 5, 5, 6)


def test_rimhook_classical_identities():
    # trivial, sign and standard characters have textbook closed forms
    for n in range(2, 8):
        for mu in partitions_of(n):
            assert rimhook_character((n,), mu) == 1
            assert rimhook_character((1,) * n, mu) == (-1) ** (n - len(mu))
            fixed = sum(1 for p in mu if p == 1)
            assert rimhook_character((n - 1, 1), mu) == fixed - 1


def test_partitions_of():
    assert partitions_of(4) == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    assert len(partitions_of(7)) == 15


def test_bundled_a5():
    G = make_group("alternating:5")
    T = build_table(G)
    assert T.validated
    assert T.provenance == "bundled:a5"
    assert T.degrees == (1, 3, 3, 4, 5)
    golden = parse_cyclo("-E(5)^2-E(5)^3")
    assert T.irreducibles[1].values[3] == golden
    assert abs(_approx(golden).real - 1.6180339887) < 1e-9


def test_bundled_a4_and_q8():
    T = build_table(make_group("alternating:4"))
    assert T.validated and T.degrees == (1, 1, 1, 3)
    omega = T.irreducibles[1].values[2]
    assert omega in (cyclo_root(3, 1), cyclo_root(3, 2))

    Q = build_table(make_group("quaternion"))
    assert Q.validated and Q.provenance == "bundled:q8"
    assert Q.degrees == (1, 1, 1, 1, 2)
    assert Q.irreducibles[4].values[4] == -2


def test_auto_provider_errors():
    with pytest.raises(TableProviderError, match="no built-in table for perm:.*file:"):
        build_table(make_group("perm:(1 2 3),(4 5 6)"))
    # the group alone picks its table; a table file is load_chartable's
    with pytest.raises(TypeError):
        build_table(make_group("cyclic:3"), "auto")


def test_build_table_builds_once_per_group(monkeypatch):
    calls = []
    build = chars._build_unvalidated

    def counted(G):
        calls.append(G)
        return build(G)

    monkeypatch.setattr(chars, "_build_unvalidated", counted)
    G = make_group("dihedral:5")
    assert build_table(G) is build_table(G)
    assert calls == [G]


def test_a_product_table_is_validated_once(monkeypatch):
    # the factors' tables are built unvalidated; the product's own complete
    # validation is the only one
    validated = []
    validate = chars.validate_table

    def counted(T):
        validated.append(T.group.spec)
        return validate(T)

    monkeypatch.setattr(chars, "validate_table", counted)
    T = build_table(make_group("product:dihedral:6,cyclic:4"))
    assert T.validated and validated == ["product:dihedral:6,cyclic:4"]


def test_a_corrupt_factor_table_rejects_the_product(monkeypatch):
    build = chars._build_unvalidated

    def corrupt(G):
        T = build(G)
        if G.spec == "cyclic:4":  # last row replaced by a copy of the first
            rows = T.irreducibles[:-1] + T.irreducibles[:1]
            return dataclasses.replace(T, array=CycloArray.of([r.values for r in rows]))
        return T

    monkeypatch.setattr(chars, "_build_unvalidated", corrupt)
    with pytest.raises(TableValidationError, match="character table rejected: .*galois-closure"):
        build_table(make_group("product:dihedral:6,cyclic:4"))


def test_a_table_file_is_read_on_every_load(tmp_path, capsys):
    # one group object throughout: nothing of an earlier load may answer
    G = make_group("alternating:5")
    path = tmp_path / "a5.json"
    save_chartable(build_table(G), str(path))
    first = load_chartable(str(path), G)
    assert first.validated and first.provenance == f"file:{path}"

    doc = json.loads(path.read_text())
    doc["labels"] = [f"x{i}" for i in range(len(doc["labels"]))]
    path.write_text(json.dumps(doc))
    assert load_chartable(str(path), G).labels == ("x0", "x1", "x2", "x3", "x4")

    doc["irreducibles"][1][1] = "7"
    path.write_text(json.dumps(doc))
    with pytest.raises(TableValidationError):
        load_chartable(str(path), G)

    path.unlink()
    with pytest.raises(FileNotFoundError):
        load_chartable(str(path), G)
    code = main(["coeffs", "--group", "alternating:5", "--fn", "f3", "--table", f"file:{path}"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and "No such file" in err


@pytest.mark.parametrize(
    "spec, provenance",
    [
        ("cyclic:1", "cyclic-closed-form"),
        ("cyclic:12", "cyclic-closed-form"),
        ("alternating:1", "cyclic-closed-form"),
        ("alternating:3", "cyclic-closed-form"),
        ("alternating:4", "bundled:a4"),
        ("alternating:5", "bundled:a5"),
        ("symmetric:1", "symmetric-mn"),
        ("symmetric:2", "symmetric-mn"),
        ("symmetric:4", "symmetric-mn"),
        ("dihedral:5", "dihedral-closed-form"),
        ("quaternion", "bundled:q8"),
        ("product:cyclic:2,alternating:5", "product-tensor"),
        ("perm:(1 2 3 4 5 6)", "cyclic-closed-form"),
        ("file: cyclic:6 saved and loaded", "cyclic-closed-form"),
    ],
)
def test_the_group_picks_its_table(spec, provenance, tmp_path):
    if spec.startswith("file:"):
        path = tmp_path / "c6.json"
        save_group(make_group("cyclic:6"), str(path))
        spec = f"file:{path}"
    T = build_table(make_group(spec))
    assert T.validated and T.provenance == provenance


@pytest.mark.parametrize(
    "spec", ["cyclic:1000", "dihedral:2520", "product:cyclic:70,cyclic:72"]
)
def test_tables_over_the_cap_are_refused_before_allocation(spec, monkeypatch):
    G = make_group(spec)
    reduction = chars._reduction

    # the providers' big arrays come from these two; the refused ones would
    # take 3.2 GB and more
    def allocate(*args):
        raise AssertionError("the table was allocated")

    # a product builds its factors' tables, at conductors 70 and 72, and no other
    monkeypatch.setattr(
        chars, "_reduction", lambda n: reduction(n) if n in (70, 72) else allocate()
    )
    monkeypatch.setattr(CycloArray, "dot", allocate)
    with pytest.raises(TableProviderError, match="residues, above the cap 16777216"):
        build_table(G)


@pytest.mark.parametrize("spec", ["cyclic:240", "dihedral:300"])
def test_large_conductor_tables_under_the_cap_still_build(spec):
    assert build_table(make_group(spec)).validated


def test_cyclic_provider_generalizes():
    # alternating:3 is cyclic of order 3; a cyclic permutation group gets a
    # table even though its elements are not indexed by exponent
    A3 = build_table(make_group("alternating:3"))
    assert A3.degrees == (1, 1, 1)
    P = make_group("perm:(1 2 3 4 5 6)")
    T = build_table(P)
    assert T.provenance == "cyclic-closed-form"
    assert T.degrees == (1,) * 6
    assert T.validated


def test_tensor_table():
    G = make_group("product:cyclic:2,alternating:5")
    T = build_table(G)
    assert T.validated
    assert T.provenance == "product-tensor"
    assert T.degrees == (1, 3, 3, 4, 5, 1, 3, 3, 4, 5)
    assert T.labels[1] == "chi0*chi2"


def test_conjugation_character():
    G = make_group("alternating:5")
    theta = conjugation_character(G)
    assert [v.to_rational() for v in theta.values] == [60, 4, 3, 5, 5]
    # multiplicity of the trivial character is the class count
    for spec in ("alternating:5", "symmetric:4", "dihedral:5"):
        H = make_group(spec)
        th = conjugation_character(H)
        T = build_table(H)
        mults = decompose(th, T)
        triv = next(
            i for i, chi in enumerate(T.irreducibles)
            if all(v == 1 for v in chi.values)
        )
        assert mults[triv] == len(conjugacy_classes(H))
        assert all(m.denominator == 1 and m >= 0 for m in mults)
        assert tuple(_combination(T, mults).cyclos()) == th.values
        # the same values written at conductor 3 (1 + zeta_3 + zeta_3^2 = 0)
        lifted = tuple(v + 1 + cyclo_root(3) + cyclo_root(3, 2) for v in th.values)
        assert decompose(ClassFunction(H, lifted), T) == mults


def test_inner_product_and_errors():
    T = build_table(make_group("symmetric:3"))
    assert inner_product(T.irreducibles[2], T.irreducibles[2]) == 1
    assert inner_product(T.irreducibles[0], T.irreducibles[1]).is_zero()
    other = conjugation_character(make_group("cyclic:2"))
    with pytest.raises(ValueError, match="different groups"):
        inner_product(T.irreducibles[0], other)


def test_document_roundtrip(tmp_path):
    G = make_group("dihedral:5")
    T = build_table(G)
    doc = table_to_document(T)
    T2 = table_from_document(G, doc, "file:mem")
    assert all(a == b for a, b in zip(T2.irreducibles, T.irreducibles))

    path = tmp_path / "c3.json"
    path.write_text(json.dumps(table_to_document(build_table(make_group("cyclic:3")))))
    T3 = load_chartable(str(path), make_group("cyclic:3"))
    assert T3.validated
    assert T3.provenance == f"file:{path}"


def _same_array(X: CycloArray, Y: CycloArray) -> bool:
    same_format = (X.ints.dtype, X.den, X.conductor) == (Y.ints.dtype, Y.den, Y.conductor)
    return same_format and np.array_equal(X.ints, Y.ints)


@pytest.mark.parametrize(
    "spec",
    verify.sweep_specs()
    + ("product:dihedral:6,cyclic:4", "product:quaternion,cyclic:3", "product:cyclic:4,cyclic:3"),
)
def test_irreducibles_view_the_array(spec, tmp_path):
    G = make_group(spec)
    T = build_table(G)
    assert _same_array(T.array, CycloArray.of([chi.values for chi in T.irreducibles]))
    # a document names no conductor: a rational table (cyclic:2, dihedral:3)
    # reloads at conductor 1, so the reloaded array is compared at the table's
    # conductor, and it saves again to the same bytes
    path = tmp_path / "table.json"
    save_chartable(T, str(path))
    T2 = load_chartable(str(path), G)
    rational = not T.array.ints[..., 1:].any()
    assert T2.array.conductor == (1 if rational else T.array.conductor)
    assert _same_array(T2.array.lifted(T.array.conductor), T.array)
    save_chartable(T2, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_tensor_documents_write_entries_at_the_table_conductor(tmp_path):
    # chi1*chi1 takes the value i = E(4) on some class; the table is at 12
    G = make_group("product:dihedral:6,cyclic:4")
    T = build_table(G)
    doc = table_to_document(T)
    assert "E(12)^3" in doc["irreducibles"][T.labels.index("chi1*chi1")]
    assert not any("E(4)" in v for row in doc["irreducibles"] for v in row)
    path = tmp_path / "table.json"
    save_chartable(T, str(path))
    T2 = load_chartable(str(path), G)
    assert _same_array(T2.array, T.array)
    save_chartable(T2, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_document_alignment_errors():
    G4 = make_group("alternating:4")
    doc = table_to_document(build_table(make_group("alternating:5")))
    with pytest.raises(ValueError, match="order 60"):
        table_from_document(G4, doc, "file:mem")

    G5 = make_group("alternating:5")
    bad = table_to_document(build_table(G5))
    bad["class_sizes"] = [1, 20, 15, 12, 12]
    with pytest.raises(ValueError, match="class 1"):
        table_from_document(G5, bad, "file:mem")

    bad2 = table_to_document(build_table(G5))
    bad2["class_rep_orders"] = [1, 2, 3, 5, 10]
    with pytest.raises(ValueError, match="class_rep_orders"):
        table_from_document(G5, bad2, "file:mem")


def test_validation_catches_corruption(tmp_path):
    G = make_group("alternating:5")
    doc = table_to_document(build_table(G))
    doc["irreducibles"][4][1] = "2"  # chi5 at the involution class: 1 -> 2
    T = table_from_document(G, doc, "file:mem")
    report = validate_table(T)
    assert not report.passed
    assert not T.validated
    assert T.report is report
    assert [c.name for c in report.checks] == [
        "class-count",
        "degrees-match-identity-column",
        "degree-square-sum",
        "galois-closure",
        "row-orthogonality",
        "product-identity",
    ]
    names = [c.name for c in report.failures()]
    assert "row-orthogonality" in names
    row_check = next(c for c in report.checks if c.name == "row-orthogonality")
    assert "4" in row_check.detail

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TableValidationError) as exc:
        load_chartable(str(path), G)
    assert exc.value.report.failures()


@pytest.mark.parametrize("rows", [slice(0, -1), slice(0, 0)])
def test_documents_missing_rows_fail_only_the_class_count(rows):
    # the table array is built with the table, so a table with rows missing,
    # or with none, must reach validation and fail there
    G = make_group("alternating:5")
    doc = table_to_document(build_table(G))
    doc["irreducibles"] = doc["irreducibles"][rows]
    doc["labels"] = doc["labels"][rows]
    report = validate_table(table_from_document(G, doc, "file:mem"))
    assert [c.name for c in report.checks] == ["class-count"]
    assert not report.passed


def test_validation_catches_wrong_degree():
    G = make_group("quaternion")
    doc = table_to_document(build_table(G))
    doc["irreducibles"][4][0] = "3"
    T = table_from_document(G, doc, "file:mem")
    report = validate_table(T)
    names = [c.name for c in report.failures()]
    assert "degree-square-sum" in names


def test_sweep_row_names_a_failing_table(monkeypatch):
    build = chars._build_unvalidated

    def corrupt(G):
        T = build(G)
        if G.spec == "cyclic:7":  # last row replaced by a copy of the first
            rows = T.irreducibles[:-1] + T.irreducibles[:1]
            return dataclasses.replace(T, array=CycloArray.of([r.values for r in rows]))
        return T

    monkeypatch.setattr(chars, "_build_unvalidated", corrupt)
    monkeypatch.setattr(
        verify, "sweep_specs", lambda: ("cyclic:3", "cyclic:7", "alternating:5")
    )
    rows = {r.name: r for r in verify.run_suite("properties")}
    row = rows["character-table-validation"]
    assert not row.passed
    assert "FAILED at ['cyclic:7']" in row.detail
    assert "product-identity: all class-rep pairs on 2 groups" in row.detail
    assert rows["f3-oracle-equivalence"].passed


def test_product_identity_catches_swapped_central_columns(tmp_path):
    # Classes 1 and 17 of Q8 x C4 are both central (size 1) with reps of
    # order 4, so swapping their columns keeps the class data and row
    # orthogonality; only the product identity on some class-rep pair fails.
    G = make_group("product:quaternion,cyclic:4")
    part = conjugacy_classes(G)
    assert part.sizes[1] == part.sizes[17] == 1
    orders = G.element_orders()
    assert orders[part.reps[1]] == orders[part.reps[17]] == 4
    doc = table_to_document(build_table(G))
    for row in doc["irreducibles"]:
        row[1], row[17] = row[17], row[1]
    report = validate_table(table_from_document(G, doc, "file:mem"))
    assert [c.name for c in report.failures()] == ["product-identity"]
    assert report.failures()[0].detail.startswith("fails at (g, h, row) [(")

    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TableValidationError, match="product-identity"):
        load_chartable(str(path), G)


def _oracle_verdicts(T) -> dict[str, bool]:
    # each check of validate_table by literal Cyclo arithmetic: the Galois
    # action on every unit, inner products, and sum_z chi(g * h^z) over z
    G, rows = T.group, T.irreducibles
    part = conjugacy_classes(G)
    n = T.array.conductor
    inv = [G.table[g].tolist().index(0) for g in range(G.order)]

    def sigma(v, u):
        return sum(
            (c * cyclo_root(v.conductor, u * e) for e, c in enumerate(v.ints)),
            Cyclo.zero(),
        ) / v.den

    def closed(u):
        left = [chi.values for chi in rows]
        for chi in rows:
            image = [sigma(v, u) for v in chi.values]
            hit = [j for j, vals in enumerate(left) if all(map(Cyclo.__eq__, image, vals))]
            if not hit:
                return False
            left.pop(hit[0])
        return True

    def identity(chi, a, b):
        total = Cyclo.zero()
        for z in range(G.order):
            conj_b = G.table[G.table[inv[z], b], z]
            total = total + chi.at(int(G.table[a, conj_b]))
        return G.order * chi.at(a) * chi.at(b) == chi.values[0] * total

    k = len(rows)
    return {
        "class-count": True,
        "degrees-match-identity-column": all(
            chi.values[0] == d for chi, d in zip(rows, T.degrees)
        ),
        "degree-square-sum": sum(d * d for d in T.degrees) == G.order,
        "galois-closure": all(closed(u) for u in range(1, n) if gcd(u, n) == 1),
        "row-orthogonality": all(
            inner_product(rows[i], rows[j]) == (i == j)
            for i in range(k) for j in range(i, k)
        ),
        "product-identity": all(
            identity(chi, a, b) for chi in rows for a in part.reps for b in part.reps
        ),
    }


@pytest.mark.parametrize("spec", ["alternating:5", "dihedral:5"])
def test_single_entry_perturbations_match_the_cyclo_oracle(spec):
    T = build_table(make_group(spec))
    assert _oracle_verdicts(T) == {c.name: c.passed for c in T.report.checks}
    for i, chi in enumerate(T.irreducibles):
        for c in range(len(chi.values)):
            vals = list(chi.values)
            vals[c] = vals[c] + 1
            rows = list(T.irreducibles)
            rows[i] = ClassFunction(T.group, tuple(vals))
            bad = dataclasses.replace(T, array=CycloArray.of([r.values for r in rows]))
            got = {r.name: r.passed for r in validate_table(bad).checks}
            assert got == _oracle_verdicts(bad), (i, c)
            assert not bad.validated


def test_entry_shifted_by_the_first_prime_is_rejected():
    # the shift vanishes at every ideal over the first prime, so only the
    # bound, which calls for further primes, can catch it
    G = make_group("alternating:5")
    T = build_table(G)
    p = chars._validation_primes(T)[1][0]
    doc = table_to_document(T)
    doc["irreducibles"][4][1] = str(1 + p)
    bad = table_from_document(G, doc, "file:mem")
    assert chars._validation_primes(bad)[1][0] == p
    report = validate_table(bad)
    assert [c.name for c in report.failures()] == ["row-orthogonality", "product-identity"]


def test_duplicated_row_fails_closure_and_orthogonality():
    T = build_table(make_group("cyclic:5"))
    rows = list(T.irreducibles)
    rows[2] = rows[1]
    report = validate_table(dataclasses.replace(T, array=CycloArray.of([r.values for r in rows])))
    names = [c.name for c in report.failures()]
    assert "galois-closure" in names and "row-orthogonality" in names


def test_large_conductor_table_validates_and_rejects_one_corrupt_entry():
    G = make_group("dihedral:100")
    T = build_table(G)
    assert T.validated and (T.array.conductor, len(T)) == (100, 53)
    rows = list(T.irreducibles)
    psi = rows[-1].values
    rows[-1] = ClassFunction(G, (psi[0], psi[1] + 1) + psi[2:])
    report = validate_table(dataclasses.replace(T, array=CycloArray.of([r.values for r in rows])))
    assert not report.passed
    assert "row-orthogonality" in [c.name for c in report.failures()]


def _galois_moved_per_entry(X: CycloArray) -> list[int]:
    # the reference: map every entry, then compare the sorted rows
    def rows(A):
        return sorted(map(tuple, A.ints.reshape(len(A.ints), -1).tolist()))

    e = np.arange(X.ints.shape[-1])
    return [
        u for u in unit_generators(X.conductor)
        if rows(X._mapped(u * e, X.conductor)) != rows(X)
    ]


_GALOIS_SPECS = verify.sweep_specs() + (
    "product:dihedral:6,cyclic:4", "product:quaternion,cyclic:3", "cyclic:240", "dihedral:300"
)


def test_galois_moved_on_distinct_values_matches_every_entry_mapped():
    for spec in _GALOIS_SPECS:
        X = build_table(make_group(spec)).array
        assert X.galois_moved() == _galois_moved_per_entry(X) == [], spec
    # entries past int64: the same table scaled, then one residue moved
    X = build_table(make_group("cyclic:12")).array
    big = CycloArray(X.ints.astype(object) * 2**70, X.den, X.conductor)
    assert big.galois_moved() == _galois_moved_per_entry(big) == []
    big.ints[3, 5, 1] += 1
    assert big.galois_moved() == _galois_moved_per_entry(big) != []


def test_galois_moved_matches_every_entry_mapped_on_perturbed_tables():
    rng = np.random.default_rng(36)
    tables = [
        build_table(make_group(spec)).array
        for spec in ("cyclic:7", "cyclic:12", "dihedral:8", "dihedral:9", "alternating:5",
                     "product:dihedral:6,cyclic:4", "product:quaternion,cyclic:3")
    ]
    verdicts = set()
    for trial in range(600):
        X = tables[trial % len(tables)]
        ints = X.ints.copy()
        k = len(ints)
        if trial % 2:  # one residue moved by 1 either way
            ints[tuple(rng.integers(0, ints.shape))] += rng.choice((-1, 1))
        else:  # two entries swapped
            (i, c), (j, d) = rng.integers(0, k, (2, 2))
            ints[[i, j], [c, d]] = ints[[j, i], [d, c]]
        bad = CycloArray(ints, X.den, X.conductor)
        moved = bad.galois_moved()
        assert moved == _galois_moved_per_entry(bad), trial
        verdicts.add(bool(moved))
    assert verdicts == {True, False}
