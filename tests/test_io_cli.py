import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commcount
from commcount.chars import build_table
from commcount.cli import _build_parser, main
from commcount.counts import ClassCounts, recursive_fn1
from commcount.fileio import (
    ClassRow,
    CoeffRow,
    CountReport,
    DocumentError,
    load_chartable,
    load_group,
    load_report,
    report_from_document,
    save_chartable,
    save_group,
    save_report,
)
from commcount.groups import GroupLawError, GroupSpecError, make_group
from commcount.perms import parse_cycles
from commcount.verify import CheckResult


# -- documents -------------------------------------------------------------


def test_group_round_trip(tmp_path):
    G = make_group("dihedral:5")
    path = tmp_path / "d5.json"
    save_group(G, str(path))
    H = load_group(str(path))
    assert [list(r) for r in H.mul] == [list(r) for r in G.mul]
    assert H.names == G.names
    save_group(H, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_loaded_group_equals_builtin(tmp_path):
    G = make_group("cyclic:4")
    path = tmp_path / "c4.json"
    save_group(G, str(path))
    H = make_group(f"file:{path}")
    assert [list(r) for r in H.mul] == [list(r) for r in G.mul]
    assert H.spec == f"file:{path}"


@pytest.mark.parametrize(
    "text, error, fragment",
    [
        ('{"order": 3, "mul": [[0,1,2],[1,2,0]]}', DocumentError, "3 rows"),
        ('{"order": 2, "mul": [[0,1],[1,0]], "nams": []}', DocumentError, "nams"),
        ('{"order": "x", "mul": []}', DocumentError, "positive integer"),
        ('{"order": true, "mul": [[0]]}', DocumentError, "field 'order'"),
        ('{"order": 0, "mul": []}', DocumentError, "positive integer"),
        ('{"mul": [[0]]}', DocumentError, "order"),
        ("not json", DocumentError, "line 1"),
        ('{"order": 2, "mul": [[0,1],[1,1]]}', GroupLawError, "inverse"),
        ('{"order": 2, "mul": [[0,"1"],[1,0]]}', GroupLawError, "not all integers"),
        ('{"order": 2, "mul": [[0,1.0],[1,0]]}', GroupLawError, "not all integers"),
        ('{"order": 2, "mul": [[0,1],[1]]}', GroupLawError, "not square"),
    ],
)
def test_group_document_errors(tmp_path, text, error, fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(error, match=fragment):
        load_group(str(path))


@pytest.mark.parametrize("entry", [65537, 65536, -1])
def test_table_entries_outside_the_index_range_exit_2(tmp_path, capsys, entry):
    # every row holds a 0, so only the range check can refuse the table; it
    # reads the entries as written, where int16 would wrap 65537 to 1 and
    # 65536 to 0
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"order": 2, "mul": [[0, entry], [entry, 0]]}))
    code, out, err = run_cli(capsys, "info", "--group", f"file:{path}")
    assert (code, out, err) == (2, "", "error: table entry out of range\n")


def _c2_table(**edit) -> str:
    # a cyclic:2 table document, with fields replaced (or dropped for None)
    doc = {
        "group_order": 2,
        "class_sizes": [1, 1],
        "class_rep_orders": [1, 2],
        "irreducibles": [["1", "1"], ["1", "-1"]],
        **edit,
    }
    return json.dumps({k: v for k, v in doc.items() if v is not None})


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param("[]", "top level must be an object", id="list"),
        pytest.param(_c2_table(irreducibles=None), "missing field 'irreducibles'", id="no-rows"),
        pytest.param(_c2_table(notes="x"), "unknown field 'notes'", id="unknown-field"),
        pytest.param(_c2_table(class_sizes=2), "'class_sizes': expected a list", id="sizes"),
        pytest.param(_c2_table(class_sizes=[True, True]), "'class_sizes': expected a list",
                     id="bool-sizes"),
        pytest.param(_c2_table(class_rep_orders=[True, 2]),
                     "'class_rep_orders': expected a list", id="bool-rep-orders"),
        pytest.param(_c2_table(group_order=2.0), "'group_order'", id="float-order"),
        pytest.param(
            _c2_table(irreducibles=[[1, 1], [1, -1]]),
            "row 0 is not a list of 2 strings",
            id="number-entries",
        ),
        pytest.param(_c2_table(labels=5), "'labels': expected one string per row", id="labels"),
        # too few labels once truncated coeffs to one coefficient, exit 0
        pytest.param(
            _c2_table(labels=["a"]), "'labels': expected one string per row", id="too-few-labels"
        ),
    ],
)
def test_table_document_errors(tmp_path, capsys, text, fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(DocumentError, match=fragment):
        load_chartable(str(path), make_group("cyclic:2"))
    code, out, err = run_cli(
        capsys, "coeffs", "--group", "cyclic:2", "--fn", "f3", "--table", f"file:{path}"
    )
    assert (code, out) == (2, "")
    assert fragment in err


@pytest.mark.parametrize(
    "spec, field, value",
    [("cyclic:1", "group_order", True), ("symmetric:3", "class_sizes", [True, 3, 2])],
)
def test_table_documents_refuse_json_booleans(tmp_path, spec, field, value):
    # true == 1, so each of these matched its group before the fields were typed
    G = make_group(spec)
    path = tmp_path / "table.json"
    save_chartable(build_table(G), str(path))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, field: value}))
    with pytest.raises(DocumentError, match=field):
        load_chartable(str(path), G)


def test_chartable_round_trip(tmp_path):
    G = make_group("dihedral:5")
    T = build_table(G)
    path = tmp_path / "d5_chars.json"
    save_chartable(T, str(path))
    T2 = load_chartable(str(path), make_group("dihedral:5"))
    assert [c.values for c in T2.irreducibles] == [c.values for c in T.irreducibles]
    assert T2.degrees == T.degrees
    assert T2.labels == T.labels
    save_chartable(T2, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_chartable_misalignment_is_hard_error(tmp_path):
    T = build_table(make_group("dihedral:5"))
    path = tmp_path / "d5_chars.json"
    save_chartable(T, str(path))
    # same order, different class structure
    with pytest.raises(ValueError, match="class_sizes"):
        load_chartable(str(path), make_group("cyclic:10"))


def test_report_round_trip(tmp_path):
    report = CountReport(
        "alternating:5",
        "f",
        3,
        "brute",
        (ClassRow("()", 1, 1, "1320"), ClassRow("(1 2)(3 4)", 2, 15, "24")),
        (CoeffRow("chi1", 1, "40"), CoeffRow("chi4", 4, "84")),
    )
    path = tmp_path / "report.json"
    save_report(report, str(path))
    assert load_report(str(path)) == report
    save_report(load_report(str(path)), str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_report_validation():
    with pytest.raises(ValueError, match="kind"):
        CountReport("g", "x", 2, "brute", ())
    with pytest.raises(ValueError, match="method"):
        CountReport("g", "f", 2, "guesswork", ())
    with pytest.raises(ValueError):
        ClassRow("1", 1, 1, "not a literal")
    with pytest.raises(DocumentError, match="missing field"):
        report_from_document({"group": "g", "kind": "f", "n": 2})


def _report_doc(n=3, classes=None, coefficients=None, **row) -> dict:
    # an alternating:5 f3 report document, with fields replaced
    class_row = {"rep": "()", "order": 1, "size": 1, "value": "1320", **row}
    return {
        "group": "alternating:5", "kind": "f", "n": n, "method": "brute",
        "classes": [class_row] if classes is None else classes,
        "coefficients": [] if coefficients is None else coefficients,
    }


@pytest.mark.parametrize(
    "doc, fragment",
    [
        pytest.param(_report_doc(classes=5), "report: field 'classes'", id="classes"),
        pytest.param(_report_doc(n="3"), "report: field 'n'", id="n"),
        pytest.param(_report_doc(order="1"), r"classes\[0\]: field 'order'", id="order"),
        pytest.param(_report_doc(value=3), r"classes\[0\]: field 'value'", id="value"),
        pytest.param(
            _report_doc(coefficients=7), "report: field 'coefficients'", id="coefficients"
        ),
    ],
)
def test_report_document_type_errors(tmp_path, doc, fragment):
    report_from_document(_report_doc())  # the unedited document loads
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match=fragment):
        load_report(str(path))


# -- CLI -------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_brute_f4_on_symmetric_5_agrees_with_the_recursion(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "symmetric:5", "--fn", "fn:4",
        "--method", "brute", "--format", "table",
    )
    assert code == 0
    values = [int(line.split()[-1]) for line in out.splitlines()[2:]]
    assert values == [recursive_fn1(make_group("symmetric:5"), 4)] + [0] * 6


def test_count_table_output(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "alternating:5", "--fn", "f3",
        "--method", "brute", "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f_3 per conjugacy class on alternating:5 (brute)"
    values = [line.split()[-1] for line in lines[2:]]
    assert values == ["1320", "24", "12", "20", "20"]


def test_coeffs_dihedral8(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--group", "dihedral:8", "--fn", "f3")
    assert code == 0
    assert out.splitlines()[-1] == "coefficients: 60,60,60,60,80,88,80"


def test_count_json_parses_as_report(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "quaternion", "--fn", "t3",
        "--method", "character", "--format", "json",
    )
    assert code == 0
    report = report_from_document(json.loads(out))
    assert report.group == "quaternion"
    assert [row.value for row in report.class_rows] == ["224", "0", "0", "0", "96"]


def test_count_csv_golden(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "quaternion", "--fn", "t3",
        "--method", "character", "--format", "csv",
    )
    assert code == 0
    assert out == (
        "rep,order,size,value\n"
        "1,1,1,224\n"
        "i,4,2,0\n"
        "j,4,2,0\n"
        "k,4,2,0\n"
        "-1,2,1,96\n"
    )


def test_output_is_byte_stable(capsys):
    seen = {}
    for fmt in ("table", "csv", "json"):
        for attempt in range(2):
            code, out, _ = run_cli(
                capsys, "count", "--group", "symmetric:4", "--fn", "f3",
                "--method", "character", "--format", fmt,
            )
            assert code == 0
            if attempt:
                assert seen[fmt] == out
            seen[fmt] = out


def test_info_golden(capsys):
    code, out, _ = run_cli(capsys, "info", "--group", "quaternion")
    assert code == 0
    assert out == (
        "group: quaternion\n"
        "order: 8\n"
        "classes: 5 (sizes 1, 2, 2, 2, 1)\n"
        "center: order 2 (1, -1)\n"
        "derived subgroup: order 2 (1, -1)\n"
    )


def test_subgroup_count_lists_all_members(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "symmetric:4", "--fn", "f2",
        "--method", "brute", "--subgroup", "(1 2)(3 4),(1 3)(2 4)",
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [r[-1] for r in rows] == ["16", "0", "0", "0"]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_subgroup_elements_split_at_commas_outside_parentheses(capsys, fmt):
    def count(subgroup):
        code, out, _ = run_cli(
            capsys, "count", "--group", "symmetric:4", "--fn", "f3",
            "--method", "brute", "--format", fmt, "--subgroup", subgroup,
        )
        assert code == 0
        # the table's title repeats the --subgroup text
        return out.split("\n", 1)[1] if fmt == "table" else out

    assert count("(1,2,3),(1,2)") == count("(1 2 3),(1 2)")


def test_subgroup_takes_a_product_element_name(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "product:cyclic:2,cyclic:3", "--fn", "f3",
        "--method", "brute", "--format", "csv", "--subgroup", "(a,1)",
    )
    assert (code, out) == (0, 'element,value\n"(1,1)",8\n"(a,1)",0\n')


@pytest.mark.parametrize("point", ["+1", "1_0", "\u0662", "\uff12"])
def test_cycle_points_take_ascii_digits_only(capsys, point):
    cycle = f"({point} 3)"
    with pytest.raises(ValueError, match="ASCII integers"):
        parse_cycles(cycle)
    with pytest.raises(ValueError, match="ASCII integers"):
        make_group(f"perm:{cycle},(1 2)")
    for argv in (
        ["info", "--group", f"perm:{cycle},(1 2)"],
        ["count", "--group", "symmetric:3", "--fn", "f2", "--method", "brute",
         "--subgroup", cycle],
        ["triple", "--n", "3", "--g", f"({point} 2 3)"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and "ASCII integers" in err


def _run_with_timeout(script: str):
    # a child process, so that a reader that never returns fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(commcount.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=10)


# the error each literal is refused with: a conductor whose residue table
# would exceed the cap is refused before the table is built
UNREADABLE_LITERALS = {
    "2^3": "bad cyclotomic literal",
    "E(3)*2": "bad cyclotomic literal",
    "/": "bad cyclotomic literal",
    "*": "bad cyclotomic literal",
    "E(10007)": "conductor 10007: its table of n x phi(n) residues would exceed",
}


@pytest.mark.parametrize("literal", list(UNREADABLE_LITERALS))
def test_files_with_unreadable_literals_fail_fast(tmp_path, literal):
    table = tmp_path / "table.json"
    table.write_text(_c2_table(irreducibles=[["1", "1"], ["1", literal]]))
    got = _run_with_timeout(
        "from commcount.cli import main; raise SystemExit(main(['coeffs', "
        f"'--group', 'cyclic:2', '--fn', 'f3', '--table', {f'file:{table}'!r}]))"
    )
    assert (got.returncode, got.stdout) == (2, "")
    assert UNREADABLE_LITERALS[literal] in got.stderr
    report = tmp_path / "report.json"
    report.write_text(json.dumps(_report_doc(value=literal)))
    got = _run_with_timeout(
        "from commcount.fileio import load_report\n"
        f"try:\n    load_report({str(report)!r})\n"
        "except ValueError as e:\n    print(type(e).__name__, e)\n    raise SystemExit(2)"
    )
    assert got.returncode == 2
    assert got.stdout.startswith(f"ValueError {UNREADABLE_LITERALS[literal]}")


def test_recursive_method_identity_only(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--group", "symmetric:4", "--fn", "fn:4",
        "--method", "recursive", "--format", "csv",
    )
    assert code == 0
    assert out == "rep,order,size,value\n(),1,1,2016\n"


def test_dist_golden(capsys):
    code, out, _ = run_cli(capsys, "dist", "--group", "symmetric:3", "--l1")
    assert code == 0
    assert out == (
        "Q3^*1 on symmetric:3\n"
        "rep      size  mass\n"
        "()       1     4/5\n"
        "(2 3)    3     0\n"
        "(1 2 3)  2     1/10\n"
        "l1-to-uniform: 19/15\n"
    )


def test_ore_golden(capsys):
    code, out, _ = run_cli(capsys, "ore", "--group", "symmetric:3", "--k", "3")
    assert code == 0
    assert out == (
        "support of f_3 on symmetric:3: 3 of 6 elements\n"
        "()\n"
        "(1 2 3)\n"
        "(1 3 2)\n"
    )


def test_bounds_exit_zero_when_all_hold(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--group", "symmetric:3")
    assert code == 0
    assert "P2(1): 1/2" in out
    assert "gustafson: 1/2 <= 5/8  [holds]" in out
    assert "FAILS" not in out


def test_the_parser_is_built_once_and_reused(capsys):
    assert _build_parser() is _build_parser()
    assert run_cli(capsys, "bounds", "--group")[0] == 2  # a refused parse
    code, out, _ = run_cli(capsys, "ore", "--group", "symmetric:3", "--k", "3")
    assert code == 0 and out.startswith("support of f_3 on symmetric:3: 3 of 6")


def test_triple_cli(capsys):
    code, out, _ = run_cli(capsys, "triple", "--n", "6", "--g", "(1 2)(3 4 5 6)")
    assert code == 0
    assert out.splitlines()[-1] == "verified: [x1,x2] = [x1,x3] = [x2,x3] = g"


def test_bench_reports_timings_when_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--group", "dihedral:5", "--fn", "f3",
        "--methods", "brute,closed", "--repeat", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bench f_3 on dihedral:5: 2 methods agree on all 4 classes"
    assert lines[1].startswith("brute: ") and lines[1].endswith(" ms")
    assert "speed ratio" not in out  # no naive baseline requested


def test_bench_refuses_timings_on_disagreement(capsys, monkeypatch):
    G_values = {}

    def wrong_naive(G, n, budget=None):
        right = tuple(v for v in G_values["count"].values)
        return ClassCounts(G, (right[0] + 6,) + right[1:], "f", n)

    from commcount.counts import brute_f_n

    G_values["count"] = brute_f_n(make_group("dihedral:5"), 3)
    monkeypatch.setattr("commcount.cli.naive_f_n", wrong_naive)
    code, out, _ = run_cli(
        capsys, "bench", "--group", "dihedral:5", "--fn", "f3",
        "--methods", "brute,brute-naive", "--repeat", "1",
    )
    assert code == 1
    assert "no timings reported" in out
    assert "ms" not in out


def test_bench_refuses_a_repeated_method(capsys):
    for methods in ("brute,brute", "brute,closed,brute"):
        code, out, err = run_cli(
            capsys, "bench", "--group", "dihedral:5", "--methods", methods
        )
        assert (code, out) == (2, "")
        assert "bench method 'brute' is given twice" in err


@pytest.mark.parametrize("param", ["1_2", "1_0", "\u0663", "+5", " 5", "\uff15", "-3"])
def test_numeric_parameters_take_ascii_digits_only(capsys, param):
    with pytest.raises(GroupSpecError, match="bad parameter"):
        make_group(f"cyclic:{param}")
    with pytest.raises(GroupSpecError, match="bad parameter"):
        make_group(f"product:quaternion,dihedral:{param}")
    code, _, err = run_cli(capsys, "count", "--group", f"dihedral:{param}", "--fn", "f2")
    assert code == 2 and "bad parameter" in err
    code, _, err = run_cli(capsys, "count", "--group", "cyclic:4", "--fn", f"fn:{param}")
    assert code == 2 and "bad count function" in err
    if param == param.strip():  # the CLI strips each element of --subgroup
        code, _, err = run_cli(
            capsys, "count", "--group", "dihedral:12", "--fn", "f2",
            "--subgroup", f"a,{param}",
        )
        assert code == 2 and "unknown element" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cyclic:0", "cyclic parameter must be at least 1, got 0"),
        ("dihedral:2", "dihedral parameter must be at least 3, got 2"),
        ("product:quaternion,dihedral:1", "dihedral parameter must be at least 3, got 1"),
        ("symmetric:9", "symmetric parameter must be in 1..8, got 9"),
        ("alternating:0", "alternating parameter must be in 1..8, got 0"),
    ],
)
def test_parameter_ranges_are_worded_by_their_bounds(capsys, spec, message):
    with pytest.raises(GroupSpecError) as info:
        make_group(spec)
    assert str(info.value) == message
    code, out, err = run_cli(capsys, "count", "--group", spec, "--fn", "f2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_the_package_exports_each_name_once():
    names = commcount.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(commcount, n)] == []


@pytest.mark.parametrize("name", ["cyclic-closed-form", "bundled:q8", "nonsense"])
def test_coeffs_table_takes_auto_or_a_file(capsys, name):
    code, out, err = run_cli(
        capsys, "coeffs", "--group", "quaternion", "--fn", "f3", "--table", name
    )
    assert (code, out) == (2, "")
    assert "unknown character-table provider" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        "commcount.cli.run_suite",
        lambda suite: [CheckResult("paper", "doomed", False, "boom")],
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper")
    assert code == 1
    assert "FAIL  paper/doomed: boom" in out
    assert "0/1 checks passed" in out


@pytest.mark.parametrize(
    "argv, want",
    [
        (("count", "--group", "nonsense:9", "--fn", "f2"), 2),
        (("count", "--group", "symmetric:3", "--fn", "f9"), 2),
        (("count", "--group", "symmetric:3", "--fn", "f3", "--method", "closed"), 2),
        (("count", "--group", "symmetric:6", "--fn", "fn:5", "--method", "brute"), 3),
        (("count", "--group", "symmetric:3"), 2),
        (("frobnicate",), 2),
        (("triple", "--n", "4", "--g", "(1 2)"), 2),
        (("verify", "--suite", "nonsense"), 2),
        (("ore", "--group", "symmetric:3", "--k", "1"), 2),
        (("--help",), 0),
        (("info", "--group", "cyclic:20161"), 2),
    ],
)
def test_exit_codes(capsys, argv, want):
    code = main(list(argv))
    capsys.readouterr()
    assert code == want


GOLDEN_CLI = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8")
)["cli"]


@pytest.mark.parametrize(
    "argv, stdout",
    [(c["argv"], c["stdout"]) for c in GOLDEN_CLI],
    ids=[" ".join(c["argv"]) for c in GOLDEN_CLI],
)
def test_benchmark_golden_cli_output(capsys, argv, stdout):
    # the commands whose stdout the benchmark checks, byte for byte
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, stdout)


def test_verify_all_stdout_is_pinned(capsys):
    # every row's detail text, byte for byte, as first recorded in verify_all.stdout
    want = (Path(__file__).parent / "verify_all.stdout").read_text(encoding="utf-8")
    assert run_cli(capsys, "verify", "--suite", "all")[:2] == (0, want)


def test_character_method_names_the_size_of_a_refused_table(capsys):
    code, out, err = run_cli(
        capsys, "count", "--group", "cyclic:420", "--fn", "f3", "--method", "character"
    )
    assert (code, out) == (2, "")
    assert "420 x 420 x phi(420) = 16934400 residues, above the cap" in err


def test_python_m_runs_the_cli(capsys):
    code, want, _ = run_cli(capsys, "verify", "--suite", "paper")
    env = dict(os.environ, PYTHONPATH=str(Path(commcount.__file__).parents[1]))
    got = subprocess.run(
        [sys.executable, "-m", "commcount", "verify", "--suite", "paper"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert code == got.returncode == 0
    assert got.stdout == want


def test_readme_python_examples_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for block in blocks:
        got = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env,
            timeout=600,
        )
        assert got.returncode == 0, got.stderr


def _cli_with_peak_rss(argv):
    """Run the CLI on argv in a child that prints its own high-water RSS
    (VmHWM, in kilobytes) after the call; return (stdout of the call, peak).
    The child's ru_maxrss would also count the pages of this process that it
    shared before exec."""
    script = (
        f"from commcount.cli import main; code = main({argv!r}); "
        "print(next(l.split()[1] for l in open('/proc/self/status') "
        "if l.startswith('VmHWM:'))); raise SystemExit(code)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(commcount.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    out, _, peak = proc.stdout.rstrip("\n").rpartition("\n")
    return out + "\n", int(peak)


def test_info_on_a_large_abelian_group_stays_small():
    # The center is read from the classes of one element; per-element
    # centralizer tuples took this call to a 1.39 GB peak.
    n = 5040
    out, peak = _cli_with_peak_rss(["info", "--group", f"cyclic:{n}"])
    names = ", ".join(["1", "a"] + [f"a^{i}" for i in range(2, n)])
    assert out == (
        f"group: cyclic:{n}\norder: {n}\n"
        f"classes: {n} (sizes {', '.join(['1'] * n)})\n"
        f"center: order {n} ({names})\n"
        "derived subgroup: order 1 (1)\n"
    )
    assert peak < 700 * 1024  # kilobytes


def test_recursive_count_on_a_large_abelian_group_stays_small():
    # The recursion reads rows of the commuting matrix; one frozenset of
    # centralizer members per element took this call to a 408 MB peak.
    out, peak = _cli_with_peak_rss(["count", "--group", "cyclic:2000", "--fn", "f3",
                                    "--method", "recursive", "--format", "csv"])
    assert out.splitlines()[-1].endswith(f",{2000**3}")  # abelian: f_3(1) = |G|^3
    assert peak < 150 * 1024  # kilobytes


@pytest.mark.parametrize(
    "typed, canonical",
    [
        ("product:cyclic:05,cyclic:2", "product:cyclic:5,cyclic:2"),
        ("product:dihedral:003,product:cyclic:02,symmetric:03",
         "product:dihedral:3,product:cyclic:2,symmetric:3"),
    ],
)
def test_a_product_spec_is_its_factors_specs(capsys, typed, canonical):
    G = make_group(typed)
    assert G.spec == make_group(canonical).spec == canonical
    assert G.spec == f"product:{G.product_parts[0].spec},{G.product_parts[1].spec}"
    outs = []
    for spec in (typed, canonical):
        code, out, _ = run_cli(
            capsys, "count", "--group", spec, "--fn", "f3", "--method", "character"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].startswith(f"f_3 per conjugacy class on {canonical} (character)\n")
