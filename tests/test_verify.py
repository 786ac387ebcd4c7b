"""The verify row protocol: one exhaustive oracle per sweep group, and a
failing path that fails only its own row, naming the case and the reason."""

from collections import Counter
from types import SimpleNamespace

import pytest

from commcount import counts, verify
from commcount.cli import main
from commcount.cyclo import Cyclo
from commcount.groups import make_group
from commcount.triples import TripleSearchError


def test_a_raising_character_path_fails_only_its_row(capsys, monkeypatch):
    formula = verify.f3_from_characters

    def broken(G, T=None):
        if G.spec == "dihedral:5":
            raise ValueError("m_chi2 is irrational")
        return formula(G, T)

    monkeypatch.setattr(verify, "f3_from_characters", broken)
    code = main(["verify", "--suite", "properties"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == [
        "FAIL  properties/f3-oracle-equivalence: coefficient reconstruction = oracle "
        "on 41 groups; FAILED at ['dihedral:5: m_chi2 is irrational']"
    ]
    assert lines[-1] == "18/19 checks passed"


def test_the_oracle_is_searched_once_per_sweep_group(monkeypatch):
    calls = Counter()

    def counted(search, kind):
        def run(G, n, H=None, **kw):
            if H is None:
                calls[G.spec, kind, n] += 1
                return search(G, n, **kw)
            return search(G, n, H, **kw)
        return run

    for module in (verify, counts):
        monkeypatch.setattr(module, "brute_f_n", counted(counts.brute_f_n, "f"))
        monkeypatch.setattr(module, "brute_t_n", counted(counts.brute_t_n, "t"))
    built = Counter()

    def build(spec):
        built[spec] += 1
        return make_group(spec)

    monkeypatch.setattr(verify, "make_group", build)
    rows = verify.run_suite("all")
    assert all(r.passed for r in rows)
    assert built == Counter(verify.sweep_specs())  # each built once
    want = Counter({(spec, kind, n): 1 for spec in verify.sweep_specs()
                    for kind, n in (("f", 2), ("f", 3), ("t", 3), ("f", 4))})
    # the ore-sets row runs the library's ore_set, whose f4 is its own search
    want.update([("symmetric:3", "f", 4), ("symmetric:4", "f", 4)])
    assert calls == want


def _fault(real, hit, result):
    """real, except where hit(*args) holds: there it raises `result` if that
    is an exception, and returns it otherwise."""
    def patched(*args, **kw):
        if not hit(*args):
            return real(*args, **kw)
        if isinstance(result, Exception):
            raise result
        return result
    return patched


_BROKEN_BOUNDS = SimpleNamespace(
    all_hold=False, failures=lambda: [SimpleNamespace(name="p3-upper")]
)


@pytest.mark.parametrize(
    "suite, path, hit, result, line",
    [
        pytest.param(
            "paper", "f3_coeffs", lambda G, *a: G.spec == "dihedral:5", ValueError("injected"),
            "paper/dihedral-f3-coefficients-three-way: closed form = character formula "
            "= decomposed oracle for n = 3..12; FAILED at ['5: injected']",
            id="dihedral-f3-coefficients-three-way",
        ),
        pytest.param(
            "paper", "f3_from_characters", lambda G, *a: G.spec == "dihedral:5", 0,
            "paper/dihedral-f3-values: closed per-class values = oracle = "
            "reconstruction for n = 3..12; FAILED at [5]",
            id="dihedral-f3-values",
        ),
        pytest.param(
            "paper", "t3_class_counts_closed", lambda G: G.spec == "dihedral:7",
            ValueError("injected"),
            "paper/dihedral-t3-three-way: closed star counts = coefficient formula = "
            "oracle for n = 3..12; FAILED at ['7: injected']",
            id="dihedral-t3-three-way",
        ),
        pytest.param(
            "properties", "cyclo_root", lambda n, k: n == 7, Cyclo.zero(),
            "properties/root-of-unity-sums: full and half-orbit power sums equal -1 "
            "for n = 2..30; FAILED at [7]",
            id="root-of-unity-sums",
        ),
        pytest.param(
            "properties", "recursive_fn1", lambda G, n: G.spec == "dihedral:5" and n == 4,
            ValueError("injected"),
            "properties/fn1-recursion-equivalence: centralizer recursion = oracle at "
            "identity, n = 3 and 4, on 41 groups; FAILED at ['dihedral:5 (n=4): injected']",
            id="fn1-recursion-equivalence",
        ),
        pytest.param(
            "properties", "brute_f_n",
            lambda G, n, H=None: H is not None and G.spec == "quaternion" and n == 3,
            ValueError("injected"),
            "properties/subgroup-monotonicity: counts inside a centralizer never exceed "
            "the ambient counts (12 subgroup/n pairs); FAILED at ['quaternion (n=3): injected']",
            id="subgroup-monotonicity",
        ),
        pytest.param(
            "properties", "bounds_report", lambda G, *a: G.spec == "cyclic:7", _BROKEN_BOUNDS,
            "properties/bounds-chain: every recorded inequality holds on 41 groups; "
            "FAILED at [\"cyclic:7: ['p3-upper']\"]",
            id="bounds-chain",
        ),
        pytest.param(
            "properties", "q3_power_by_characters",
            lambda G, k, T: G.spec == "symmetric:4" and k == 2, ValueError("injected"),
            "properties/q3-power-two-paths: class structure constants on the oracle's f3 "
            "= character formula for Q3^*k, k = 1..4, on 41 groups; "
            "FAILED at ['symmetric:4 (k=2): injected']",
            id="q3-power-two-paths",
        ),
        pytest.param(
            "properties", "ore_set", lambda G, n: G.spec == "symmetric:4" and n == 4,
            frozenset(),
            "properties/ore-sets: f3 support = alternating subgroup (n = 3, 4, 5); "
            "f4 support = {1} (n = 3, 4); f2 support = whole group on alternating:5; "
            "FAILED at ['support of f4 on symmetric:4']",
            id="ore-sets",
        ),
        pytest.param(
            "properties", "ore_triple_symmetric", lambda n, g: g == (1, 2, 0, 3, 4),
            TripleSearchError("no triple found"),
            "properties/triple-solver-class-reps: solved and re-verified 23 even class "
            "representatives of symmetric groups, n = 3..7; "
            "FAILED at ['(3, 1, 1) on 5 points: no triple found']",
            id="triple-solver-class-reps",
        ),
    ],
)
def test_a_failing_case_names_itself_in_its_row(capsys, monkeypatch, suite, path, hit,
                                                result, line):
    monkeypatch.setattr(verify, path, _fault(getattr(verify, path), hit, result))
    code = main(["verify", "--suite", suite])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [x for x in lines if x.startswith("FAIL")] == ["FAIL  " + line]


def test_every_sweep_group_projects_brute_f4_under_the_default_budget():
    # The fn1 row runs brute f4 on the whole sweep with the default budget;
    # the largest projection, 2318400 on symmetric:5, is far below it.
    for spec in verify.sweep_specs():
        with pytest.raises(counts.BudgetExceededError) as refused:
            counts.brute_f_n(make_group(spec), 4, budget=0)
        assert refused.value.projected <= counts.DEFAULT_BUDGET
