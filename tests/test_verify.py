"""The properties suite's row protocol: one exhaustive oracle per sweep
group, and a raising path that fails only its own row."""

from collections import Counter

from commcount import counts, verify
from commcount.cli import main


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
    rows = verify.run_suite("properties")
    assert all(r.passed for r in rows)
    oracle = {key: k for key, k in calls.items() if key[1:] != ("f", 4)}
    want = {(spec, kind, n): 1 for spec in verify.sweep_specs()
            for kind, n in (("f", 2), ("f", 3), ("t", 3))}
    assert oracle == want
