"""Command-line interface.

Subcommands over the library: structural info, exact counts by several
methods in table/CSV/JSON form, coefficient vectors, convolution powers of
the f3 distribution, bound reports, Ore sets, the constructive triple for
symmetric groups, the verification suites, and a correctness-gated
benchmark.  Every output except bench timings is byte-stable for fixed
inputs and flags: canonical class order everywhere, exact values only.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import cache

from .chars import TableProviderError, TableValidationError, build_table, load_chartable
from .counts import (
    BudgetExceededError,
    brute_f_n,
    brute_t_n,
    count_f_n,
    f2_from_characters,
    f3_coeffs,
    f3_from_characters,
    naive_f_n,
    ore_set,
    recursive_fn1,
    t_coeffs,
    t_from_characters,
)
from .dihedral import f3_class_counts_closed, t3_class_counts_closed
from .distributions import bounds_report, convolve_power, l1_to_uniform, q3
from .fileio import ClassRow, CountReport, DocumentError, report_to_document
from .groups import (
    GroupLawError,
    GroupSpecError,
    conjugacy_classes,
    center_and_derived,
    make_group,
    subgroup_generated,
)
from .perms import format_cycles, parse_cycles, split_top_level
from .triples import TripleSearchError, ore_triple_symmetric
from .verify import SUITES, run_suite


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (TripleSearchError, TableValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (
        GroupSpecError,
        GroupLawError,
        TableProviderError,
        DocumentError,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _digits(text: str) -> int:
    """An integer option: ASCII digits only, as every number the CLI reads."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


@cache  # parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commcount",
        description="exact counts of commutator-equation solutions in "
        "finite groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="order, classes, center, derived subgroup")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("count", help="per-class values of f_n or t_n")
    p.add_argument("--group", required=True)
    p.add_argument("--fn", required=True, help="f2, f3, t3, fn:<n> or tn:<n>")
    p.add_argument(
        "--method",
        default="brute",
        choices=["brute", "character", "closed", "recursive"],
    )
    p.add_argument(
        "--subgroup", help="comma-separated generators: names, else cycles, else indices"
    )
    p.add_argument("--format", default="table", choices=["json", "csv", "table"])
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("coeffs", help="coefficients in the irreducible basis")
    p.add_argument("--group", required=True)
    p.add_argument("--fn", required=True, help="f3 or t3")
    p.add_argument(
        "--table", default="auto", help="auto (the group's own table) or file:<path>"
    )
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("dist", help="convolution powers of the f3 distribution")
    p.add_argument("--group", required=True)
    p.add_argument("--convolve", type=_digits, default=1, metavar="K")
    p.add_argument("--l1", action="store_true", help="L1 distance to uniform")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("bounds", help="exact probability-bound report")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("ore", help="support of f_k")
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=_digits, required=True)
    p.set_defaults(func=cmd_ore)

    p = sub.add_parser("triple", help="solve [x,y]=[x,z]=[y,z]=g in S_n")
    p.add_argument("--n", type=_digits, required=True)
    p.add_argument("--g", required=True, help='target in cycle notation, e.g. "(1 2 3)"')
    p.set_defaults(func=cmd_triple)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all", choices=list(SUITES))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="correctness-gated timing comparison")
    p.add_argument("--group", required=True)
    p.add_argument("--fn", default="f3")
    p.add_argument(
        "--methods",
        default="brute-naive,brute,character",
        help="comma-separated: brute-naive, brute, character, closed",
    )
    p.add_argument("--repeat", type=_digits, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


# -- subcommands ---------------------------------------------------------------


def cmd_info(args) -> int:
    G = make_group(args.group)
    part = conjugacy_classes(G)
    center, derived = center_and_derived(G)
    print(f"group: {G.spec}")
    print(f"order: {G.order}")
    print(f"classes: {len(part)} (sizes {', '.join(str(s) for s in part.sizes)})")
    print(f"center: order {len(center)} ({_names(G, center.members)})")
    print(f"derived subgroup: order {len(derived)} ({_names(G, derived.members)})")
    return 0


def _names(G, members) -> str:
    return ", ".join(G.names[i] for i in members)


def _parse_fn(token: str) -> tuple[str, int]:
    simple = {"f2": ("f", 2), "f3": ("f", 3), "t2": ("t", 2), "t3": ("t", 3)}
    if token in simple:
        return simple[token]
    for prefix, kind in (("fn:", "f"), ("tn:", "t")):
        if token.startswith(prefix):
            tail = token[len(prefix):]
            if not (tail.isascii() and tail.isdigit()):
                raise ValueError(f"bad count function {token!r}")
            n = int(tail)
            if n < 2:
                raise ValueError("n must be at least 2")
            return kind, n
    raise ValueError(
        f"unknown count function {token!r}; use f2, f3, t3, fn:<n> or tn:<n>"
    )


def cmd_count(args) -> int:
    G = make_group(args.group)
    kind, n = _parse_fn(args.fn)
    if args.subgroup is not None:
        return _count_subgroup(G, kind, n, args)
    if args.method == "recursive":
        if kind != "f":
            raise ValueError("the recursive method computes f_n(1) only")
        rows = (ClassRow(G.names[0], 1, 1, str(recursive_fn1(G, n))),)
        report, scope = CountReport(G.spec, kind, n, "recursive", rows), "f_n(1) only"
    else:
        count = _compute_count(G, kind, n, args.method)
        report = _class_report(G, count, _REPORT_METHOD[args.method])
        scope = "per conjugacy class"
    _emit(
        args.format,
        report_to_document(report),
        f"{report.kind}_{report.n} {scope} on {report.group} ({report.method})",
        ("rep", "order", "size", "value"),
        [(r.rep, str(r.rep_order), str(r.size), r.value) for r in report.class_rows],
    )
    return 0


_REPORT_METHOD = {
    "brute": "brute",
    "brute-naive": "brute-naive",
    "character": "character",
    "closed": "closed-form",
}


def _compute_count(G, kind: str, n: int, method: str):
    """The count by the path one method name stands for; argparse and
    `cmd_bench` refuse every other name."""
    if method == "brute":
        return brute_f_n(G, n) if kind == "f" else brute_t_n(G, n)
    if method == "brute-naive":
        if kind != "f":
            raise ValueError("the naive oracle covers f_n only")
        return naive_f_n(G, n)
    if method == "character":
        if kind == "t":
            return t_from_characters(G, n)
        if n not in (2, 3):
            raise ValueError("character formulas cover n = 2 and n = 3 only")
        return f2_from_characters(G) if n == 2 else f3_from_characters(G)
    if (kind, n) == ("f", 3):  # closed
        return f3_class_counts_closed(G)
    if (kind, n) == ("t", 3):
        return t3_class_counts_closed(G)
    raise ValueError("closed forms cover f3 and t3 only")


def _class_report(G, count, method: str) -> CountReport:
    part = conjugacy_classes(G)
    orders = G.element_orders()
    rows = tuple(
        ClassRow(G.names[r], orders[r], part.sizes[c], str(count.values[c]))
        for c, r in enumerate(part.reps)
    )
    return CountReport(G.spec, count.kind, count.n, method, rows)


def _emit(fmt: str, doc, title: str, header, rows) -> None:
    """Print a report as json (doc), csv or a titled table (header, rows)."""
    if fmt == "json":
        print(json.dumps(doc, indent=1))
    elif fmt == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    else:
        print(title)
        _print_table(header, rows)


def _print_table(header, rows) -> None:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _count_subgroup(G, kind: str, n: int, args) -> int:
    if kind != "f" or args.method != "brute":
        raise ValueError("--subgroup works with f-counts and --method brute")
    gens = [_parse_element(G, t.strip()) for t in split_top_level(args.subgroup)]
    H = subgroup_generated(G, gens)
    values = brute_f_n(G, n, H)
    rows = [(G.names[x], str(values.get(x, 0))) for x in H.members]
    doc = {
        "group": G.spec,
        "subgroup": [G.names[g] for g in H.members],
        "kind": kind,
        "n": n,
        "values": {name: int(v) for name, v in rows},
    }
    title = (
        f"f_{n} inside the subgroup of order {len(H)} generated by "
        f"{args.subgroup} on {G.spec}"
    )
    _emit(args.format, doc, title, ("element", "value"), rows)
    return 0


def _parse_element(G, token: str) -> int:
    if token in G.names:
        return G.names.index(token)
    if G.perm_list is not None and token.startswith("("):
        degree = len(G.perm_list[0])
        p = parse_cycles(token, degree)
        try:
            return G.perm_list.index(p)
        except ValueError:
            raise ValueError(f"{token} is not an element of {G.spec}") from None
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"unknown element {token!r}")
    idx = int(token)
    if not 0 <= idx < G.order:
        raise ValueError(f"element index {idx} out of range for {G.spec}")
    return idx


def cmd_coeffs(args) -> int:
    G = make_group(args.group)
    if args.table != "auto" and not args.table.startswith("file:"):
        raise TableProviderError(f"unknown character-table provider {args.table!r}")
    kind, n = _parse_fn(args.fn)  # read before any table is built or loaded
    if n != 3:
        raise ValueError("coefficient vectors cover f3 and t3 only")
    if args.table == "auto":
        T = build_table(G)
    else:
        T = load_chartable(args.table[len("file:"):], G)
    qs = f3_coeffs(G, T) if kind == "f" else t_coeffs(G, 3, T)
    print(f"{kind}_3 coefficients on {G.spec} (table: {T.provenance})")
    _print_table(
        ("character", "degree", "coefficient"),
        [
            (label, str(d), str(q))
            for label, d, q in zip(T.labels, T.degrees, qs)
        ],
    )
    print("coefficients: " + ",".join(str(q) for q in qs))
    return 0


def cmd_dist(args) -> int:
    G = make_group(args.group)
    if args.convolve < 1:
        raise ValueError("--convolve must be at least 1")
    base = q3(count_f_n(G, 3))
    d = convolve_power(base, args.convolve)
    part = conjugacy_classes(G)
    print(f"Q3^*{args.convolve} on {G.spec}")
    _print_table(
        ("rep", "size", "mass"),
        [
            (G.names[r], str(part.sizes[c]), str(d.at(r)))
            for c, r in enumerate(part.reps)
        ],
    )
    if args.l1:
        print(f"l1-to-uniform: {l1_to_uniform(d)}")
    return 0


def cmd_bounds(args) -> int:
    G = make_group(args.group)
    report = bounds_report(G)
    print(f"group: {report.group_spec}")
    print(f"alpha: {report.alpha}")
    print(f"P2(1): {report.p2_1}")
    print(f"P3(1): {report.p3_1}")
    if not report.records:
        print("no bound records (abelian group)")
        return 0
    for rec in report.records:
        status = "holds" if rec.holds else "FAILS"
        print(f"{rec.name}: {rec.lhs} <= {rec.rhs}  [{status}]")
    return 0 if report.all_hold else 1


def cmd_ore(args) -> int:
    G = make_group(args.group)
    if args.k < 2:
        raise ValueError("--k must be at least 2")
    support = sorted(ore_set(G, args.k))
    print(
        f"support of f_{args.k} on {G.spec}: "
        f"{len(support)} of {G.order} elements"
    )
    for i in support:
        print(G.names[i])
    return 0


def cmd_triple(args) -> int:
    g = parse_cycles(args.g, args.n)
    x1, x2, x3 = ore_triple_symmetric(args.n, g)  # re-verified, or it raises
    print(f"target g = {format_cycles(g)} on {args.n} points")
    print(f"x1 = {format_cycles(x1)}")
    print(f"x2 = {format_cycles(x2)}")
    print(f"x3 = {format_cycles(x3)}")
    print("verified: [x1,x2] = [x1,x3] = [x2,x3] = g")
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag}  {r.suite}/{r.name}: {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cmd_bench(args) -> int:
    G = make_group(args.group)
    kind, n = _parse_fn(args.fn)
    if args.repeat < 1:
        raise ValueError("--repeat must be at least 1")
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if len(methods) < 2:
        raise ValueError("bench needs at least two methods to compare")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise ValueError(f"bench method {repeated[0]!r} is given twice")
    unknown = [m for m in methods if m not in _REPORT_METHOD]
    if unknown:
        raise ValueError(f"unknown bench method {unknown[0]!r}")

    # warm-up doubles as the correctness gate: no timings unless all agree
    values = {m: _compute_count(G, kind, n, m) for m in methods}
    baseline = values[methods[0]]
    disagreeing = [m for m in methods[1:] if values[m] != baseline]
    if disagreeing:
        print(
            f"methods disagree on {G.spec} {kind}_{n}: "
            f"{methods[0]} vs {', '.join(disagreeing)}; no timings reported"
        )
        for m in methods:
            print(f"{m}: {tuple(values[m].values)}")
        return 1
    print(
        f"bench {kind}_{n} on {G.spec}: {len(methods)} methods agree on all "
        f"{len(baseline.values)} classes"
    )

    timings = {}
    for m in methods:
        best = min(_timed(_compute_count, G, kind, n, m) for _ in range(args.repeat))
        timings[m] = best
    naive = timings.get("brute-naive")
    for m in methods:
        line = f"{m}: {timings[m] * 1000:.3f} ms"
        if naive is not None and m != "brute-naive":
            line += f"  (speed ratio vs brute-naive: {naive / timings[m]:.1f}x)"
        print(line)
    return 0


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


if __name__ == "__main__":
    sys.exit(main())
