"""Reading and writing the on-disk document formats.

All documents are JSON text.  A group file carries ``order``, ``mul`` and an
optional ``names`` list (0-based indices, identity at 0); character-table
files use the fields understood by :func:`.chars.table_from_document`; count
reports serialize :class:`CountReport`.  Anything wrong with a document --
bad schema or a table that breaks the group laws -- is a load error, never a
warning.  Saving writes a canonical form, so saving what was just loaded
reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .chars import CharacterTable, build_table, table_to_document
from .cyclo import parse_cyclo
from .groups import GroupTable

METHODS = frozenset(
    ["brute", "brute-naive", "character", "closed-form", "recursive"]
)


class DocumentError(ValueError):
    """A document failed schema validation; the message names the field."""


# -- count reports --------------------------------------------------------------


@dataclass(frozen=True)
class ClassRow:
    """One conjugacy class of a count: representative, its order, the class
    size, and the exact count value rendered in the cyclotomic literal
    grammar (plain integers for the usual case)."""

    rep: str
    rep_order: int
    size: int
    value: str

    def __post_init__(self):
        if self.rep_order < 1 or self.size < 1:
            raise ValueError("class rows need positive order and size")
        parse_cyclo(self.value)


@dataclass(frozen=True)
class CoeffRow:
    label: str
    degree: int
    coefficient: str

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("character degree must be positive")
        parse_cyclo(self.coefficient)


@dataclass(frozen=True)
class CountReport:
    """A finished count in exportable form.

    Rows follow the group's canonical class order and all values are exact
    literals; ``timing_ms`` is an optional field that no command fills.
    """

    group: str
    kind: str
    n: int
    method: str
    class_rows: tuple[ClassRow, ...]
    coeff_rows: tuple[CoeffRow, ...] = ()
    timing_ms: float | None = None

    def __post_init__(self):
        if self.kind not in ("f", "t"):
            raise ValueError(f"unknown count kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def report_to_document(report: CountReport) -> dict:
    doc = {
        "group": report.group,
        "kind": report.kind,
        "n": report.n,
        "method": report.method,
        "classes": [
            {"rep": r.rep, "order": r.rep_order, "size": r.size, "value": r.value}
            for r in report.class_rows
        ],
        "coefficients": [
            {"label": c.label, "degree": c.degree, "coefficient": c.coefficient}
            for c in report.coeff_rows
        ],
    }
    if report.timing_ms is not None:
        doc["timing_ms"] = report.timing_ms
    return doc


def report_from_document(doc: dict) -> CountReport:
    _check_fields(
        doc,
        "report",
        required=("group", "kind", "n", "method", "classes"),
        optional=("coefficients", "timing_ms"),
    )
    classes = []
    for i, row in enumerate(doc["classes"]):
        _check_fields(row, f"classes[{i}]", required=("rep", "order", "size", "value"))
        classes.append(
            ClassRow(row["rep"], row["order"], row["size"], row["value"])
        )
    coeffs = []
    for i, row in enumerate(doc.get("coefficients", ())):
        _check_fields(
            row, f"coefficients[{i}]", required=("label", "degree", "coefficient")
        )
        coeffs.append(CoeffRow(row["label"], row["degree"], row["coefficient"]))
    return CountReport(
        doc["group"],
        doc["kind"],
        doc["n"],
        doc["method"],
        tuple(classes),
        tuple(coeffs),
        doc.get("timing_ms"),
    )


def load_report(path: str) -> CountReport:
    return report_from_document(_read_doc(path))


def save_report(report: CountReport, path: str) -> None:
    _write_doc(report_to_document(report), path, indent=1)


# -- group tables ---------------------------------------------------------------


def load_group(path: str) -> GroupTable:
    doc = _read_doc(path)
    _check_fields(doc, "group", required=("order", "mul"), optional=("names",))
    order = doc["order"]
    if not isinstance(order, int) or order < 1:
        raise DocumentError(f"field 'order': expected a positive integer, got {order!r}")
    mul = doc["mul"]
    if not isinstance(mul, list) or len(mul) != order:
        raise DocumentError(f"field 'mul': expected {order} rows")
    for i, row in enumerate(mul):
        if (
            not isinstance(row, list)
            or len(row) != order
            or not all(isinstance(v, int) for v in row)
        ):
            raise DocumentError(
                f"field 'mul': row {i} is not a list of {order} integers"
            )
    names = doc.get("names")
    if names is not None and (
        not isinstance(names, list) or not all(isinstance(s, str) for s in names)
    ):
        raise DocumentError("field 'names': expected a list of strings")
    # group-law violations surface as GroupLawError straight from the constructor
    return GroupTable(mul, names, family="file", spec=f"file:{path}")


def save_group(G: GroupTable, path: str) -> None:
    doc = {
        "order": G.order,
        "mul": G.table.tolist(),
        "names": list(G.names),
    }
    _write_doc(doc, path, indent=None)


# -- character tables -----------------------------------------------------------


def load_chartable(path: str, G: GroupTable) -> CharacterTable:
    """Load, align against G's classes, and fully validate."""
    return build_table(G, f"file:{path}")


def save_chartable(T: CharacterTable, path: str) -> None:
    _write_doc(table_to_document(T), path, indent=1)


# -- shared plumbing ------------------------------------------------------------


def _read_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    return doc


def _write_doc(doc: dict, path: str, indent: int | None) -> None:
    text = json.dumps(doc, indent=indent) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_fields(doc, where, required, optional=()):
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
    for name in required:
        if name not in doc:
            raise DocumentError(f"{where}: missing field {name!r}")
    for name in doc:
        if name not in required and name not in optional:
            raise DocumentError(f"{where}: unknown field {name!r}")
