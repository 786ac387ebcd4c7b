"""The JSON plumbing of every document, and the count report.

Documents are JSON objects, read by ``_read_doc``, written by ``_write_doc``
and typed field by field by ``_check_fields``.  Each format lives beside its
type: groups in :mod:`.groups`, character tables in :mod:`.chars`, and count
reports, which serialize :class:`CountReport`, here.  Anything wrong with a
document is a load error, never a warning.  Saving writes a canonical form,
so saving what was just loaded reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cyclo import parse_cyclo

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
    literals.
    """

    group: str
    kind: str
    n: int
    method: str
    class_rows: tuple[ClassRow, ...]
    coeff_rows: tuple[CoeffRow, ...] = ()

    def __post_init__(self):
        if self.kind not in ("f", "t"):
            raise ValueError(f"unknown count kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def report_to_document(report: CountReport) -> dict:
    return {
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


# the JSON type of every field of a report and of its class and coefficient rows
_REPORT_TYPES = {
    "group": str, "kind": str, "n": int, "method": str, "classes": list,
    "coefficients": list, "rep": str, "order": int, "size": int, "value": str,
    "label": str, "degree": int, "coefficient": str,
}


def report_from_document(doc: dict) -> CountReport:
    _check_fields(
        doc,
        "report",
        required=("group", "kind", "n", "method", "classes"),
        optional=("coefficients",),
        types=_REPORT_TYPES,
    )
    classes = []
    for i, row in enumerate(doc["classes"]):
        _check_fields(row, f"classes[{i}]", ("rep", "order", "size", "value"),
                      types=_REPORT_TYPES)
        classes.append(
            ClassRow(row["rep"], row["order"], row["size"], row["value"])
        )
    coeffs = []
    for i, row in enumerate(doc.get("coefficients", ())):
        _check_fields(row, f"coefficients[{i}]", ("label", "degree", "coefficient"),
                      types=_REPORT_TYPES)
        coeffs.append(CoeffRow(row["label"], row["degree"], row["coefficient"]))
    return CountReport(
        doc["group"],
        doc["kind"],
        doc["n"],
        doc["method"],
        tuple(classes),
        tuple(coeffs),
    )


def load_report(path: str) -> CountReport:
    return report_from_document(_read_doc(path))


def save_report(report: CountReport, path: str) -> None:
    _write_doc(report_to_document(report), path, indent=1)


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


_NOUNS = {int: "a positive integer", list: "a list", str: "a string"}


def _check_fields(doc, where, required, optional=(), types=None):
    """Refuse a missing or unknown field, and one whose value is not of its
    type in `types`.  Every integer field of these documents is a count or
    an order, so an int must be positive (and a JSON true or false is no
    integer)."""
    types = types or {}
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object")
    for name in required:
        if name not in doc:
            raise DocumentError(f"{where}: missing field {name!r}")
    for name, value in doc.items():
        if name not in required and name not in optional:
            raise DocumentError(f"{where}: unknown field {name!r}")
        kind = types.get(name, object)
        if not isinstance(value, kind) or kind is int and (
            isinstance(value, bool) or value < 1
        ):
            raise DocumentError(
                f"{where}: field {name!r}: expected {_NOUNS[kind]}, got {value!r}"
            )
