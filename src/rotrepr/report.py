"""Benchmark report serialization: CSV, JSON, and markdown.

Numbers are printed with 17 significant digits so every double
round-trips exactly through the text form. Absent metrics (the fisher
row, unselected suites) appear as the literal NA in CSV and markdown and
as null in JSON. CSV carries the metadata as leading '#' comment lines
so the header row still matches the BenchReport field list verbatim.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .bench import REPORT_FIELDS, BenchReport
from .errors import RotationError

FORMATS = ("csv", "json", "md")
NA = "NA"


def fmt17(x: float) -> str:
    return f"{x:.17g}"


def _cell(value, spec: str = ".17g") -> str:
    if value is None:
        return NA
    if isinstance(value, (int, str)):
        return str(value)
    return format(value, spec)


@dataclass
class ReportDocument:
    """A rendered-to-order report: rows plus run metadata."""

    fmt: str
    rows: list[BenchReport]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise RotationError(f"unknown report format {self.fmt!r}")

    def render(self) -> str:
        if self.fmt == "json":
            doc = {"meta": self.meta, "rows": [asdict(row) for row in self.rows]}
            return json.dumps(doc, indent=2) + "\n"
        if self.fmt == "csv":
            lines = [f"# {key}: {value}" for key, value in self.meta.items()]
            lines.append(",".join(REPORT_FIELDS))
            for row in self.rows:
                lines.append(",".join(_cell(getattr(row, name))
                                      for name in REPORT_FIELDS))
        else:
            lines = [f"- {key}: {value}" for key, value in self.meta.items()]
            if lines:
                lines.append("")
            lines.append("| " + " | ".join(REPORT_FIELDS) + " |")
            lines.append("|" + "|".join("---" for _ in REPORT_FIELDS) + "|")
            for row in self.rows:
                lines.append("| " + " | ".join(_cell(getattr(row, name), ".6g")
                                               for name in REPORT_FIELDS) + " |")
        return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> list[dict]:
    """Parse a CSV report back to row dicts (floats, ints, None).

    Inverse of the csv renderer up to the printed precision; '#' comment
    lines are skipped.
    """
    rows = []
    header: list[str] | None = None
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            if tuple(header) != REPORT_FIELDS:
                raise RotationError("CSV header does not match BenchReport fields")
            continue
        row: dict = {}
        for name, cell in zip(header, cells):
            if cell == NA:
                row[name] = None
            elif name == "representation":
                row[name] = cell
            elif name == "storage_bytes":
                row[name] = int(cell)
            else:
                row[name] = float(cell)
        rows.append(row)
    return rows
