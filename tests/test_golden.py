"""Behavioural golden: the non-timing fields of the seed-42 report.

Every non-timing field of full_table(BenchConfig(), QUALITY_SUITES) is
pinned bit for bit in tests/fixtures/bench_seed42_nontiming.json, floats
stored as float.hex. A refactor must leave the fixture unchanged; an
intended behaviour change regenerates it and is declared in CHANGES.md.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from pathlib import Path

from rotrepr.bench import REPORT_FIELDS, BenchConfig, full_table

FIXTURE = Path(__file__).parent / "fixtures" / "bench_seed42_nontiming.json"
QUALITY_SUITES = ("stability", "singularity", "interp", "robustness")
TIMING_FIELDS = ("t_comp", "t_interp", "t_batch")


def _encode(value):
    return float.hex(value) if isinstance(value, float) else value


def nontiming_rows() -> dict:
    """representation -> {field: float.hex string, int, or None}."""
    rows = full_table(BenchConfig(), QUALITY_SUITES)
    return {row.representation: {field: _encode(getattr(row, field))
                                 for field in REPORT_FIELDS
                                 if field not in TIMING_FIELDS
                                 and field != "representation"}
            for row in rows}


def test_seed42_nontiming_fields_bit_identical():
    expected = json.loads(FIXTURE.read_text())
    got = nontiming_rows()
    assert list(got) == list(expected)
    diffs = [(tag, field, expected[tag][field], value)
             for tag, fields in got.items()
             for field, value in fields.items()
             if value != expected[tag][field]]
    assert diffs == []


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(nontiming_rows(), indent=1) + "\n")
