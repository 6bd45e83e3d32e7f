"""Behavioural goldens: the non-timing fields of the benchmark report.

Every non-timing field of full_table(BenchConfig(), QUALITY_SUITES) is
pinned bit for bit in tests/fixtures/bench_seed42_nontiming.json, floats
stored as float.hex. A second, small golden in
tests/fixtures/bench_small_nontiming.json pins the same fields at seeds
7 and 1234567 under SMALL_CONFIG, whose 600 singularity draws cross two
256-draw projection chunks. A refactor must leave both fixtures
unchanged; an intended behaviour change regenerates them and is
declared in CHANGES.md.

Regenerate with `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import math
from pathlib import Path

from rotrepr.bench import REPORT_FIELDS, BenchConfig, full_table

FIXTURE = Path(__file__).parent / "fixtures" / "bench_seed42_nontiming.json"
SMALL_FIXTURE = Path(__file__).parent / "fixtures" / "bench_small_nontiming.json"
SMALL_SEEDS = (7, 1234567)
SMALL_CONFIG = dict(n_stability=100, m_singularity=600, n_edge=60, n_pairs=8)
QUALITY_SUITES = ("stability", "singularity", "interp", "robustness")
TIMING_FIELDS = ("t_comp", "t_interp", "t_batch")


def _encode(value):
    return float.hex(value) if isinstance(value, float) else value


def nontiming_rows(cfg: BenchConfig = BenchConfig()) -> dict:
    """representation -> {field: float.hex string, int, or None}."""
    rows = full_table(cfg, QUALITY_SUITES)
    return {row.representation: {field: _encode(getattr(row, field))
                                 for field in REPORT_FIELDS
                                 if field not in TIMING_FIELDS
                                 and field != "representation"}
            for row in rows}


def _compensated_sum(values, start=0):
    # sum() of floats as Python 3.12 and later compute it (Neumaier)
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_seed42_golden_does_not_depend_on_sum(monkeypatch):
    # the golden was recorded under Python 3.11, whose sum() adds floats
    # left to right; a compensated sum() changed 10 fields
    import rotrepr.bench
    monkeypatch.setattr(rotrepr.bench, "sum", _compensated_sum, raising=False)
    test_seed42_nontiming_fields_bit_identical()


def test_bench_distances_sum_left_to_right(monkeypatch):
    # 1e16 + 1 + 1 + 1 is 1e16 left to right and 1e16 + 4 compensated
    import rotrepr.bench as bench
    monkeypatch.setattr(bench, "sum", _compensated_sum, raising=False)
    a, b = (1e8, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0)
    assert math.sqrt(_compensated_sum(x * x for x in a)) != 1e8
    assert bench._tuple_dist(a, b) == 1e8
    assert bench._quat_param_dist(a, b) == 1e8


def small_rows() -> dict:
    """str(seed) -> nontiming_rows at that seed under SMALL_CONFIG."""
    return {str(seed): nontiming_rows(BenchConfig(seed=seed, **SMALL_CONFIG))
            for seed in SMALL_SEEDS}


def _field_diffs(expected, got):
    assert list(got) == list(expected)
    return [(tag, field, expected[tag][field], value)
            for tag, fields in got.items()
            for field, value in fields.items()
            if value != expected[tag][field]]


def test_seed42_nontiming_fields_bit_identical():
    assert _field_diffs(json.loads(FIXTURE.read_text()), nontiming_rows()) == []


def test_small_config_nontiming_fields_bit_identical():
    expected = json.loads(SMALL_FIXTURE.read_text())
    got = small_rows()
    assert list(got) == list(expected)
    for seed in got:
        assert _field_diffs(expected[seed], got[seed]) == [], seed


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(nontiming_rows(), indent=1) + "\n")
    SMALL_FIXTURE.write_text(json.dumps(small_rows(), indent=1) + "\n")
