"""paper-table: the command users run to reproduce the paper.

One operation is `full_table(BenchConfig(seed=S), ALL_SUITES)` followed
by rendering the rows to CSV and to JSON; S is drawn from the workload
seed. op1 is its time. op2 is the part of it spent in the four quality
suites (stability, singularity, interp, robustness), which users also
run one at a time with `rotrepr bench --suite`. The paper's t_comp /
t_interp / t_batch columns are outputs of this product, not benchmark
metrics, and no check looks at them.

Checks, independent of the seed: the acceptance invariants of the
non-timing columns, and that both renderings parse back to the rows.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

from rotrepr import Rng
from rotrepr.report import parse_report_csv

from common import (Outcome, SpeedTrack, import_breakdown, median, overhead_pct,
                    self_peak_rss_mb, timed_setup)
from tracer import SUITE_FUNCTIONS, Tracer, per_layer_metrics

ROTATION_ROWS = ("euler", "axis-angle", "quaternion", "matrix", "exp-map", "sixd")
SUITE_NAMES = {name for names in SUITE_FUNCTIONS.values() for name in names}
QUALITY_NAMES = {name for suite, names in SUITE_FUNCTIONS.items()
                 if suite != "timing" for name in names}


def generate(seed: int) -> int:
    return Rng(seed).derive("paper-table").next_u32()


def one_table(table_seed: int):
    """(rows, csv text, json text) of one table, rendered both ways."""
    bench = sys.modules["rotrepr.bench"]
    report = sys.modules["rotrepr.report"]
    meta = {"seed": table_seed, "suite": "all"}
    rows = bench.full_table(bench.BenchConfig(seed=table_seed), bench.ALL_SUITES)
    return (rows, report.ReportDocument("csv", rows, meta).render(),
            report.ReportDocument("json", rows, meta).render())


class TableSample:
    """One timed table whose scale follows the machine through it: each
    bench suite entry point is bracketed by reference probes and scaled
    by the speed around it; the rest of the table is scaled by the speed
    over the whole table. Probe time is excluded."""

    def __init__(self, track: SpeedTrack, table_seed: int):
        bench = sys.modules["rotrepr.bench"]
        pieces, probe_s = [], []

        def bracket(name, fn):
            def bracketed(*args, **kwargs):
                probe_s.append(track.probe())
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    pieces.append((name, t0, time.perf_counter()))
                    probe_s.append(track.probe())
            return bracketed

        originals = {name: getattr(bench, name) for name in SUITE_NAMES}
        for name, fn in originals.items():
            setattr(bench, name, bracket(name, fn))
        try:
            track.probe()
            self.start = time.perf_counter()
            self.result = one_table(table_seed)
            self.end = time.perf_counter()
            track.probe()
        finally:
            for name, fn in originals.items():
                setattr(bench, name, fn)
        self.track, self.pieces = track, pieces
        self.wall_s = self.end - self.start - sum(probe_s)

    def _scaled(self, names) -> float:
        return sum((t1 - t0) * self.track.scale(t0, t1)
                   for name, t0, t1 in self.pieces if name in names)

    @property
    def scaled_s(self) -> float:
        rest = self.wall_s - sum(t1 - t0 for _, t0, t1 in self.pieces)
        return (self._scaled(SUITE_NAMES)
                + rest * self.track.scale(self.start, self.end))

    @property
    def quality_scaled_s(self) -> float:
        return self._scaled(QUALITY_NAMES)

    def suite_scaled_s(self, suite: str) -> float:
        return self._scaled(set(SUITE_FUNCTIONS[suite]))

    @property
    def quality_wall_s(self) -> float:
        return sum(t1 - t0 for name, t0, t1 in self.pieces if name in QUALITY_NAMES)


def invariants(rows) -> list[str]:
    """Names of the violated acceptance invariants (timing excluded)."""
    by = {row.representation: row for row in rows}
    q, ev, sixd, euler = by["quaternion"], by["exp-map"], by["sixd"], by["euler"]
    checks = {f"eps_stab[{tag}] < 1e-10": by[tag].eps_stab < 1e-10
              for tag in ROTATION_ROWS}
    checks.update({
        "s_double == 0": q.s_double == 0.0,
        "s_gimbal[euler] > 0.1": euler.s_gimbal > 0.1,
        "path_length sixd > exp-map": sixd.path_length > ev.path_length,
        "path_length exp-map >= quaternion": ev.path_length >= q.path_length - 1e-9,
        "sigma_deriv quaternion < exp-map < sixd":
            q.sigma_deriv < ev.sigma_deriv < sixd.sigma_deriv,
        "sigma_deriv[sixd] > 0.5": sixd.sigma_deriv > 0.5,
    })
    for tag in ("quaternion", "exp-map"):
        checks[f"f_rate[{tag}] == 0"] = by[tag].f_rate == 0.0
        checks[f"eps_max[{tag}] < 1e-9"] = by[tag].eps_max < 1e-9
    return [name for name, ok in checks.items() if not ok]


def check_table(rows, csv_text, json_text, outcome: Outcome) -> None:
    problems = invariants(rows)
    expected = [asdict(row) for row in rows]
    if parse_report_csv(csv_text) != expected:
        problems.append("CSV does not parse back to the rows")
    if json.loads(json_text)["rows"] != expected:
        problems.append("JSON does not parse back to the rows")
    if problems:
        outcome.fail("table", "table: " + "; ".join(problems), False)
    else:
        outcome.ok("table")


def _measure(track, table_seed, budget_s, outcome):
    tables = []
    start = time.perf_counter()
    while not tables or time.perf_counter() - start < budget_s:
        tables.append(TableSample(track, table_seed))
        check_table(*tables[-1].result, outcome)
    return tables


def run(seed: int, seconds: int, trace: bool):
    track = SpeedTrack()
    setup_s, table_seed = timed_setup(track, "rotrepr.bench, rotrepr.report",
                                      lambda: generate(seed))
    outcome = Outcome()
    tables = _measure(track, table_seed, seconds / 2 if trace else seconds, outcome)
    rss = self_peak_rss_mb()
    table_ms = median([t.scaled_s for t in tables]) * 1e3
    quality_ms = median([t.quality_scaled_s for t in tables]) * 1e3
    info = {"bench_seed": table_seed, "table_s": table_ms / 1e3,
            "table_s_samples": [t.scaled_s for t in tables],
            "wall_table_s_samples": [t.wall_s for t in tables],
            "quality_suites_s": quality_ms / 1e3,
            "suite_s": {suite: median([t.suite_scaled_s(suite) for t in tables])
                        for suite in SUITE_FUNCTIONS}}
    if not trace:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
                   "op1_ms": (table_ms, "ms"), "op2_ms": (quality_ms, "ms")}
        return outcome, metrics, info
    # overhead compares unscaled times: the traced table has no probes
    tracer = Tracer().install()
    try:
        with tracer.span("table"):
            result = one_table(table_seed)
    finally:
        tracer.uninstall()
    check_table(*result, outcome)
    quality_spans = {f"bench.{name}" for name in QUALITY_NAMES}
    info["spans"] = tracer.span_summary()
    metrics = per_layer_metrics(
        tracer, tables=1, imports=import_breakdown(track)[0],
        overhead_pct=(overhead_pct(median([t.wall_s for t in tables]),
                                   tracer.span_seconds({"table"})),
                      overhead_pct(median([t.quality_wall_s for t in tables]),
                                   tracer.span_seconds(quality_spans))))
    return outcome, metrics, info
