"""cli-cold: fresh `python -m rotrepr.cli convert` processes, one at a time.

The only workload that pays interpreter start-up and module import on
every operation, so a lazy numpy import should move it and nothing else.
Tag pairs and values are drawn from the seed. op1 is the median wall
time of a process, op2 the highest percentile that still has at least
ten samples above it.

Checks, independent of the seed: exit code 0 and stdout equal to the
same command run in-process. A probe with an overflowing rotation vector
must exit 2 without a traceback; it is run once per run, outside the
latency samples.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

from rotrepr import Rng, convert, quat_to_matrix, sample_uniform
from rotrepr.cli import components

from common import (Outcome, Sample, SpeedTrack, children_peak_rss_mb, import_breakdown,
                    median, median_ms, overhead_pct, run_child, tail_percentile,
                    timed_setup)
from tracer import TAGS, Tracer, per_layer_metrics

N_INPUTS = 64
# the convert command with rotrepr.cli imported as a module (not run as
# __main__), so -X importtime reports it by name
CLI_AS_MODULE = "import sys, rotrepr.cli; sys.exit(rotrepr.cli.main(sys.argv[1:]))"
OVERFLOW_PROBE = ["convert", "--from", "rotvec", "--to", "quat", "--value=1e200,0,0"]


def generate(seed: int) -> list[list[str]]:
    rng = Rng(seed).derive("cli-cold")
    commands = []
    for _ in range(N_INPUTS):
        src = TAGS[int(rng.random() * len(TAGS))]
        dst = TAGS[int(rng.random() * (len(TAGS) - 1))]
        if dst == src:
            dst = TAGS[-1]
        q = sample_uniform(rng)
        if src == "sixd":
            r = quat_to_matrix(q)
            values = list(r.column(0)) + [v * 2.0 for v in r.column(1)]
        else:
            values = components(convert(q, src))
        commands.append(["convert", "--from", src, "--to", dst,
                         "--value=" + ",".join(repr(v) for v in values)])
    return commands


def in_process(argv) -> str:
    main = sys.modules["rotrepr.cli"].main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"in-process {argv} exited {code}")
    return out.getvalue()


def run(seed: int, seconds: int, trace: bool):
    track = SpeedTrack()
    setup_s, commands = timed_setup(track, "rotrepr.cli", lambda: generate(seed))
    outcome = Outcome()
    samples, results = [], []
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    # every command runs at least once, and the tail has 20 samples
    while (len(samples) < max(20, len(commands))
           or time.perf_counter() - start < budget):
        argv = commands[len(samples) % len(commands)]
        sample = Sample(track, run_child, ["-m", "rotrepr.cli", *argv])
        samples.append(sample)
        results.append((argv, sample.result.returncode, sample.result.stdout))
    rss = children_peak_rss_mb()

    probe = run_child(["-m", "rotrepr.cli", *OVERFLOW_PROBE])
    if probe.returncode == 2 and "Traceback" not in probe.stderr:
        outcome.ok("overflow probe")
    else:
        outcome.fail("overflow probe", f"overflow probe {' '.join(OVERFLOW_PROBE)} exited "
                     f"{probe.returncode}, expected 2 without a traceback", True)

    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        with tracer.span("oracle"):
            expected = {tuple(argv): in_process(argv) for argv in commands}
    finally:
        tracer.uninstall()
    for argv, code, stdout in results:
        if code == 0 and stdout == expected[tuple(argv)]:
            outcome.ok(tuple(argv))
        else:
            outcome.fail(tuple(argv), f"convert {argv[2]} -> {argv[4]}: exit {code} "
                         "or stdout differs from the in-process result", False)

    p50 = median_ms(samples)
    tail, pct = tail_percentile([s.scaled_s * 1e3 for s in samples])
    info = {"cold_convert_ms_p50": p50, "cold_convert_ms_tail": tail,
            "tail_percentile": pct, "samples": len(samples),
            "wall_cold_convert_ms_p50": median_ms(samples, scaled=False),
            "wall_cold_convert_ms_tail": tail_percentile(
                [s.wall_s * 1e3 for s in samples])[0]}
    if not trace:
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
                   "op1_ms": (p50, "ms"), "op2_ms": (tail, "ms")}
        return outcome, metrics, info
    with tracer.span("importtime children"):
        imports, traced = import_breakdown(track, ["-c", CLI_AS_MODULE, *commands[0]])
    traced_ms = [s.scaled_s * 1e3 for s in traced]
    info["spans"] = tracer.span_summary()
    metrics = per_layer_metrics(
        tracer, imports=imports,
        overhead_pct=(overhead_pct(p50, median(traced_ms)),
                      overhead_pct(tail, max(traced_ms))))
    return outcome, metrics, info
