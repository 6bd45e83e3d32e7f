"""The names and value types perfbench uses must still work in rotrepr.

`perfbench/tracer.py` wraps kernels by name, and paper-table brackets
the `SUITE_FUNCTIONS` entry points to compute its `op2_ms`. A refactor
that renames or drops one of them breaks the benchmark without any
error, so every name is resolved here. pose-stream builds every value
type from raw components, paper-table reads the report rows with
`dataclasses.asdict` and register judges Horn and ICP against its own
ground truth, so one small pass of each runs here too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, with perfbench/ on sys.path for
    its own imports (common, tracer)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


tracer = _load("tracer")


@pytest.mark.parametrize("layer", sorted(tracer.LAYER_FUNCTIONS))
def test_layer_functions_resolve(layer):
    home = importlib.import_module(f"rotrepr.{layer}")
    for name in tracer.LAYER_FUNCTIONS[layer]:
        if "." in name:
            cls_name, method = name.split(".")
            # the tracer rebinds the method found in the class __dict__
            assert method in vars(getattr(home, cls_name)), name
        else:
            assert callable(getattr(home, name, None)), name


def test_suite_functions_resolve():
    bench = importlib.import_module("rotrepr.bench")
    for suite, names in tracer.SUITE_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(bench, name, None)), (suite, name)


# calls per full_table: the per-row suites run once for each of the six
# rotation rows, the others once per table
SUITE_CALLS = {"stability_suite": 6, "gimbal_susceptibility": 6,
               "robustness_suite": 6, "double_cover_check": 1,
               "interpolation_metrics": 1, "composition_times": 1,
               "interpolation_times": 1, "batch_times": 1}


def test_full_table_calls_suites_through_module_globals(monkeypatch):
    # paper-table's op2_ms brackets these globals with setattr; a table
    # of suite callables captured at import would bypass the brackets
    # and read 0
    bench = importlib.import_module("rotrepr.bench")
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    names = {name for names in tracer.SUITE_FUNCTIONS.values() for name in names}
    assert names == set(SUITE_CALLS)
    for name in names:
        monkeypatch.setattr(bench, name, counted(name, getattr(bench, name)))
    bench.full_table(bench.BenchConfig(n_stability=5, m_singularity=5, n_edge=6,
                                       n_pairs=2, trials=2, warmup=1, batch=2))
    assert calls == SUITE_CALLS


def test_importing_modules_exist():
    for name in tracer.IMPORTING_MODULES:
        importlib.import_module(f"rotrepr.{name}")


def test_pose_stream_runs_one_frame_of_every_tag():
    pose_stream = _load("pose_stream")
    inputs = pose_stream.generate(7)
    n_tags = len(tracer.TAGS)
    frames = inputs["haar"][:n_tags]  # one per tag, built by _builders()
    results = pose_stream.run_block(frames, inputs["calib"])
    assert len(results) == n_tags
    assert pose_stream.run_block(frames, inputs["calib"]) == results
    verdicts = pose_stream.check_block("haar", frames, inputs["calib"], results,
                                       None, {})
    assert verdicts == [None] * n_tags


def test_cli_cold_probe_and_commands_run_in_process(capsys):
    # the overflow probe must exit 2 with one error line and no traceback,
    # and the first generated commands must run in process with exit 0
    from rotrepr.cli import main

    cli_cold = _load("cli_cold")
    assert main(list(cli_cold.OVERFLOW_PROBE)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for argv in cli_cold.generate(7)[:8]:
        out = cli_cold.in_process(argv)
        assert out.count("\n") == 1 and "," in out, argv


def test_paper_table_check_passes_on_a_small_table():
    from rotrepr.bench import BenchConfig, full_table
    from rotrepr.report import ReportDocument

    paper_table = _load("paper_table")
    rows = full_table(BenchConfig(seed=42, n_stability=50, m_singularity=400,
                                  n_edge=20, n_pairs=20, trials=20, warmup=5,
                                  batch=10))
    meta = {"seed": 42, "suite": "all"}
    outcome = paper_table.Outcome()
    paper_table.check_table(rows, ReportDocument("csv", rows, meta).render(),
                            ReportDocument("json", rows, meta).render(), outcome)
    assert outcome.verdicts == {"table": None}


def test_register_blocks_pass_their_check_on_a_slice():
    # the register workload's own blocks and check, at its tolerances, on
    # every size of Horn problem and two ICP problems of generate(7)
    register = _load("register")
    inputs = register.generate(7)
    horn, icp = inputs["horn"][::8], inputs["icp"][:2]
    outcome = register.Outcome()
    register.check(horn, register.horn_block(horn), register.HORN_TOL, "horn", outcome)
    register.check(icp, [r.transform for r in register.icp_block(icp)],
                   register.ICP_TOL, "icp", outcome)
    assert outcome.verdicts == {**{("horn", i): None for i in range(len(horn))},
                                **{("icp", i): None for i in range(len(icp))}}
