"""Layer tracing built from the benchmark's side only.

Public functions of the rotrepr modules are wrapped by rebinding them in
every module namespace that holds them (the defining module and each
module that imported the name), and methods are rebound on their class.
Each wrapper aggregates a call count plus inclusive and self time for
its key; no per-call span is kept, because paper-table makes millions
of kernel calls. Full spans (name, start, end, parent) are kept only for
the coarse boundaries a workload marks with `span()`, and for wrapped
functions listed in `SPAN_FUNCTIONS`.
"""

from __future__ import annotations

import contextlib
import sys
import time

# layer -> module attribute (or Class.method) names to wrap. The layer
# name is also the rotrepr module name.
LAYER_FUNCTIONS = {
    "rng": ["Rng.next_u32", "Rng.random", "Rng.uniform", "Rng.normal",
            "Rng.normals", "Rng.derive"],
    "core": ["sample_uniform", "validate", "relative_angle", "geodesic_distance",
             "mat_mul_rows", "project_to_so3", "rotate_vector", "canonicalize"],
    "convert": ["axis_angle_to_quat", "quat_to_axis_angle", "axis_angle_to_matrix",
                "exp_map", "log_map", "canonicalize_rotation_vector",
                "quat_to_matrix", "matrix_to_quat", "euler_to_matrix",
                "matrix_to_euler", "sixd_to_matrix", "matrix_to_sixd",
                "convert"],
    "compose": ["compose_in", "matrix_mul", "quat_mul"],
    "interp": ["slerp", "nlerp", "matrix_geodesic", "linear_rotation_vector",
               "linear_sixd", "linear_euler", "make_interpolator",
               "Interpolator.eval"],
    "registration": ["horn_align", "eig_sym4", "icp"],
    "bench": ["full_table", "stability_suite", "gimbal_susceptibility",
              "double_cover_check", "interpolation_metrics", "robustness_suite",
              "composition_times", "interpolation_times", "batch_times"],
    "report": ["ReportDocument.render", "parse_report_csv"],
}

# modules whose namespaces may hold imported copies of the names above
IMPORTING_MODULES = ("core", "convert", "compose", "interp", "registration",
                     "bench", "report", "cli")

# bench entry points whose calls make up each paper suite
SUITE_FUNCTIONS = {
    "stability": ("stability_suite",),
    "singularity": ("gimbal_susceptibility", "double_cover_check"),
    "interp": ("interpolation_metrics",),
    "robustness": ("robustness_suite",),
    "timing": ("composition_times", "interpolation_times", "batch_times"),
}
SPAN_FUNCTIONS = {f"bench.{name}" for names in SUITE_FUNCTIONS.values()
                  for name in names} | {"registration.icp"}


class Stat:
    __slots__ = ("calls", "boundary_calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.boundary_calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregating tracer; install() wraps, uninstall() restores."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self.reprojections = 0
        # frames of [key, layer, child_seconds, span_index]
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, keyed: bool):
        stats = self.stats
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        keep_span = name in SPAN_FUNCTIONS
        tracer = self

        def wrapped(*args, **kwargs):
            key = f"{name}.{args[0]}" if keyed else name
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == "compose.matrix_mul" \
                    and name == "core.project_to_so3":
                tracer.reprojections += 1
            span_index = -1
            if keep_span:
                span_index = len(spans)
                spans.append({"name": name,
                              "parent": parent[3] if parent else -1})
            frame = [key, layer, 0.0, span_index]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = Stat()
                stat.calls += 1
                if parent is None or parent[1] != layer:
                    stat.boundary_calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                if span_index >= 0:
                    spans[span_index]["start"] = start
                    spans[span_index]["end"] = end

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def install(self) -> "Tracer":
        import rotrepr
        modules = [sys.modules[f"rotrepr.{m}"] for m in
                   set(LAYER_FUNCTIONS) | set(IMPORTING_MODULES)] + [rotrepr]
        wrappers = {}  # id(original) -> (original, wrapped)
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"rotrepr.{layer}"]
            for attr in names:
                key = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(original, key, layer, False))
                    self._restore.append((cls.__dict__, meth, original, cls))
                    continue
                original = getattr(home, attr)
                wrappers[id(original)] = (original, self._wrap(
                    original, key, layer, keyed=(key == "compose.compose_in")))
        # module namespaces, plus module-level dispatch tables that captured
        # a function object at import time
        namespaces = [mod.__dict__ for mod in modules]
        namespaces += [value for ns in list(namespaces) for name, value in ns.items()
                       if isinstance(value, dict) and not name.startswith("__")]
        for ns in namespaces:
            for name, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[name] = hit[1]
                    self._restore.append((ns, name, value, None))
        return self

    def uninstall(self) -> None:
        for ns, name, original, cls in reversed(self._restore):
            if cls is not None:
                setattr(cls, name, original)
            else:
                ns[name] = original
        self._restore.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A full span at a workload boundary (block, subprocess, table)."""
        entry = {"name": name, "parent": -1, "start": time.perf_counter()}
        self.spans.append(entry)
        try:
            yield
        finally:
            entry["end"] = time.perf_counter()

    # -- summaries --------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls entering the layer from outside, self seconds)."""
        out = {layer: [0, 0.0] for layer in LAYER_FUNCTIONS}
        for key, stat in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer][0] += stat.boundary_calls
            out[layer][1] += stat.self_time
        return {layer: (calls, secs) for layer, (calls, secs) in out.items()}

    def micros(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.total / stat.calls * 1e6 if stat and stat.calls else 0.0

    def calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def self_seconds(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.self_time if stat else 0.0

    def span_summary(self) -> dict[str, list]:
        """name -> [count, total seconds] over the kept spans."""
        out: dict[str, list] = {}
        for s in self.spans:
            entry = out.setdefault(s["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += s["end"] - s["start"]
        return out

    def span_seconds(self, names) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] in names and "end" in s)



# ---------------------------------------------------------------------------
# per-layer metric set (the same names for every workload; a layer or
# kernel the workload never calls reads 0)

LAYERS = tuple(LAYER_FUNCTIONS)
TAGS = ("quat", "matrix", "euler-zyx", "euler-xyz", "axis-angle", "rotvec", "sixd")
KERNELS_US = (
    ["rng.Rng.next_u32", "rng.Rng.normal"]
    + [f"core.{n}" for n in ("sample_uniform", "validate", "relative_angle",
                             "mat_mul_rows", "project_to_so3")]
    + [f"convert.{n}" for n in LAYER_FUNCTIONS["convert"]]
    + [f"compose.compose_in.{tag}" for tag in TAGS]
    + [f"interp.{n}" for n in ("slerp", "nlerp", "matrix_geodesic",
                               "linear_rotation_vector", "linear_sixd",
                               "linear_euler", "Interpolator.eval")]
    + ["registration.horn_align", "registration.eig_sym4"]
)
IMPORT_METRICS = ("import.numpy.ms", "import.rotrepr.ms", "import.rotrepr.cli.ms",
                  "python.bare.ms")


def _kernel_name(key: str) -> str:
    return key.replace("rng.Rng.", "rng.") + ".us"


PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{_kernel_name(key): "us" for key in KERNELS_US},
    "registration.icp.ms": "ms",
    **{f"bench.{suite}.s": "s" for suite in SUITE_FUNCTIONS},
    "report.render.ms": "ms",
    "registration.icp.iterations": "count",
    "registration.nn_s": "s",
    "compose.reproject_ratio": "ratio",
    **{name: "ms" for name in IMPORT_METRICS},
    "trace.op1_overhead_pct": "%",
    "trace.op2_overhead_pct": "%",
}


def per_layer_metrics(tracer: Tracer, *, tables: int = 0, icp_iterations: float = 0.0,
                      imports: dict | None = None,
                      overhead_pct: tuple[float, float] = (0.0, 0.0)) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    values: dict[str, float] = {}
    for layer, (calls, secs) in tracer.layer_totals().items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = secs
    for key in KERNELS_US:
        values[_kernel_name(key)] = tracer.micros(key)
    values["registration.icp.ms"] = tracer.micros("registration.icp") / 1e3
    for suite, names in SUITE_FUNCTIONS.items():
        secs = tracer.span_seconds({f"bench.{n}" for n in names})
        values[f"bench.{suite}.s"] = secs / tables if tables else 0.0
    values["report.render.ms"] = tracer.micros("report.ReportDocument.render") / 1e3
    values["registration.icp.iterations"] = icp_iterations
    icp_calls = tracer.calls("registration.icp")
    values["registration.nn_s"] = (tracer.self_seconds("registration.icp") / icp_calls
                                   if icp_calls else 0.0)
    mm_calls = tracer.calls("compose.matrix_mul")
    values["compose.reproject_ratio"] = (tracer.reprojections / mm_calls
                                         if mm_calls else 0.0)
    for name in IMPORT_METRICS:
        values[name] = (imports or {}).get(name, 0.0)
    values["trace.op1_overhead_pct"], values["trace.op2_overhead_pct"] = overhead_pct
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
