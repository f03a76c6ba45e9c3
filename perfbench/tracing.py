"""Outside-in tracer: spans around trihalo's public functions and the
numpy/scipy entry points they call, installed by rebinding, from the
benchmark's own files.

Each public function of a layer module is wrapped once, and every binding of
it across ``trihalo.*`` is replaced (``pipeline.cross_section_curve`` is the
same object as ``scattering.cross_section_curve``).  Eigen and solve entry
points of ``numpy.linalg`` and ``scipy.linalg`` become leaf spans; root
finders of ``scipy.optimize`` are counted (calls and objective evaluations)
but are not spans, so the objective's work stays with the layer that calls
the root finder.  A library call, a root finder and a file write are
attributed to the trihalo layer whose span encloses it.  Spans are kept in
memory and only recorded inside ``Tracer.op``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pathlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "pipeline", "io", "spectrum", "scattering", "fanofit", "model", "quadrature")

# Library families.  Metric names call the eigen family "eigh" whatever the
# routine, so a switch from eigh to eigvalsh is still counted.
LIBRARY = {
    "eigh": {
        "numpy.linalg": ("eig", "eigh", "eigvals", "eigvalsh"),
        "scipy.linalg": (
            "eig", "eigh", "eigvals", "eigvalsh", "eig_banded", "eigvals_banded",
            "eigh_tridiagonal", "eigvalsh_tridiagonal",
        ),
    },
    "solve": {
        "numpy.linalg": ("solve", "lstsq", "inv", "pinv", "tensorsolve", "tensorinv"),
        "scipy.linalg": (
            "solve", "solve_banded", "solveh_banded", "solve_triangular", "lstsq",
            "inv", "pinv", "pinvh", "lu_factor", "lu_solve", "cho_factor", "cho_solve",
        ),
    },
}
ROOT_FINDERS = {
    "scipy.optimize": ("brentq", "brenth", "ridder", "bisect", "toms748", "newton", "root_scalar"),
}


def computed_flops(routine: str, args, kwargs) -> float:
    """Textbook operation count of a dense LAPACK call, from its matrix size.

    Symmetric eigenvalues 4/3 n^3 (9 n^3 with vectors), general 10 n^3
    (25 n^3 with vectors), LU solve 2/3 n^3 + 2 n^2 per right-hand side,
    inverse 2 n^3, least squares / pseudo-inverse 2 m n^2; complex x4.
    """
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) != 2:
        return 0.0
    m, n = shape
    values_only = routine in ("eigvals", "eigvalsh") or kwargs.get("eigvals_only", False)
    if routine in ("eigh", "eigvalsh"):
        flops = (4.0 / 3.0 if values_only else 9.0) * n**3
    elif routine in ("eig", "eigvals"):
        flops = (10.0 if values_only else 25.0) * n**3
    elif routine == "solve":
        b = args[1] if len(args) > 1 else kwargs.get("b")
        b_shape = getattr(b, "shape", ())
        nrhs = b_shape[1] if len(b_shape) == 2 else 1
        flops = 2.0 / 3.0 * n**3 + 2.0 * n**2 * nrhs
    elif routine == "inv":
        flops = 2.0 * n**3
    elif routine in ("lstsq", "pinv"):
        flops = 2.0 * max(m, n) * min(m, n) ** 2
    else:
        return 0.0
    return flops * (4.0 if getattr(a, "dtype", None) is not None and a.dtype.kind == "c" else 1.0)


class Tracer:
    """Span recorder; ``install`` rebinds, ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans = []  # dicts, appended when a span ends
        self.counters = Counter()  # (owner layer, counter name) -> value
        self._stack = []  # open spans: [id, layer, t0, child_time]
        self._layer_depth = Counter()
        self._op = None
        self._next_id = 0
        self._restore = []  # (namespace, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _owner(self):
        for frame in reversed(self._stack):
            if frame[1] in LAYERS:
                return frame[1]
        return "bench"

    def _enter(self, layer):
        self._next_id += 1
        self._layer_depth[layer] += 1
        self._stack.append([self._next_id, layer, perf_counter(), 0.0])

    def _exit(self, name, kind, **extra):
        t1 = perf_counter()
        sid, layer, t0, child_time = self._stack.pop()
        self._layer_depth[layer] -= 1
        duration = t1 - t0
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append(
            dict(
                op=self._op, id=sid, parent=self._stack[-1][0] if self._stack else None,
                layer=layer, name=name, kind=kind, start=t0, end=t1,
                self=duration - child_time, outer=self._layer_depth[layer] == 0, **extra,
            )
        )

    @contextlib.contextmanager
    def op(self, op_id, name):
        """The root span of one op; spans are recorded only inside it."""
        self._op = op_id
        self._enter("op")
        try:
            yield
        finally:
            self._exit(name, "op")
            self._op = None

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, fn, layer):
        post = _POST_HOOKS.get((layer, fn.__name__))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(fn.__name__, "py")
            if post is not None:
                post(self.counters, result)
            return result

        return wrapper

    def _wrap_library(self, fn, family, qualname):
        routine = qualname.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None or self._stack[-1][1] == "lib":
                return fn(*args, **kwargs)
            owner = self._owner()
            flops = computed_flops(routine, args, kwargs)
            self._enter("lib")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(qualname, "lib", owner=owner, family=family, flop=flops)

        return wrapper

    def _wrap_root_finder(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if self._op is None:
                return fn(f, *args, **kwargs)
            owner = self._owner()
            counters[owner, "root.calls"] += 1

            def objective(*a, **k):
                counters[owner, "root.fevals"] += 1
                return f(*a, **k)

            return fn(objective, *args, **kwargs)

        return wrapper

    def _wrap_write(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(path, data, *args, **kwargs):
            if self._op is not None:
                size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
                counters[self._owner(), "bytes_written"] += size
            return fn(path, data, *args, **kwargs)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _rebind(self, namespace, attribute, replacement):
        self._restore.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, replacement)

    def install(self):
        """Wrap every public layer function and library entry point, everywhere bound."""
        originals = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"trihalo.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    originals[id(obj)] = self._wrap_function(obj, layer)
        for family, modules in LIBRARY.items():
            for module_name, names in modules.items():
                module = importlib.import_module(module_name)
                for name in names:
                    fn = getattr(module, name, None)
                    if fn is not None and id(fn) not in originals:
                        originals[id(fn)] = self._wrap_library(fn, family, f"{module_name}.{name}")
                        self._rebind(module, name, originals[id(fn)])
        for module_name, names in ROOT_FINDERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap_root_finder(fn)
                self._rebind(module, name, originals[id(fn)])
        trihalo_modules = [
            m for n, m in list(sys.modules.items()) if n == "trihalo" or n.startswith("trihalo.")
        ]
        for module in trihalo_modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in originals and not name.startswith("__"):
                    self._rebind(module, name, originals[id(obj)])
        for name in ("write_text", "write_bytes"):
            self._rebind(pathlib.Path, name, self._wrap_write(getattr(pathlib.Path, name)))

    def uninstall(self):
        while self._restore:
            namespace, attribute, original = self._restore.pop()
            setattr(namespace, attribute, original)

    def write(self, path):
        """Spans and counters as JSON lines, written once at the end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (owner, name), value in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": f"{owner}.{name}", "value": value}) + "\n")


def _count_levels(counters, spectrum):
    counters["spectrum", "levels"] += len(spectrum.levels)


def _count_crossings(counters, scan):
    counters["spectrum", "crossings"] += len(scan.crossings)


def _count_calibration(counters, config):
    counters["spectrum", "crossings"] += 1  # the calibrated crossing


def _count_fit(counters, result):
    counters["fanofit", "fits"] += 1
    counters["fanofit", "lm_iterations"] += result.iterations
    counters["fanofit", "converged"] += bool(result.converged)


_POST_HOOKS = {
    ("spectrum", "find_trimers"): _count_levels,
    ("spectrum", "threshold_scan"): _count_crossings,
    ("spectrum", "calibrate_range_parameter"): _count_calibration,
    ("fanofit", "fit"): _count_fit,
}


def layer_metrics(tracer: Tracer, untraced_walls, traced_walls) -> dict:
    """Per-op means of every per-layer metric, plus the trace's own ratios."""
    n_ops = len(traced_walls)
    calls, busy, self_time = Counter(), Counter(), Counter()
    lib = defaultdict(Counter)  # (owner, family) -> calls / busy_s / flop
    op_wall = 0.0
    for s in tracer.spans:
        if s["kind"] == "py":
            calls[s["layer"]] += 1
            self_time[s["layer"]] += s["self"]
            if s["outer"]:
                busy[s["layer"]] += s["end"] - s["start"]
            if s["layer"] == "model" and s["name"] == "resolve_config":
                calls["model.resolve_config"] += 1
        elif s["kind"] == "lib":
            agg = lib[s["owner"], s["family"]]
            agg["calls"] += 1
            agg["busy_s"] += s["end"] - s["start"]
            agg["flop"] += s["flop"]
        elif s["kind"] == "op":
            op_wall += s["end"] - s["start"]
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer] / n_ops
        m[f"{layer}.busy_s"] = busy[layer] / n_ops
        m[f"{layer}.self_s"] = self_time[layer] / n_ops
    eigh, solve_sc, solve_fit = lib["spectrum", "eigh"], lib["scattering", "solve"], lib["fanofit", "solve"]
    m["spectrum.eigh.calls"] = eigh["calls"] / n_ops
    m["spectrum.eigh.busy_s"] = eigh["busy_s"] / n_ops
    m["spectrum.eigh.flop_computed"] = eigh["flop"] / n_ops
    m["spectrum.root.calls"] = c["spectrum", "root.calls"] / n_ops
    m["spectrum.root.fevals"] = c["spectrum", "root.fevals"] / n_ops
    m["spectrum.eigen_evals_per_level"] = ratio(eigh["calls"], c["spectrum", "levels"])
    m["spectrum.eigen_evals_per_crossing"] = ratio(eigh["calls"], c["spectrum", "crossings"])
    m["scattering.solve.calls"] = solve_sc["calls"] / n_ops
    m["scattering.solve.busy_s"] = solve_sc["busy_s"] / n_ops
    m["scattering.solve.flop_computed"] = solve_sc["flop"] / n_ops
    m["fanofit.solve.calls"] = solve_fit["calls"] / n_ops
    m["fanofit.lm_iterations"] = c["fanofit", "lm_iterations"] / n_ops
    m["fanofit.converged_ratio"] = ratio(c["fanofit", "converged"], c["fanofit", "fits"])
    m["model.resolve_config.calls"] = calls["model.resolve_config"] / n_ops
    m["io.bytes_written"] = c["io", "bytes_written"] / n_ops
    m["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    accounted = sum(self_time[layer] for layer in LAYERS) + sum(a["busy_s"] for a in lib.values())
    m["trace.accounted_ratio"] = accounted / op_wall
    return m
