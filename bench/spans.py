"""Traced mode: spans around fracsphere's public functions, from outside.

install() wraps every public function of the package's modules (and the
public methods of its hand-written classes) so that each call records a
span (name, start, end, parent, attrs) in a Tracer held in memory.  A few
boundaries also record counts on the span that is open when they fire:
rule keys on Gauss-Jacobi builds, Jacobi recurrence sweeps, FFT sizes,
clamp events in the flow right-hand side, the bytes of the verify CSV.
layer_metrics() derives every per-layer metric from the spans alone.

Nothing here changes what the program computes; uninstalling restores
the original functions.
"""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import math
import time

MODULES = ("specfun", "spectrum", "field", "inequality", "flow", "euclid", "cli")

DEFICIT_KINDS = ("interpolation", "sobolev", "hls", "poincare", "logsob",
                 "logsob_critical", "s0_subcritical", "improved")


class Tracer:
    """Spans in call order.  A span is [name, start, end, parent, attrs],
    parent being the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self._open = []

    def enter(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def leave(self, idx, end, attrs):
        self.spans[idx][2] = end
        self.spans[idx][4].update(attrs)
        self._open.pop()

    def count(self, key, n=1):
        """Add n to a counter on the innermost open span."""
        if self._open:
            attrs = self.spans[self._open[-1]][4]
            attrs[key] = attrs.get(key, 0) + n

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# per-call attributes and names


def _deficit_name(args, kwargs):
    kind = kwargs.get("kind", args[2] if len(args) > 2 else None)
    return f"inequality.deficit.{kind}"


def _rule_key(args, kwargs, result):
    return {"rule": [int(args[0]), float(args[1]), float(args[2])]}


def _dense_bytes(args, kwargs, result):
    ops = args[0]
    return {"dense_bytes": sum(v.nbytes for v in vars(ops).values()
                               if hasattr(v, "nbytes"))}


def _csv_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _clamp_fired(args, kwargs, result):
    ops, u = args[0], args[1]
    return {"clamp_fired": int((u < ops.cfg.clamp_floor).any())}


NAMES = {"inequality.deficit": _deficit_name,
         "flow.FlowOps.__init__": lambda a, k: "flow.FlowOps.init"}
ATTRS = {"specfun.gauss_jacobi": _rule_key,
         "flow.FlowOps.__init__": _dense_bytes,
         "flow.FlowOps.rhs": _clamp_fired,
         "inequality.reports_csv": _csv_bytes}


def _wrap(tracer, qualname, fn):
    namer = NAMES.get(qualname)
    attrs = ATTRS.get(qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(namer(args, kwargs) if namer else qualname)
        result, done = None, False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            # the clock stops before the attributes are computed
            end = time.perf_counter()
            tracer.leave(idx, end, attrs(args, kwargs, result) if attrs and done else {})
    return wrapper


def _counting(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)
    return wrapper


class _FFTCounter:
    """Stands in for numpy.fft inside euclid: each transform is a span
    carrying its length and 5 N log2 N flops (half that for real input)."""

    def __init__(self, tracer, fft):
        self._fft = fft
        for name, share in (("fft", 1.0), ("ifft", 1.0), ("rfft", 0.5)):
            setattr(self, name, self._span(tracer, getattr(fft, name), share))

    @staticmethod
    def _span(tracer, fn, share):
        def wrapper(a, *args, **kwargs):
            idx = tracer.enter("euclid.fft")
            try:
                return fn(a, *args, **kwargs)
            finally:
                end = time.perf_counter()
                n = len(a)
                tracer.leave(idx, end, {"points": n, "flops": share * 5.0 * n
                                        * math.log2(max(n, 2))})
        return wrapper

    def __getattr__(self, name):
        return getattr(self._fft, name)


class _NumpyProxy:
    """numpy with its fft namespace replaced."""

    def __init__(self, np, fft):
        self.fft = fft
        self._np = np

    def __getattr__(self, name):
        return getattr(self._np, name)


@contextlib.contextmanager
def install(tracer):
    """Wrap fracsphere's public functions for the duration of the block."""
    pkg = importlib.import_module("fracsphere")
    mods = {m: importlib.import_module(f"fracsphere.{m}") for m in MODULES}
    wrapped = {}          # id(original) -> wrapper
    undo = []             # (owner, attribute, original)

    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = _wrap(tracer, f"{short}.{name}", obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in list(vars(obj).items()):
                    public = not meth.startswith("_") or (
                        meth == "__init__" and not dataclasses.is_dataclass(obj))
                    if public and inspect.isfunction(fn):
                        undo.append((obj, meth, fn))
                        setattr(obj, meth, _wrap(tracer, f"{short}.{name}.{meth}", fn))

    # every module-level reference to a wrapped function, wherever imported
    for mod in [pkg, *mods.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                undo.append((mod, name, obj))
                setattr(mod, name, wrapped[id(obj)])

    specfun, euclid = mods["specfun"], mods["euclid"]
    undo.append((specfun, "_jacobi_eval", specfun._jacobi_eval))
    specfun._jacobi_eval = _counting(tracer, "sweeps", specfun._jacobi_eval)
    undo.append((euclid, "np", euclid.np))
    euclid.np = _NumpyProxy(euclid.np, _FFTCounter(tracer, euclid.np.fft))
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _self_times(spans):
    """Self time of each span: its duration minus its children's."""
    out = [sp[2] - sp[1] for sp in spans]
    for sp in spans:
        if sp[3] >= 0:
            out[sp[3]] -= sp[2] - sp[1]
    return out


# (metric, span name, statistic); statistics: calls, self_s, total_s, or
# the sum of a span attribute
SPAN_METRICS = [
    ("specfun.gauss_jacobi.calls", "specfun.gauss_jacobi", "calls"),
    ("specfun.gauss_jacobi.self_s", "specfun.gauss_jacobi", "self_s"),
    ("specfun.gegenbauer_all.calls", "specfun.gegenbauer_all", "calls"),
    ("specfun.gegenbauer_all.self_s", "specfun.gegenbauer_all", "self_s"),
    ("spectrum.operator_eigenvalue.calls", "spectrum.operator_eigenvalue", "calls"),
    ("spectrum.operator_eigenvalue.self_s", "spectrum.operator_eigenvalue", "self_s"),
    ("spectrum.derive_params.calls", "spectrum.derive_params", "calls"),
    ("spectrum.derive_params.self_s", "spectrum.derive_params", "self_s"),
    ("field.zonal_basis.calls", "field.zonal_basis", "calls"),
    ("field.zonal_basis.self_s", "field.zonal_basis", "self_s"),
    ("field.synthesize.self_s", "field.synthesize", "self_s"),
    ("field.analyze.self_s", "field.analyze", "self_s"),
    ("field.lq_norm.calls", "field.lq_norm", "calls"),
    ("field.lq_norm.self_s", "field.lq_norm", "self_s"),
    ("field.entropy2.self_s", "field.entropy2", "self_s"),
    *[(f"inequality.deficit.{k}.{stat}", f"inequality.deficit.{k}", stat)
      for k in DEFICIT_KINDS for stat in ("calls", "self_s")],
    ("inequality.deficit_square.calls", "inequality.deficit_square", "calls"),
    ("inequality.deficit_square.self_s", "inequality.deficit_square", "self_s"),
    ("flow.FlowOps.init_s", "flow.FlowOps.init", "total_s"),
    ("flow.dense_bytes", "flow.FlowOps.init", "dense_bytes"),
    ("flow.rhs.calls", "flow.FlowOps.rhs", "calls"),
    ("flow.rhs.self_s", "flow.FlowOps.rhs", "self_s"),
    ("flow.rk4_step.self_s", "flow.rk4_step", "self_s"),
    ("flow.entropy.self_s", "flow.FlowOps.entropy", "self_s"),
    ("flow.clamp_fired", "flow.FlowOps.rhs", "clamp_fired"),
    ("euclid.eigen_residual.calls", "euclid.eigen_residual", "calls"),
    ("euclid.eigen_residual.self_s", "euclid.eigen_residual", "self_s"),
    ("euclid.thm16_deficit.calls", "euclid.thm16_deficit", "calls"),
    ("euclid.thm16_deficit.self_s", "euclid.thm16_deficit", "self_s"),
    ("euclid.fft.calls", "euclid.fft", "calls"),
    ("euclid.fft.points", "euclid.fft", "points"),
    ("euclid.fft.flops_computed", "euclid.fft", "flops"),
    ("cli.reports_csv.self_s", "inequality.reports_csv", "self_s"),
    ("cli.report_bytes", "inequality.reports_csv", "bytes"),
]

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "dense_bytes": "bytes",
         "clamp_fired": "count", "points": "count", "flops": "flop",
         "bytes": "bytes"}

# every per-layer metric but trace.overhead_s, which needs untraced runs
LAYER_UNITS = {**{metric: UNITS[stat] for metric, _, stat in SPAN_METRICS},
               "specfun.gauss_jacobi.distinct": "count",
               "specfun.jacobi_sweeps_per_build": "count"}


def layer_metrics(spans):
    """{metric: value} for every metric of LAYER_UNITS."""
    selfs = _self_times(spans)
    by_name = {}
    for sp, st in zip(spans, selfs):
        by_name.setdefault(sp[0], []).append((sp, st))
    out = {}
    for metric, span, stat in SPAN_METRICS:
        rows = by_name.get(span, [])
        if stat == "calls":
            val = len(rows)
        elif stat == "self_s":
            val = sum(st for _, st in rows)
        elif stat == "total_s":
            val = sum(sp[2] - sp[1] for sp, _ in rows)
        else:
            val = sum(sp[4].get(stat, 0) for sp, _ in rows)
        out[metric] = val
    builds = by_name.get("specfun.gauss_jacobi", [])
    sweeps = sum(sp[4].get("sweeps", 0) for sp, _ in builds)
    out["specfun.gauss_jacobi.distinct"] = len({tuple(sp[4]["rule"]) for sp, _ in builds})
    out["specfun.jacobi_sweeps_per_build"] = sweeps / len(builds) if builds else 0.0
    return out
