"""Span tracing of one chemosteer CLI run, installed from outside the package.

Run as a script, it wraps the traced functions of every chemosteer module
and the scipy tridiagonal kernels they call, runs ``chemosteer.cli.main``
with the remaining arguments, and writes the recorded spans to one file when
the run ends:

    PYTHONPATH=src python3 bench/tracing.py SPANS.npz linear --set time.n_steps=16

Imported, it turns such a span file into per-layer metrics (``layer_metrics``).
Nothing under ``src/`` knows about it: modules import these functions by name
(``from .parabolic import solve_forward``), so the wrapper replaces the name
in every chemosteer module namespace that holds the function.
"""

import functools
import sys
import time

import numpy as np

ROOT_SPAN = "cli.main"

# Span name "<module>.<function>" for each traced function of chemosteer.
TRACED = [
    "cli._write_field_csv", "cli._write_weights_csv", "cli._write_report",
    "carleman.select_params", "carleman.build_weights",
    "grid.build_domain",
    "elliptic.solve_elliptic", "elliptic.drift_from_state",
    "parabolic.solve_forward", "parabolic.solve_adjoint",
    "parabolic.step_matrix_banded",
    "hum.solve_penalized", "hum.gramian_apply", "hum.gramian_quadratic_form",
    "nonlinear.run_nonlinear", "nonlinear.verify_nonlinear",
    "diagnostics.observability_probe", "diagnostics.observability_ratio",
]

# scipy kernels, named after the layer whose matrices they factor and solve.
KERNELS = {"solve_banded": "parabolic.tridiag", "solveh_banded": "elliptic.tridiag"}

SPAN_NAMES = TRACED + list(KERNELS.values())
CLI_WRITERS = [n for n in TRACED if n.startswith("cli.")]
LAYERS = list(dict.fromkeys(n.split(".")[0] for n in SPAN_NAMES))


def _step_matrix_key(face_drift, domain, dt, transpose=False):
    # The transposed step shares the factors of the forward one, so it is
    # not a distinct matrix.
    return np.asarray(face_drift).tobytes(), domain.n_cells, float(dt)


# Functions whose distinct inputs are counted, with the key of one input.
DISTINCT_KEYS = {"parabolic.step_matrix_banded": _step_matrix_key}


class Recorder:
    """Spans (name, parent, start, end) kept in memory until ``save``.

    Spans are kept as flat lists of numbers rather than one object per span,
    so the garbage collector has nothing new to scan while the run grows.
    """

    def __init__(self):
        self.names = []
        self.name_id, self.parent, self.start, self.end = [], [], [], []
        self.stack = [-1]
        self.keys = {}

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        key_fn = DISTINCT_KEYS.get(name)
        keys = self.keys.setdefault(name, set()) if key_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(key_fn(*args, **kwargs))
            i = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 distinct_names=np.array(list(self.keys), dtype=str),
                 distinct_counts=np.array([len(k) for k in self.keys.values()],
                                          dtype=np.int64))


def install(recorder):
    """Wrap every traced function that exists; return the wrapped cli.main.

    A function that a later version of chemosteer no longer has is skipped
    and reports zero calls.
    """
    import scipy.linalg

    import chemosteer.cli

    modules = [m for name, m in list(sys.modules.items())
               if name == "chemosteer" or name.startswith("chemosteer.")]
    originals = []
    for span_name in TRACED:
        module_name, fn_name = span_name.split(".")
        fn = getattr(sys.modules.get("chemosteer." + module_name), fn_name, None)
        if fn is not None:
            originals.append((span_name, fn))
    for kernel, span_name in KERNELS.items():
        originals.append((span_name, getattr(scipy.linalg, kernel)))
    for span_name, fn in originals:
        wrapped = recorder.wrap(span_name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    return recorder.wrap(ROOT_SPAN, chemosteer.cli.main)


def load_spans(path):
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        distinct = dict(zip((str(n) for n in data["distinct_names"]),
                            (int(c) for c in data["distinct_counts"])))
        return {"name": np.array(names, dtype=object)[data["name_id"]],
                "parent": data["parent"], "start": data["start"],
                "end": data["end"], "distinct": distinct}


def self_times(parent, start, end):
    """Each span's duration minus the part of it covered by its child spans."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    covered = np.zeros(start.size)
    reach = {}  # parent -> end of the part already covered
    for i in np.argsort(start, kind="stable"):
        p = int(parent[i])
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, -np.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, -np.inf), hi)
    return (end - start) - covered


def _union(start, end):
    """Disjoint sorted intervals covering the union of [start, end)."""
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    if s.size == 0:
        return s, e
    reach = np.maximum.accumulate(e)
    first = np.flatnonzero(np.r_[True, s[1:] > reach[:-1]])
    last = np.r_[first[1:] - 1, s.size - 1]
    return s[first], reach[last]


def _inside(start, end, outer_start, outer_end):
    """Which intervals lie within one of the disjoint sorted outer intervals."""
    j = np.searchsorted(outer_start, start, side="right") - 1
    ok = j >= 0
    ok[ok] = end[ok] <= outer_end[j[ok]]
    return ok


def layer_metrics(spans, n_cells, n_steps):
    """Per-layer metrics of one traced run as ``{name: (value, unit)}``.

    ``n_cells`` and ``n_steps`` are the workload's grid sizes; every march
    takes ``n_steps`` implicit steps on ``n_cells`` cells.
    """
    name, start, end = spans["name"], spans["start"], spans["end"]
    own = self_times(spans["parent"], start, end)
    dur = end - start
    masks = {n: name == n for n in SPAN_NAMES + [ROOT_SPAN]}
    calls = {n: int(m.sum()) for n, m in masks.items()}
    busy = {n: float(dur[m].sum()) for n, m in masks.items()}
    self_s = {n: float(own[m].sum()) for n, m in masks.items()}

    def count_under(child, *ancestors):
        outer = np.zeros(name.size, dtype=bool)
        for a in ancestors:
            outer |= masks[a]
        us, ue = _union(start[outer], end[outer])
        m = masks[child]
        return int(_inside(start[m], end[m], us, ue).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for n in SPAN_NAMES:
        out[n + ".calls"] = (calls[n], "count")
        out[n + ".busy_s"] = (busy[n], "s")
        out[n + ".self_s"] = (self_s[n], "s")
    for layer in LAYERS:
        in_layer = np.zeros(name.size, dtype=bool)
        for n in SPAN_NAMES:
            if n.startswith(layer + "."):
                in_layer |= masks[n]
        us, ue = _union(start[in_layer], end[in_layer])
        out[layer + ".busy_s"] = (float((ue - us).sum()), "s")
        out[layer + ".self_s"] = (float(own[in_layer].sum()), "s")

    root = busy[ROOT_SPAN]
    out["cli.main.busy_s"] = (root, "s")
    out["cli.write.busy_s"] = (sum(busy[n] for n in CLI_WRITERS), "s")

    marches = calls["parabolic.solve_forward"] + calls["parabolic.solve_adjoint"]
    march_s = busy["parabolic.solve_forward"] + busy["parabolic.solve_adjoint"]
    us_per_step = ratio(march_s, marches * n_steps) * 1e6
    out["parabolic.march.steps"] = (marches * n_steps, "count")
    out["parabolic.march.us_per_step"] = (us_per_step, "us")
    out["parabolic.step.ns_per_cell"] = (us_per_step * 1e3 / n_cells, "ns")
    out["parabolic.assembly.distinct_frac"] = (ratio(
        spans["distinct"].get("parabolic.step_matrix_banded", 0),
        calls["parabolic.step_matrix_banded"]), "frac")

    cg_iters = count_under("hum.gramian_apply", "hum.solve_penalized")
    out["hum.cg_iters"] = (cg_iters, "count")
    out["hum.s_per_cg_iter"] = (ratio(busy["hum.solve_penalized"], cg_iters), "s")
    out["hum.gramian_apply.ms_per_call"] = (ratio(
        busy["hum.gramian_apply"], calls["hum.gramian_apply"]) * 1e3, "ms")

    outer = count_under("hum.solve_penalized", "nonlinear.run_nonlinear")
    out["nonlinear.outer_iters"] = (outer, "count")
    out["nonlinear.s_per_outer_iter"] = (ratio(
        busy["nonlinear.run_nonlinear"] - busy["nonlinear.verify_nonlinear"],
        outer), "s")
    out["nonlinear.verify.sweeps_per_step"] = (ratio(
        count_under("elliptic.solve_elliptic", "nonlinear.verify_nonlinear"),
        n_steps * calls["nonlinear.verify_nonlinear"]), "1/step")

    out["diagnostics.adjoint_marches_per_ratio"] = (ratio(
        count_under("parabolic.solve_adjoint", "diagnostics.observability_ratio"),
        calls["diagnostics.observability_ratio"]), "count")

    out["trace.spans"] = (int(name.size), "count")
    out["trace.coverage"] = (ratio(root - self_s[ROOT_SPAN], root), "frac")
    return out


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    cli_main = install(recorder)
    try:
        return cli_main(cli_argv)
    finally:
        recorder.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
