"""Benchmark of the chemosteer CLI on named workloads.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload nonlinear-coupled --seed 1 --seconds 60 --trace 0

Closed loop with one client: each operation is one run of the real CLI as a
child process (``python -m chemosteer.cli ...`` with ``PYTHONPATH=src``), the
next one starts after the previous one has exited, and every run writes into
a fresh directory passed through ``CHEMOSTEER_OUT``.  Every run's outputs
are checked.

``--trace 0`` measures the end-to-end metrics: CLI wall time and set-up time
(``--version``), in seconds and in reference seconds, which do not depend on
the host's load (``bench/reference.py``); peak resident memory; and failed
runs.  ``--trace 1`` alternates untraced runs with runs under
``bench/tracing.py`` and reports the per-layer metrics of the traced runs
with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones listed in ``BENCHMARK.json``.  ``--smoke`` shrinks every
workload to a tiny grid, for the benchmark's own tests.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
from reference import NOMINAL_SPEED, Reference

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_cells: int
    n_steps: int
    options: tuple = ()
    amplitude: float = None  # set: the run gets a seeded initial profile
    horizons: tuple = ()
    samples: int = 0


# Why each workload exists, and why BENCHMARK.json leaves out linear-io, is in
# bench/README.md.
WORKLOADS = {w.name: w for w in [
    Workload("linear-io", "linear", 400, 800, amplitude=0.01),
    # The stopping tolerance sits between the increments of outer iterations
    # 6 and 7 of every seeded profile, so each seed does the same work.
    Workload("nonlinear-coupled", "nonlinear", 200, 400,
             options=("physics.chi=10", "fixed_point.tol=3.5e-6"),
             amplitude=0.5),
    Workload("observability-probe", "observability", 200, 400,
             horizons=(0.5, 1.0, 2.0), samples=20),
]}
SMOKE_SIZE = 16
PROFILE_FILE = "u0.txt"
# Relative size of the seeded modes k = 2..4 against the cosine mode k = 1.
PROFILE_SPREAD = 0.05
LINEAR_REL_TERMINAL = 1e-3    # terminal norm of the controlled linear state
NONLINEAR_REL_TERMINAL = 0.05  # success rule of nonlinear.threshold_sweep
CLOSED_FORM_RTOL = 1e-10
MIN_SAMPLES = 3


class BenchError(Exception):
    """The benchmark cannot run here."""


def low_mode_profile(seed, n_cells):
    """Seeded cosine profile with modes k <= 4 on the cell centers, in [0, 1]."""
    rng = np.random.default_rng(seed)
    x = (np.arange(n_cells) + 0.5) / n_cells
    k = np.arange(2, 5)
    p = np.cos(np.pi * x) + PROFILE_SPREAD * (
        np.cos(np.pi * np.outer(x, k)) @ rng.uniform(-1.0, 1.0, k.size))
    return (p - p.min()) / (p.max() - p.min())


def cli_argv(w, seed, size):
    """Arguments of ``chemosteer`` for one run of workload ``w``."""
    n_cells, n_steps = size or (w.n_cells, w.n_steps)
    sets = [f"domain.n_cells={n_cells}", f"time.n_steps={n_steps}", *w.options]
    if w.amplitude is not None:
        sets += [f"initial_data.amplitude={w.amplitude}",
                 "initial_data.shape=file", f"initial_data.file_path={PROFILE_FILE}"]
    if w.samples:
        sets.append(f"seed={seed}")
    argv = [w.command]
    for s in sets:
        argv += ["--set", s]
    if w.samples:
        argv += ["--samples", str(w.samples),
                 "--t-list", *(str(t) for t in w.horizons)]
    return argv


def count_lines(path):
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def check_outputs(w, out, u0, n_cells, n_steps):
    """Problems found in one run's outputs, and its key outputs."""
    reports = json.loads((out / "report.json").read_text())["reports"]
    problems = []
    if w.command == "observability":
        per_t = reports["observability"]
        keys = {"max_ratio": [r["max_ratio"] for r in per_t]}
        if [r["T"] for r in per_t] != list(w.horizons):
            problems.append("horizons differ from --t-list")
        for r in per_t:
            c = r["constant_mode"]
            rel = abs(c["computed_ratio"] - c["closed_form_ratio"]) / c["closed_form_ratio"]
            if not (r["n_samples"] == w.samples and rel <= CLOSED_FORM_RTOL):
                problems.append(f"T={r['T']}: constant mode off by {rel:.3g}")
        return problems, keys

    u0_l2 = math.sqrt(np.sum(u0 * u0) / n_cells)
    hum = reports["hum"]
    keys = {"terminal_norm": hum["terminal_norm"], "cg_iters": hum["cg_iters"]}
    if w.command == "linear":
        if not hum["cg_converged"]:
            problems.append("CG did not converge")
        if not hum["terminal_norm"] <= LINEAR_REL_TERMINAL * u0_l2:
            problems.append("terminal norm too large")
        rows = {"u.csv": (n_steps + 1) * n_cells + 1, "f.csv": (n_steps + 1) * n_cells + 1,
                "v.csv": (n_steps + 1) * n_cells + 1, "weights.csv": n_steps * n_cells + 1}
        for name, want in rows.items():
            got = count_lines(out / name)
            if got != want:
                problems.append(f"{name} has {got} rows, expected {want}")
    else:
        fp = reports["fixed_point"]
        keys["outer_iters"] = fp["iterations"]
        keys["verification_terminal_l2"] = fp["verification_terminal_l2"]
        if not (fp["converged"] and fp["in_K"]):
            problems.append("fixed point did not converge inside K")
        if not fp["verification_terminal_l2"] <= NONLINEAR_REL_TERMINAL * u0_l2:
            problems.append("verification terminal norm too large")
    return problems, keys


class Bench:
    """One benchmark run of one workload in a scratch directory of the checkout."""

    def __init__(self, root, w, seed, smoke):
        self.w = w
        self.size = (SMOKE_SIZE, SMOKE_SIZE) if smoke else None
        self.min_samples = 1 if smoke else MIN_SAMPLES
        self.n_cells, self.n_steps = self.size or (w.n_cells, w.n_steps)
        self.argv = cli_argv(w, seed, self.size)
        work = root / ".bench_work"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=w.name + "-", dir=work))
        self.u0 = None
        if w.amplitude is not None:
            profile = low_mode_profile(seed, self.n_cells)
            np.savetxt(self.dir / PROFILE_FILE, profile, fmt="%.17g")
            self.u0 = w.amplitude * profile
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.key_outputs = []
        self.reference = None
        try:
            self.reference = Reference(self.dir)
        except (OSError, RuntimeError) as exc:
            self.close()
            raise BenchError(str(exc)) from exc

    def close(self):
        if self.reference is not None:
            self.reference.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass

    def spawn(self, args, out=None):
        """Run one child to its exit.

        Returns its wall time in seconds and in reference seconds, its peak
        RSS in MB and its exit code.
        """
        env = self.env
        if out is not None:
            env = dict(env, CHEMOSTEER_OUT=str(out))
        with open(self.dir / "stderr.txt", "wb") as err:
            ref = self.reference.start()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.dir, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
            speed = self.reference.stop(ref)
        if speed is None:
            raise BenchError("the reference kernel made no progress beside the CLI")
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, wall * speed / NOMINAL_SPEED, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_time(self):
        wall, ref_wall, _, code = self.spawn(["-m", "chemosteer.cli", "--version"])
        if code != 0:
            raise BenchError("chemosteer --version failed: "
                             + (self.dir / "stderr.txt").read_text()[-500:])
        return wall, ref_wall

    def operation(self, spans=None):
        """One checked CLI run; traced when ``spans`` names a span file."""
        self.attempted += 1
        out = self.dir / f"out-{self.attempted}"
        out.mkdir()
        prefix = [str(HERE / "tracing.py"), str(spans)] if spans else ["-m", "chemosteer.cli"]
        wall, ref_wall, rss, code = self.spawn(prefix + self.argv, out)
        problems, keys, written = [], {}, 0
        try:
            if code != 0:
                stderr = (self.dir / "stderr.txt").read_text(errors="replace")
                problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
            else:
                problems, keys = check_outputs(self.w, out, self.u0,
                                               self.n_cells, self.n_steps)
                written = sum(p.stat().st_size for p in out.iterdir())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable outputs: {exc!r}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.key_outputs.append(keys)
        self.problems += [f"run {self.attempted}: {p}" for p in problems]
        self.failed += bool(problems)
        return wall, ref_wall, rss, written


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(name, samples, unit):
    text = f"{name:<12} median {statistics.median(samples):.6g} {unit}  (n={len(samples)}"
    tail = tail_percentile(samples)
    if tail:
        text += f", p{tail[0]:.0f} {tail[1]:.6g} {unit}"
    return text + ")  samples " + " ".join(f"{v:.4g}" for v in samples)


def loop(seconds, min_calls, body):
    """Call ``body`` until the next call would end after ``seconds``."""
    t0 = time.perf_counter()
    n = 0
    while True:
        t = time.perf_counter()
        body()
        n += 1
        now = time.perf_counter()
        if n >= min_calls and now + (now - t) > t0 + seconds:
            return


def print_fail_frac(bench):
    print(f"fail_frac    {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} runs)")


def measure_end_to_end(bench, seconds):
    setup, ref_setup, wall, ref_wall, rss = [], [], [], [], []

    def body():
        s, ref_s = bench.setup_time()
        setup.append(s)
        ref_setup.append(ref_s)
        w, ref_w, r, _ = bench.operation()
        wall.append(w)
        ref_wall.append(ref_w)
        rss.append(r)

    bench.setup_time()  # warm-up: bytecode cache and page cache
    loop(seconds, bench.min_samples, body)
    print(describe("wall_s", wall, "s"))
    print(describe("wall_ref_s", ref_wall, "s") + " reference seconds")
    print(describe("setup_raw_s", setup, "s"))
    print(describe("setup_s", ref_setup, "s") + " reference seconds")
    print(describe("peak_rss_mb", rss, "MB"))
    print_fail_frac(bench)
    return {"wall_s": (statistics.median(wall), "s"),
            "wall_ref_s": (statistics.median(ref_wall), "s"),
            "setup_s": (statistics.median(ref_setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB")}


def measure_layers(bench, seconds):
    plain, traced, layers, written = [], [], [], []
    spans = bench.dir / "spans.npz"

    def body():
        for traced_run in (False, True) if len(plain) % 2 == 0 else (True, False):
            spans.unlink(missing_ok=True)
            _, w, _, nbytes = bench.operation(spans if traced_run else None)
            if not traced_run:
                plain.append(w)
                continue
            traced.append(w)
            written.append(nbytes)
            if spans.is_file():
                layers.append(tracing.layer_metrics(tracing.load_spans(spans),
                                                    bench.n_cells, bench.n_steps))

    bench.setup_time()
    loop(seconds, bench.min_samples, body)
    if not layers:
        raise BenchError("no traced run wrote its spans")
    metrics = {}
    for name, (_, unit) in layers[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
    metrics["cli.write.bytes"] = (statistics.median(written), "B")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    print(describe("wall_ref_s", plain, "s") + " untraced, reference seconds")
    print(describe("wall_ref_s", traced, "s") + " traced, reference seconds")
    print_fail_frac(bench)
    print("per-layer breakdown (median of the traced runs):")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<44} {value:.6g} {unit}")
    return metrics


def environment(root, argv):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == root:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", str(root), "status", "--porcelain"],
                                        capture_output=True, text=True, timeout=30).stdout)
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": commit, "git_dirty": dirty,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "OMP_DYNAMIC"},
        "cli_argv": ["python", "-m", "chemosteer.cli", *argv],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run every workload on a {SMOKE_SIZE}x{SMOKE_SIZE} grid")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "chemosteer" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the root of a chemosteer checkout "
              "(src/chemosteer and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # A caller may stop a run with SIGTERM; unwind so the child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    w = WORKLOADS[args.workload]
    try:
        bench = Bench(root, w, args.seed % 2**32, args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(f"workload {w.name}, seed {args.seed}, closed loop with one client")
        print("env: " + json.dumps(environment(root, bench.argv), sort_keys=True))
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(bench, args.seconds)
        result = {}
        for m in wanted:
            value, unit = metrics[m["name"]]
            if unit != m["unit"]:
                raise BenchError(f"{m['name']} is measured in {unit}, not {m['unit']}")
            result[m["name"]] = {"value": value, "unit": unit}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    print("outputs: " + json.dumps(bench.key_outputs))
    for p in bench.problems:
        print(f"check failed: {p}")
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
