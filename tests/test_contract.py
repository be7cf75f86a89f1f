"""The exit-code contract of the CLI, written once: CONTRACT.

A row is one run: argv, exit code (None: any of 0, 2 and 3), a regex its stderr
matches from the start, and optionally a check of its output directory and the
attributes of cli it patches.  In an argv {n8}, {n16} and {n24} are grid sizes,
{tmp} a directory holding garbled.txt and list.json, and a leading NAME=VALUE sets
an environment variable (NAME= unsets it).  A row runs in {tmp} and, unless it
unsets CHEMOSTEER_OUT, writes into {tmp}/out.  Every run also keeps the contract:
no traceback; exit 0 writes one report.json and prints nothing but documented
one-line warnings; exits 2 and 3 print one error line, after nothing but a usage
error's usage; exit 2 comes before any solve.  The rows of NAMED run under the ids
of the tests of tests/test_cli.py that checked them before this table, and the
rows of FRESH run again in a fresh interpreter, for what only a real process
shows: how a warning prints, also under `python -W error`, and `python -O`.
"""

import csv
import json
import re
from collections import namedtuple
from dataclasses import fields, is_dataclass

import pytest

from chemosteer import cli
from chemosteer.carleman import UNDERFLOW_WARNING
from chemosteer.cli import (APPROXIMATE_CONTROL_WARNING, EXIT_CHECK_FAILED, EXIT_INVALID,
                            EXIT_NO_CONVERGENCE, EXIT_OK, main)
from chemosteer.config import RunConfig
from chemosteer.grid import HORIZON_RANGE
from chemosteer.parabolic import SolverError

from conftest import read_report, run_fresh

Row = namedtuple("Row", "argv code err check patch", defaults=(None, None))
SIZES = {f"n{n}": f"--set domain.n_cells={n} --set time.n_steps={n}" for n in (8, 16, 24)}
UNDERFLOWS = re.escape(f"warning: {UNDERFLOW_WARNING}\n")
APPROXIMATE = "warning: " + re.sub(r"\\\{\w+:[^}]*\}", "[^ ]+", re.escape(
    APPROXIMATE_CONTROL_WARNING)) + "\n"
WARNINGS = (UNDERFLOWS, APPROXIMATE)  # every documented warning line, as a pattern
USAGE, ERROR, CLEAN = "usage: chemosteer ", "error: ", r"\Z"  # CLEAN: an empty stderr
# spied on in every run: an exit 2 calls none of them
SOLVERS = ("solve_penalized", "run_nonlinear", "observability_probe",
           "threshold_sweep", "dense_kkt_deviation")
# one argv of each command that takes a config
CONFIG_COMMANDS = ("linear", "nonlinear", "observability --samples 2",
                   "sweep-eps --eps-list 1e-2", "sweep-T --t-list 1 --amplitudes 1",
                   "oracle-check")


def leaves(cls, prefix=""):
    """(dotted key, field) of every leaf of a config dataclass."""
    for f in fields(cls):
        if is_dataclass(f.type):
            yield from leaves(f.type, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


# The extremes of each field type, as --set values; a large int would allocate.
EXTREMES = {int: ("0", "-1", "1.5", '"x"', "true", "null"),
            float: ("0", "-1", "5e-324", "1e-300", "1e300", "-1e300", '"x"', "true", "null"),
            str: ('""', "0", "null", '"bogus"'),
            bool: ("0", '"x"', "null")}
FUZZED = {key: f for key, f in leaves(RunConfig) if f.type in EXTREMES}
FUZZ = {f"{command.split()[0]}-{key}={value}": (command, key, value)
        for command in CONFIG_COMMANDS for key in FUZZED for value in EXTREMES[FUZZED[key].type]}


def fuzzed(command, key, value):
    """Exit 2 naming the key for a value of the wrong type, as config._checked
    decides, else any defined exit.  An output.dir is where the run writes."""
    f, v = FUZZED[key], json.loads(value)
    wrong = f.default is not None if v is None else not (
        type(v) is f.type or f.type is float and type(v) is int)
    env = "CHEMOSTEER_OUT= " if key == "output.dir" else ""
    return Row(f"{env}{command} {{n8}} --set {key}={value}", EXIT_INVALID if wrong else None,
               f"error: {re.escape(key)} must be of type " if wrong else "")


def rows(code, err, argvs, check=None):
    return {name: Row(argv, code, err, check) for name, argv in argvs.items()}


def raising(exc):
    def solver(*args, **kwargs):
        raise exc
    return solver


def reports(out):
    return read_report(out)["reports"]


def controlled(out):
    hum = reports(out)["hum"]
    return hum["cg_converged"] and hum["control_sup"] > 0.0


def one_cell_broke_down(out):
    """a* of each horizon, in threshold_sweep.csv, is its first amplitude: the second
    broke the weights down, and report.json names the cause."""
    with open(out / "threshold_sweep.csv") as fh:
        a_star = [row["a_star"] for row in csv.DictReader(fh)]
    return a_star == ["0.01", "0.01"] and all(
        not row["cells"][-1]["success"] and "Carleman weight table" in row["cells"][-1]["error"]
        for row in reports(out)["threshold_sweep"]["rows"])


def underflowed(out):
    return reports(out)["carleman"]["raw_weight_underflows"] is True


LO, HI = HORIZON_RANGE
# one fixed-point iteration whose controlled state overflows its chemoattractant
FINAL_V_OVERFLOW = ("--set physics.chi=0 --set physics.gamma=10 --set physics.delta=1e308 "
                    "--set initial_data.shape=bump --set initial_data.amplitude=2 "
                    "--set fixed_point.max_iters=1")
# A row with the id of a fuzzed one replaces it.
CONTRACT = {
    **{name: fuzzed(*case) for name, case in FUZZ.items()},
    # usage errors, among them option values out of range; horizons outside
    # grid.HORIZON_RANGE under- or overflow the weights
    **rows(EXIT_INVALID, USAGE, {
        "no-command": "", "unknown-command": "bogus", "option-before-command": "--samples 3",
        "unknown-option": "linear --bogus", "samples-not-a-number": "observability --samples x",
        "missing-option": "sweep-eps", "selftest-takes-no-config": "selftest --set seed=1",
        "sweep-T-amplitude-0": "sweep-T --t-list 1 --amplitudes 0 {n8}",
        "sweep-T-horizon-0": "sweep-T --t-list 0 --amplitudes 1 {n8}",
        "sweep-T-horizon-inf": "sweep-T --t-list inf --amplitudes 1 {n8}",
        "sweep-T-horizon-huge": "sweep-T --t-list 1e300 --amplitudes 1 {n8}",
        "sweep-T-horizon-above-range": "sweep-T --t-list 1.01e6 --amplitudes 1 {n8}",
        "sweep-eps-nan": "sweep-eps --eps-list nan {n8}",
        "observability-samples-0": "observability --samples 0 {n8}",
        "observability-horizon-0": "observability --samples 2 --t-list 0 {n8}",
        "observability-horizon-negative": "observability --samples 2 --t-list -1 {n8}",
        "observability-horizon-nan": "observability --samples 2 --t-list nan {n8}",
        "observability-horizon-tiny": "observability --t-list 1e-300 {n8}",
        "observability-horizon-below-range": "observability --t-list 9.9e-7 {n8}"}),
    # invalid inputs; most once ended in a traceback and exit 1
    **rows(EXIT_INVALID, "error: cannot write output: ", {
        f"unwritable-{command.split()[0]}": f"CHEMOSTEER_OUT=/dev/null/out {command} {{n8}}"
        for command in CONFIG_COMMANDS}),
    **rows(EXIT_INVALID, ERROR, {
        "epsilon-nan": "linear {n8} --set hum.epsilon=NaN",
        "amplitude-nan": "linear {n8} --set initial_data.amplitude=NaN",
        "horizon-nan": "linear {n8} --set time.T=NaN",
        "fractional-iteration-cap": "linear {n8} --set hum.cg_max_iters=2.5",
        "seed-not-a-number": "linear {n8} --set seed=abc",
        "override-without-value": "linear --set nonsense",
        "override-through-a-value": "linear {n8} --set seed=1 --set seed.x=2",
        "oracle-check-large-grid": "oracle-check",
        "missing-config-file": "linear {n8} --config {tmp}/missing.json",
        "garbled-config-file": "linear {n8} --config {tmp}/garbled.txt",
        "config-not-an-object": "linear {n8} --config {tmp}/list.json --set seed=1",
        "horizon-tiny": "linear --set time.T=1e-300 {n8}",
        "horizon-huge": "linear --set time.T=1e300 {n8}",
        "horizon-below-range": "linear {n8} --set time.T=9.9e-7",
        "horizon-above-range": "linear {n8} --set time.T=1.01e6",
        # the elliptic operator is not definite: its factorization fails
        "gamma-singular": "linear --set physics.gamma=1e-300 {n16}",
        # a negative seed reached numpy's generator
        "negative-seed-observability": "observability --samples 2 {n16} --set seed=-1",
        "negative-seed-oracle-check": "oracle-check {n8} --set seed=-1"}),
    # a grid past config.MAX_GRID_VALUES once reached numpy, which asked for 745 GiB
    **rows(EXIT_INVALID, re.escape("error: domain.n_cells * (time.n_steps + 1) must be at most "), {
        "grid-too-large": "linear --set domain.n_cells=100000000000 --set time.n_steps=8",
        "grid-too-many-steps": "linear --set domain.n_cells=8 --set time.n_steps=100000000000"}),
    # --samples once drew 3e6 samples for 21.6 s before it ran out of memory; the
    # patched probe makes sure the row allocates no samples even without the bound
    "observability-too-many-samples": Row(
        "observability --samples 3000000 --set domain.n_cells=100", EXIT_INVALID,
        re.escape("error: --samples times domain.n_cells must be at most 16777216, got 300000000"),
        patch={"observability_probe": raising(MemoryError("the samples were drawn"))}),
    # an empty output.dir once failed in os.makedirs, naming no key
    **rows(EXIT_INVALID, "error: output\\.dir must not be empty", {
        f"{command.split()[0]}-output.dir=\"\"": f"CHEMOSTEER_OUT= {command} {{n8}} "
        "--set output.dir=\"\"" for command in CONFIG_COMMANDS}),
    **rows(EXIT_INVALID, "error: cannot read initial data file", {
        f"{command.split()[0]}-{name}-data-file": f"{command} {{n8}} --set initial_data.shape="
        f"file --set initial_data.file_path={{tmp}}/{name}.txt" for command, name in (
            ("linear", "missing"), ("linear", "garbled"),
            ("sweep-T --t-list 1 --amplitudes 1e-3", "missing"))}),
    # a setting out of its range: the error names the key
    **{f"{command.split()[0]}-{setting}": Row(f"{command} {{n8}} --set {setting}", EXIT_INVALID,
                                              f"error: {re.escape(setting.split('=')[0])} ")
       for command, settings in {
           "linear": ("carleman.delta0=2", "carleman.s_scale=0", "hum.epsilon=-1",
                      "hum.cg_tol=0", "hum.cg_max_iters=0", "fixed_point.tol=0",
                      "fixed_point.max_iters=-1", "fixed_point.initial_guess=bogus",
                      "physics.chi=-1", "physics.delta=0", "domain.x0=0.9", "time.T=1e7"),
           "nonlinear": ("fixed_point.initial_guess=bogus", "hum.cg_max_iters=0"),
           "sweep-T --t-list 1 --amplitudes 1": ("fixed_point.initial_guess=bogus",
                                                 "hum.cg_max_iters=0")}.items()
       for setting in settings},
    # a record rejects what no run can use: the weight tables take 4 steps, and a
    # fixed-point cap of 0 once wrote all-zero fields and exited 3
    "linear-time.n_steps=3": Row(
        "linear {n8} --set time.n_steps=3", EXIT_INVALID,
        re.escape("error: time.n_steps must be at least 4, got 3\n") + CLEAN),
    "nonlinear-fixed_point.max_iters=0": Row(
        "nonlinear {n8} --set fixed_point.max_iters=0", EXIT_INVALID,
        re.escape("error: fixed_point.max_iters must be at least 1\n") + CLEAN),
    # breakdowns name their cause.  The drift and linear source cases once traced back,
    # the observability case wrote inf and NaN ratios, the chi=200 case blamed a forward
    # step, the chi=1e10 case printed four numpy warnings before its error line, and the
    # solution case printed one
    **{name: Row(f"{argv} {{n16}}", EXIT_NO_CONVERGENCE, f"error: {cause}") for name, (argv, cause)
       in {"drift-overflow": (
               "nonlinear --set physics.chi=1e300 --set initial_data.amplitude=1e10",
               "drift contains non-finite values"),
           "source-overflow": (
               "nonlinear --set physics.delta=1e300 --set initial_data.amplitude=1e10",
               "elliptic source contains non-finite values"),
           "solution-overflow": (
               "nonlinear --set physics.chi=0 --set physics.delta=3e307 "
               "--set initial_data.amplitude=1",
               "elliptic solution contains non-finite values"),
           "linear-drift-overflow": (
               "linear --set physics.chi=1e300 --set initial_data.amplitude=1e10 "
               "--set fixed_point.initial_guess=u0-constant",
               "drift contains non-finite values"),
           "linear-source-overflow": (
               "linear --set physics.delta=1e300 --set initial_data.amplitude=1e10",
               "elliptic source contains non-finite values"),
           "observability-weights-overflow": (
               "observability --samples 3 --set carleman.lambda_scale=1e3",
               "the Carleman weight table overflows"),
           "nonlinear-weights-overflow": (
               "nonlinear --set physics.chi=200 --set initial_data.amplitude=0.5",
               "the Carleman weight table overflows"),
           "nonlinear-weight-parameters-overflow": (
               "nonlinear --set physics.chi=1e10 --set initial_data.amplitude=1",
               "the Carleman weight table overflows: delta0 s alpha is nan")}.items()},
    # a chemoattractant past the float range was once written to v.csv as inf
    "linear-solution-overflow": Row(
        "linear {n8} --set physics.delta=1e308 --set physics.gamma=0.01 "
        "--set initial_data.amplitude=1", EXIT_NO_CONVERGENCE,
        re.escape("error: elliptic solution contains non-finite values\n") + CLEAN),
    # the same, met by the fixed point's last elliptic solve, once traced back and exited 1
    "nonlinear-final-solution-overflow": Row(
        f"nonlinear {{n8}} {FINAL_V_OVERFLOW}", EXIT_NO_CONVERGENCE,
        re.escape("error: elliptic solution contains non-finite values\n") + CLEAN),
    "sweep-T-final-solution-overflow": Row(
        f"sweep-T --t-list 1 --amplitudes 2 {{n8}} {FINAL_V_OVERFLOW}", EXIT_OK, CLEAN,
        lambda out: [cell["error"] for row in reports(out)["threshold_sweep"]["rows"]
                     for cell in row["cells"]] == ["elliptic solution contains non-finite values"]),
    "solver-breakdown": Row("linear {n24}", EXIT_NO_CONVERGENCE,
                            re.escape("error: non-finite state after forward step 3\n") + CLEAN,
                            patch={"solve_penalized": raising(SolverError(
                                "non-finite state after forward step 3"))}),
    "out-of-memory": Row("linear {n8}", EXIT_NO_CONVERGENCE, "error: out of memory: Unable to "
                         "allocate 745. GiB ", patch={"solve_penalized": raising(MemoryError(
                             "Unable to allocate 745. GiB for an array with shape (10**11,)"))}),
    # a run stopped by an iteration cap names it, and its report records it; each once
    # exited 3 with an empty stderr, or (a capped CG in the fixed point) exited 0
    **{name: Row(f"{argv} --set {cap} {{{n}}}", EXIT_NO_CONVERGENCE,
                 f"error: .* stopped at {re.escape(cap.split()[0])} with ", unconverged)
       for name, (argv, cap, n, unconverged) in {
           "linear-cg": ("linear", "hum.cg_max_iters=1", "n16",
                         lambda out: reports(out)["hum"]["cg_converged"] is False),
           "nonlinear-cg": ("nonlinear", "hum.cg_max_iters=1", "n16",
                            lambda out: reports(out)["fixed_point"]["converged"] is False),
           "nonlinear-fixed-point": ("nonlinear", "fixed_point.max_iters=1", "n16",
                                     lambda out: reports(out)["fixed_point"]["converged"] is False),
           "nonlinear-fixed-point-tight": ("nonlinear", "fixed_point.max_iters=1 --set "
                                           "fixed_point.tol=1e-14", "n24",
                                           lambda out: reports(out)["fixed_point"]["converged"]
                                           is False),
           "sweep-eps-cg": ("sweep-eps --eps-list 1e-2", "hum.cg_max_iters=1", "n16",
                            lambda out: reports(out)["eps_sweep"][0]["cg_converged"] is False),
           }.items()},
    # the same caps beside an underflowing weight: its warning once printed before the error
    **rows(EXIT_NO_CONVERGENCE, r"error: .* stopped at hum\.cg_max_iters=1 with .*\n" + CLEAN, {
        f"{command.split()[0]}-cg-weight-underflow": f"{command} {{n8}} --set "
        "carleman.s_scale=1e12 --set hum.cg_max_iters=1"
        for command in ("linear", "nonlinear", "sweep-eps --eps-list 1e-2")}),
    # the dense oracle itself fails at these penalties: its defined exit code
    **rows(EXIT_CHECK_FAILED, CLEAN, {
        f"oracle-check-hum.epsilon={eps}": f"oracle-check {{n8}} --set hum.epsilon={eps}"
        for eps in ("5e-324", "1e-300")}),
    # extreme but valid inputs.  A tiny amplitude once underflowed the CG curvature
    # (a ZeroDivisionError); a sweep once failed whole, with no table, when one cell
    # broke down; at chi=1000 the steps are no M-matrices, so their LU pivots; a
    # chemoattractant near the float range once warned of an overflowing norm
    **rows(EXIT_OK, CLEAN, {
        f"{command}-tiny-amplitude-{n}": f"{command} --set initial_data.amplitude=1e-155 {{{n}}}"
        for command in ("linear", "nonlinear") for n in ("n16", "n24")}, controlled),
    "nonlinear-huge-chemoattractant": Row(
        "nonlinear {n8} --set physics.chi=0 --set physics.delta=1e300", EXIT_OK, CLEAN),
    # the broken cells built underflowing tables first: the sweep exits 0, so it warns
    "sweep-T-one-cell-breaks-down": Row(
        "sweep-T --t-list 0.25 1 --amplitudes 0.01 0.5 --set physics.chi=200 {n16}", EXIT_OK,
        UNDERFLOWS + CLEAN, one_cell_broke_down),
    # the edges of grid.HORIZON_RANGE run; the raw weight underflows there
    **rows(EXIT_OK, "", {
        "linear-horizon-min": f"linear --set time.T={LO!r} {{n8}}",
        "linear-horizon-max": f"linear --set time.T={HI!r} {{n8}}",
        "observability-horizon-edges": f"observability --samples 2 --t-list {LO!r} {HI!r} {{n8}}",
        "sweep-T-horizon-edges": f"sweep-T --t-list {LO!r} {HI!r} --amplitudes 1e-3 {{n8}}"}),
    "linear-pivoting-steps": Row(
        "linear --set physics.chi=1000 --set carleman.lambda_scale=1e-9 "
        "--set carleman.s_scale=1e-9 --set fixed_point.initial_guess=u0-constant "
        "--set initial_data.shape=bump --set initial_data.amplitude=1 {n16}", EXIT_OK, CLEAN,
        lambda out: reports(out)["m_matrix"]["is_m_matrix"] is False),
    **rows(EXIT_OK, UNDERFLOWS + CLEAN, {
        "linear-weight-underflow": "linear {n8} --set carleman.s_scale=1e12",
        "nonlinear-weight-underflow": "nonlinear {n8} --set carleman.s_scale=1e12"}, underflowed),
    # a converged control that leaves |u(T)| / |u0| at 0.79 once exited 0 without a word
    "linear-approximate-control": Row(
        "linear {n16} --set time.T=0.01", EXIT_OK, UNDERFLOWS + APPROXIMATE + CLEAN,
        lambda out: reports(out)["control_bound"]["null_control"] is False),
}
# The rows a test of tests/test_cli.py checked before this table, run under its id:
# {its parameter id: row}, or the rows of a test that was not parametrized.
NAMED = {
    "test_usage_errors_exit_2": {f"argv{i}": name for i, name in enumerate((
        "no-command", "unknown-command", "option-before-command", "unknown-option",
        "samples-not-a-number", "missing-option", "selftest-takes-no-config"))},
    "test_out_of_range_option_exits_2": {name: name for name in (
        "sweep-T-amplitude-0", "sweep-T-horizon-0", "sweep-T-horizon-inf", "sweep-eps-nan",
        "observability-horizon-0", "observability-horizon-negative", "sweep-T-horizon-huge",
        "observability-horizon-nan", "observability-samples-0", "observability-horizon-tiny",
        "observability-horizon-below-range", "sweep-T-horizon-above-range")},
    "test_horizon_range_edges_run": {
        "linear-T-min": "linear-horizon-min", "linear-T-max": "linear-horizon-max",
        "observability": "observability-horizon-edges", "sweep-T": "sweep-T-horizon-edges"},
    "test_invalid_input_exits_2_with_one_line": {
        **{name: name for name in (
            "epsilon-nan", "amplitude-nan", "horizon-nan", "fractional-iteration-cap",
            "seed-not-a-number", "missing-config-file", "garbled-config-file",
            "config-not-an-object", "horizon-tiny", "horizon-huge", "horizon-below-range",
            "horizon-above-range", "gamma-singular", "negative-seed-observability",
            "negative-seed-oracle-check")},
        "missing-data-file": "linear-missing-data-file",
        "garbled-data-file": "linear-garbled-data-file",
        **{setting: f"linear-{setting}" for setting in (
            "carleman.delta0=2", "carleman.s_scale=0", "hum.cg_tol=0", "hum.cg_max_iters=0",
            "fixed_point.tol=0", "fixed_point.max_iters=-1",
            "fixed_point.initial_guess=bogus", "physics.chi=-1", "physics.delta=0")}},
    "test_overflow_exits_3_naming_the_cause": {name: name for name in (
        "drift-overflow", "source-overflow", "linear-drift-overflow", "linear-source-overflow",
        "observability-weights-overflow", "nonlinear-weights-overflow",
        "nonlinear-weight-parameters-overflow")},
    "test_non_convergence_exits_3_with_one_line": {name: name for name in (
        "linear-cg", "nonlinear-cg", "nonlinear-fixed-point", "sweep-eps-cg")},
    "test_tiny_valid_amplitude_solves": {
        command: f"{command}-tiny-amplitude-n24" for command in ("linear", "nonlinear")},
    "test_unwritable_output_exits_2_before_the_solve": {
        command.split()[0]: f"unwritable-{command.split()[0]}" for command in CONFIG_COMMANDS},
    "test_nonlinear_no_convergence_exit": ("nonlinear-fixed-point-tight",),
    "test_oracle_check_rejects_large_grid": ("oracle-check-large-grid",),
    "test_invalid_override_exit": ("linear-hum.epsilon=-1", "override-without-value"),
    "test_solver_breakdown_exits_3_with_one_line": ("solver-breakdown",),
    "test_sweep_T_breakdown_fails_one_cell": ("sweep-T-one-cell-breaks-down",),
    "test_sweep_T_missing_data_file_exits_2": ("sweep-T-missing-data-file",),
}
# {test id: (row, interpreter flags)}; -W error once turned a warning into a traceback
FRESH = {"linear-weight-underflow": ("linear-weight-underflow", ()),
         "linear-weight-underflow-W-error": ("linear-weight-underflow", ("-W", "error")),
         "nonlinear-weight-underflow": ("nonlinear-weight-underflow", ()),
         "nonlinear-weight-parameters-overflow": ("nonlinear-weight-parameters-overflow", ("-O",))}
# the rows of a fuzzed key run as one test: pytest spends more on a test than a row takes
NAMED_ROWS = {row for rows_of in NAMED.values()
              for row in (rows_of.values() if isinstance(rows_of, dict) else rows_of)}
ITEMS = {}
for name in (name for name in CONTRACT if name not in NAMED_ROWS):
    ITEMS.setdefault(f"fuzz-{FUZZ[name][1]}" if name in FUZZ else name, []).append(name)


def argv_of(row, tmp):
    """(environment, argv) of a row, its placeholders filled in."""
    words = row.argv.format(tmp=tmp, **SIZES).split()
    env = dict(word.split("=", 1) for word in words if re.match(r"[A-Z_]+=", word))
    return env, words[len(env):]


def check_run(name, code, err, root):
    """The row's own expectations, then the contract every run keeps; the run wrote
    into a directory of root."""
    row, why = CONTRACT[name], f"{name} exited {code}: {err!r}"
    written = [report.parent for report in root.glob("*/report.json")]
    assert code == row.code or row.code is None and code in (
        EXIT_OK, EXIT_INVALID, EXIT_NO_CONVERGENCE), why
    assert re.match(row.err, err) and "Traceback" not in err, why
    lines = err.splitlines()
    if code == EXIT_OK:
        assert all(any(re.fullmatch(w, line + "\n") for w in WARNINGS) for line in lines), why
        assert len(written) == 1, why
    elif code != EXIT_CHECK_FAILED:
        assert [line for line in lines if ERROR in line] == lines[-1:], why
        assert err.startswith(USAGE if len(lines) > 1 else ERROR), why
    assert row.check is None or len(written) == 1 and row.check(written[0]), why


def spy(solver, calls):
    def call(*args, **kwargs):
        calls.append(solver.__name__)
        return solver(*args, **kwargs)
    return call


def run_rows(names, inputs, monkeypatch, capsys):
    """Run the rows named in process through cli.main and check each."""
    solved = []
    for solver in SOLVERS:
        monkeypatch.setattr(cli, solver, spy(getattr(cli, solver), solved))
    monkeypatch.chdir(inputs)
    for name in names:
        env, argv = argv_of(CONTRACT[name], inputs)
        for report in inputs.glob("*/report.json"):  # each row reads its own
            report.unlink()
        solved.clear()
        with monkeypatch.context() as patch:
            for var, value in {"CHEMOSTEER_OUT": str(inputs / "out"), **env}.items():
                patch.setenv(var, value) if value else patch.delenv(var, raising=False)
            for attr, value in (CONTRACT[name].patch or {}).items():
                patch.setattr(cli, attr, value)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        check_run(name, code, capsys.readouterr().err, inputs)
        assert code != EXIT_INVALID or not solved, f"{name} exited 2 after {solved}"


def named(test):
    """The test of tests/test_cli.py named test, running its rows of NAMED."""
    cases = NAMED[test]
    if not isinstance(cases, dict):
        def check(self, inputs, monkeypatch, capsys):
            run_rows(cases, inputs, monkeypatch, capsys)
        return check

    @pytest.mark.parametrize("name", cases.values(), ids=cases)
    def check_one(self, name, inputs, monkeypatch, capsys):
        run_rows([name], inputs, monkeypatch, capsys)
    return check_one


@pytest.mark.parametrize("names", ITEMS.values(), ids=ITEMS)
def test_exit_contract(names, inputs, monkeypatch, capsys):
    run_rows(names, inputs, monkeypatch, capsys)


@pytest.mark.parametrize("name, flags", FRESH.values(), ids=FRESH)
def test_exit_contract_in_a_fresh_process(name, flags, tmp_path):
    argv = argv_of(CONTRACT[name], tmp_path)[1]
    code, _, err = run_fresh(argv, tmp_path / "out", flags)
    check_run(name, code, err, tmp_path)


def test_fuzz_covers_every_config_leaf_on_every_config_command():
    def flat(d, prefix=""):
        for key, value in d.items():
            yield from flat(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key]

    assert sorted(FUZZED) == sorted(flat(RunConfig().to_dict())) and len(FUZZED) == 24
    assert {c.split()[0] for c in CONFIG_COMMANDS} == set(cli.COMMANDS) - {"selftest"}
