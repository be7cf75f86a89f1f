import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import chemosteer
from chemosteer import DomainSpec, TimeGrid, build_weights
from chemosteer.elliptic import DriftField
from chemosteer.parabolic import Propagator, solve_forward


@pytest.fixture
def domain32():
    return DomainSpec(32)


@pytest.fixture
def tgrid24():
    return TimeGrid(1.0, 24)


@pytest.fixture
def beta32(domain32):
    return domain32.beta_sup


def default_weights(domain, tgrid, b_sup=0.0):
    return build_weights(b_sup, domain, tgrid)


def propagator_of(drift, domain, tgrid):
    """The step factors of drift that a march takes."""
    return Propagator(drift.faces, domain, tgrid.dt)


def heat_error(dom):
    """Max error of the heat mode 1 + e^{-pi^2 t} cos(pi x) at t = 0.1, with dt ~ h^2."""
    tg = TimeGrid(0.1, round(2 * dom.n_cells ** 2 * 0.1))
    mode = np.cos(np.pi * dom.centers)
    u = solve_forward(1.0 + mode, propagator_of(DriftField.zero(dom, tg), dom, tg))
    return np.abs(u[-1] - (1.0 + np.exp(-np.pi ** 2 * 0.1) * mode)).max()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The directory {tmp} of the rows of test_contract.CONTRACT."""
    tmp = tmp_path_factory.mktemp("contract")
    (tmp / "garbled.txt").write_text("1 2 x\n")
    (tmp / "list.json").write_text("[1, 2]")
    (tmp / "cells8.txt").write_text("1 2 3 4 5 6 7 8\n")
    return tmp


def read_report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


# Runs the CLI in a fresh interpreter as `python -m chemosteer.cli ARGV` does and,
# from an atexit hook (after main has returned), reports gc.get_freeze_count().
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen={gc.get_freeze_count()}\\n"))
runpy.run_module("chemosteer.cli", run_name="__main__", alter_sys=True)
"""


def run_fresh(argv, out, flags=()):
    """(exit code, objects frozen at exit, stderr) of a fresh CLI process writing into
    out; flags go to the interpreter."""
    src = os.path.dirname(os.path.dirname(chemosteer.__file__))
    env = dict(os.environ, CHEMOSTEER_OUT=str(out),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *flags, "-c", FREEZE_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    *err, last = proc.stderr.splitlines(keepends=True)
    frozen = re.fullmatch(r"frozen=(\d+)\n", last)
    assert frozen, proc.stderr
    return proc.returncode, int(frozen.group(1)), "".join(err)
