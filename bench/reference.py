"""A reference kernel that runs beside each CLI child to measure the speed
of the vCPU they share.

On a shared host a vCPU changes speed by up to half from one second to the
next and from one minute to the next, depending on what the host runs next
to it; the CLI's wall time follows.  The reference runs a fixed chunk of
work (a small pure-Python loop and one small ``solve_banded``, the two kinds
of work the CLI does) in a loop, at nice 19 and pinned to the same vCPU as
the CLI child.  So it takes about 1.5% of that vCPU while the CLI runs, in
small slices spread over the whole run, and it is slowed exactly when the
CLI is.  Its chunks per second of its own CPU time, over the CLI run, is the
speed of the vCPU during that run; wall time times that speed is the CLI
run's length in chunks, which does not depend on the host's load.  Divided
by a fixed ``NOMINAL_SPEED`` it is a time again, in reference seconds: the
time the run would take on a vCPU on which the reference makes
``NOMINAL_SPEED`` chunks per second.

Run as a script, it is the reference process:

    python3 bench/reference.py STATE_FILE PARENT_PID

It works only while the flag in the state file is set, sleeps otherwise, and
exits when its parent is gone.  ``Reference`` starts and stops it.
"""

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

# The state file holds a flag, set by the parent while it measures, and then
# the chunks done and the CPU ns they used, set by the reference.
FLAG = struct.Struct("q")
COUNTS = struct.Struct("qq")
STATE_SIZE = FLAG.size + COUNTS.size
# Chunks per second that define one reference second: about the middle of
# the speeds measured on the 2-vCPU Xeon VM (2.0 GHz as reported) this was
# written on, which ranged from 14 000 to 24 000.
NOMINAL_SPEED = 20000.0
IDLE_SLEEP_S = 0.001
READY_TIMEOUT_S = 120.0
CHUNKS_PER_PARENT_CHECK = 1000


def serve(state_path, parent_pid):
    import numpy as np
    from scipy.linalg import solve_banded

    os.nice(19)
    ab = np.ones((3, 50))
    ab[1] = 4.0
    rhs = np.ones(50)
    with open(state_path, "r+b") as fh:
        state = mmap.mmap(fh.fileno(), STATE_SIZE)
    chunks = cpu_ns = 0
    while True:
        if os.getppid() != parent_pid:
            return
        if chunks == 0 or FLAG.unpack_from(state)[0]:
            for _ in range(CHUNKS_PER_PARENT_CHECK):
                t0 = time.thread_time_ns()
                s = 0
                for i in range(300):
                    s += i
                solve_banded((1, 1), ab, rhs)
                cpu_ns += time.thread_time_ns() - t0
                chunks += 1
                COUNTS.pack_into(state, FLAG.size, chunks, cpu_ns)
                if not FLAG.unpack_from(state)[0]:
                    break
        else:
            time.sleep(IDLE_SLEEP_S)


class Reference:
    """The reference process, for the children spawned while it is open.

    It pins the calling process, and so every child it spawns, to one vCPU,
    and runs the reference on that vCPU.
    """

    def __init__(self, workdir):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        path = Path(workdir) / "reference.state"
        path.write_bytes(bytes(STATE_SIZE))
        with open(path, "r+b") as fh:
            self.state = mmap.mmap(fh.fileno(), STATE_SIZE)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(path), str(os.getpid())],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self._counts()[0] == 0:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the reference kernel did not start")
            time.sleep(0.01)

    def _counts(self):
        return COUNTS.unpack_from(self.state, FLAG.size)

    def start(self):
        FLAG.pack_into(self.state, 0, 1)
        return self._counts()

    def stop(self, start):
        """Chunks per CPU second of the reference since ``start``, or None."""
        chunks, cpu_ns = self._counts()
        FLAG.pack_into(self.state, 0, 0)
        if chunks <= start[0] or cpu_ns <= start[1]:
            return None
        return (chunks - start[0]) / ((cpu_ns - start[1]) * 1e-9)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.state.close()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
