"""No multi-threaded BLAS call on the trial path.

numpy's bundled OpenBLAS splits a large enough dot product over its threads,
so the rounding of such a call depends on the thread count, and after each
call its helper threads spin for about 0.1 s on the other cores, which in a
sweep are the other workers' cores. The trial reduces with numpy's own loops
instead. Both checks run in a fresh interpreter, since OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only when numpy is first imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
SRC = HERE.parent / "src"


def run_python(code: str, **env) -> str:
    """Stdout of ``python -c code`` with ivasim and the tests importable."""
    path = os.pathsep.join([str(SRC), str(HERE), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    return proc.stdout


BITS = """
import json
from test_golden import trial_hex
points = [(270.0, 30.0, 1.0, 1), (300.0, 10.0, 0.2, 1), (300.0, 10.0, 0.2, 2)]
print(json.dumps([trial_hex(*p, mode=m) for p in points for m in ("windowed", "full")]))
"""


def test_bits_independent_of_openblas_threads():
    """float.hex of ic and r_hat of the rho_f = 1 and 300/10/0.2 golden
    trials, in both image modes, with one and with two OpenBLAS threads."""
    one, two = (json.loads(run_python(BITS, OPENBLAS_NUM_THREADS=n)) for n in ("1", "2"))
    assert one == two


HELPER_TICKS = """
import os, time
from ivasim import harness

def helper_ticks():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])  # utime + stime
    return total

cfg = harness.load_run_config(overrides={"heading_deg": 270, "speed": 30, "rho_f": 1})
time.sleep(0.5)
before = helper_ticks()
harness.run_trial(cfg, harness.trial_seed(1, 0, 0))
time.sleep(0.5)
print(helper_ticks() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_trial_leaves_no_helper_thread_spinning():
    """The threads other than the main one (OpenBLAS's helpers) gain fewer
    than 3 clock ticks over one rho_f = 1 windowed trial and the 0.5 s after
    it; each BLAS call on the trial path costs them about 12 ticks."""
    assert int(run_python(HELPER_TICKS)) < 3
