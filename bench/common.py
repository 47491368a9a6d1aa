"""Checkout location, the repbench import, and the environment record."""

import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def import_repbench():
    """Import repbench from this checkout's src/ and nowhere else, so a
    directory without the program fails instead of measuring another copy.

    The load is one process with at most 2 threads (the pool), so numpy's
    BLAS is held to one thread; this must run before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import repbench

    if not os.path.abspath(repbench.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repbench imported from {repbench.__file__}, not {SRC}")
    return repbench


def git_rev():
    """Commit of the checkout, read from .git without running git;
    "unknown" when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_line(**extra):
    """What a result was measured on, as one comment line; the machine is
    shared, so the load average at start is part of it."""
    import numpy

    env = {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
    return "# env " + json.dumps({**env, **extra}, sort_keys=True)


def settle_allocator():
    """Raise glibc malloc's dynamic mmap and trim thresholds to where a
    process ends up after its first large overlap grid.

    Freeing a block that was mmapped raises the mmap threshold to its size
    and the trim threshold to twice that.  Until some grid's temporaries
    have done so, overlap_error calls return their temporaries to the OS
    and fault them in again.  How long that lasts depends on the order of
    grid sizes in the input: on 200 well-localised points a fresh
    `repbench sequence` process spent from 0.3 to 8.5 s of system time over
    seeds 1-10, so the sequence phase took 13-23 s at nearly equal work; on
    60 such points it took 3.1-7.1 s cold against 3.3-4.0 s settled over
    seeds 1-6 (2-vCPU shared VM).  That spread between datasets is wider
    than any bound a run of the benchmark can average down, so the bounded
    figures are taken after one freed 30 MiB block (under glibc's 32 MiB
    cap for the threshold), and the cold cost is
    measured apart, without this call (the cold.* per-layer metrics).
    Other allocators ignore it.
    """
    import numpy

    numpy.empty(30 * 2**20 // 8)
