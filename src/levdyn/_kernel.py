"""Loader of the compiled hot loops in ``_kernel.c``.

At first import the C source is compiled with the system ``cc`` into a
library named by the sha256 of the source, the flags and the machine,
next to this module or, where that directory is not writable, in
``$XDG_CACHE_HOME/levdyn`` (``~/.cache/levdyn``, created with mode
0700).  The compiler writes a unique temporary file that is then renamed
into place, so processes building at once do not race; the libraries
of earlier sources in that directory are then removed.  ``lib`` is the
library once a short orbit, a tick pass with its weight drift, a
two-vector tangent pass and a block of CSV rows give the same bytes
through it as through the Python loops, the box counts of a small
lattice cloud equal PROBE_BOXES, the counts that the numpy counter
gives, and its first normals of PROBE_SEED equal PROBE_NORMALS, NumPy's,
with a tick pass that draws them giving the bytes of the Python loop on
the pinned values; otherwise, also where that self-check raises, it is
None, ``orbits._run`` (behind every Lyapunov exponent too) and
``micro._ticks`` loop in Python, ``micro`` draws its shocks with
``numpy.random``, ``attractor`` counts boxes with numpy and ``output``
formats every cell in Python.  There are four compiled loops and a
stream.  ``levdyn_orbit`` runs an orbit's transient and then its window,
recording the states, stepping k tangent vectors on the step's
Jacobian, or both: its one caller, ``orbits._run``, calls it with k = 0
to record an orbit and with k >= 1 once per Lyapunov exponent; where a
vector vanishes it defers to Python.  ``levdyn_ticks`` is the intraday
tick pass, which scans the drift of the banks' asset weights as it goes
and draws its start return and shocks, those of
``np.random.default_rng(seed).standard_normal``, from levdyn's own PCG64
and ziggurat; ``levdyn_normals`` draws the same stream on its own.
``levdyn_boxes`` marks the occupancy grids of
``attractor.occupied_box_counts``, one bit a cell, in one pass over a cloud
and counts them, and ``levdyn_rows`` formats the cells of ``output._block_texts``.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import platform
import shutil
import tempfile
from pathlib import Path

from ._digest import sha256

#: no -march=native or -ffast-math: the loops must round as Python does
FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("_kernel.c")
#: what a compiled loop returns where the Python loop would raise
DEFER = -1
#: the probe's lattice cloud on [0, 2] x [0, 0.5] and its box sizes: on the
#: unit square 0.5 / 0.1 rounds to 5.0, but 0.5 lies in cell 4 of 0.1, with
#: 0.55 in cell 5; the upper edge joins the last cell
PROBE_CLOUD = tuple((2.0 * x, 0.5 * y) for x, y in (
    (0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.55, 0.55), (0.3, 0.7), (0.35, 0.75),
    (math.nextafter(0.5, 1.0), 0.9)))
PROBE_EPSILONS = (0.1, 0.25, 0.01)
#: the numpy counter's counts of PROBE_CLOUD, pinned so that no process runs
#: that counter at import, which faults in pages of numpy's loops (0.1 MB
#: or more of peak RSS)
PROBE_BOXES = (7, 6, 7)
#: the first normals of ``default_rng(PROBE_SEED).standard_normal``, pinned
#: as PROBE_BOXES is, so that no process imports numpy.random at load: the
#: ziggurat takes a wedge for the fourth, rejects one and ends the sixth in
#: the tail
PROBE_SEED = 232108
PROBE_NORMALS = (-0.06067597977217445, -0.2781021114242756, 0.10829524492232609,
                 3.3996164899656995, -1.4094501081162647, -4.18163279018417)

log = logging.getLogger(__name__)
lib: ctypes.CDLL | None = None


def _directories() -> list[Path]:
    cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return [SOURCE.parent, Path(cache) / "levdyn"]


def _build(source: Path, directories: list[Path]) -> Path:
    """The library built from ``source``: found in one of ``directories``,
    else compiled into the first of them that is writable."""
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")
    key = sha256(b"\0".join(
        [source.read_bytes(), " ".join(FLAGS).encode(), platform.machine().encode()]))
    name = f"_kernel-{key.hexdigest()[:20]}.so"
    for directory in directories:
        if (directory / name).is_file():
            return directory / name
    for directory in directories:
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
        except OSError:
            continue
        os.close(fd)
        # here only: a process that finds its library built runs no compiler
        import subprocess

        try:
            done = subprocess.run([cc, *FLAGS, "-o", tmp, str(source), "-lm"],
                                  capture_output=True)
            if done.returncode:
                raise OSError(f"{cc} exited with status {done.returncode}: "
                              f"{done.stderr.decode(errors='replace').strip()}")
            os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from other users
            os.replace(tmp, directory / name)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in directory.glob("_kernel-*.so"):
            if stale.name != name:
                try:
                    stale.unlink()
                except OSError:
                    pass
        return directory / name
    raise OSError(f"none of {[str(d) for d in directories]} is writable")


def _probe() -> tuple:
    """A two-bank orbit, one that escapes, a tick pass and its drift, the
    normals of PROBE_SEED and a tick pass that draws them, a two-vector
    tangent pass on that orbit, one whose orbit escapes, the box counts of
    PROBE_CLOUD and the rows of a block of edge-case cells, as bytes and
    values, through whichever loops ``lib`` selects; with no library the
    normals are PROBE_NORMALS and the box counts PROBE_BOXES."""
    import numpy as np

    from .attractor import occupied_box_counts
    from .errors import OrbitViolationError
    from .micro import _Shocks, _impact, _ticks
    from .orbits import _run, _run_checked
    from .output import RowBlock, _block_texts
    from .params import ModelParams

    params = ModelParams(omegas=(0.5, 0.3), pis=(0.5, 0.5))
    recorded, violation = _run([50.0, 60.0], params, 3, 40)
    # leverages 50 and 60 move the weights: the drift grows every tick
    equities, assets = [0.01, 0.008], [0.5, 0.48]
    returns, drift = _ticks(equities, assets, [50.0, 60.0], 1e-4,
                            _impact([50.0, 60.0], assets, 100.0), 100.0,
                            np.array([1e-3, -5e-4, 2e-3]), 0)
    # levdyn's normals, and a tick pass that draws them as it goes, against
    # the pins and a pass on the shocks formed from them
    if lib is None:
        normals = PROBE_NORMALS
        r, shocks = 0.0 + 2e-3 * normals[0], np.array(normals[1:]) * 1e-3 + 0.0
    else:
        normals = tuple(_Shocks(PROBE_SEED, 0, 1.0).draw(len(PROBE_NORMALS)).tolist())
        r, shocks = 2e-3, _Shocks(PROBE_SEED, len(PROBE_NORMALS) - 1, 1e-3)
    drawn = _ticks([0.01, 0.008], [0.5, 0.48], [50.0, 60.0], r, 0.5, 100.0, shocks, 0)
    # fixed vectors keep numpy.random, and its memory, out of the import
    tangent = _run_checked([50.0, 60.0], params, 3, 40, [[0.6, -0.8], [0.8, 0.6]])
    try:
        escape = _run_checked([96.95171505688967, 91.702620462896],
                              ModelParams(omegas=(0.05, 0.15000000000000002), pis=(0.4, 0.6)),
                              2, 6, [[0.6, -0.8]])
    except OrbitViolationError as exc:
        escape = (exc.step, exc.constraint)
    boxes = PROBE_BOXES if lib is None else tuple(
        occupied_box_counts(np.array(PROBE_CLOUD), np.array(PROBE_EPSILONS)).tolist())
    # signed zeros and nan, infinities, both ties of 17 digits, the range's
    # ends, exponent and fixed notation, and int64's extremes
    floats = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
              1000000000000000.25, -1000000000000000.75, 2.0 ** -14, -(2.0 ** 52 - 0.5),
              9.9999999999999991e-05, 0.1, 100.0, 1.0 / 3.0]
    n = len(floats)
    ints = np.array([-2 ** 63, 2 ** 63 - 1, *range(n - 2)])
    words = np.array(["a,b", ""] * (n // 2))
    cells = RowBlock((0.5, None), (np.array(floats), ints, ints % 3 == 0, words), ("x",))
    return (recorded.tobytes(), violation, _run([100.99, 100.99], params, 0, 5)[1],
            returns.tobytes(), drift.hex(), equities, assets, normals, drawn[0].tobytes(),
            drawn[1].hex(), tangent, escape, boxes, list(_block_texts(cells)))


def _load() -> ctypes.CDLL | None:
    global lib
    try:
        candidate = ctypes.CDLL(str(_build(SOURCE, _directories())))
    except (OSError, RuntimeError) as exc:  # a failed compile included
        log.debug("compiled loops unavailable, running the Python loops: %s", exc)
        return None
    ptr, size, real = ctypes.c_void_p, ctypes.c_longlong, ctypes.c_double
    candidate.levdyn_orbit.argtypes = [ctypes.c_int, ptr, ptr, ptr, real, real, real,
                                       size, size, ptr, ctypes.c_int, ptr, ptr, ptr]
    candidate.levdyn_ticks.argtypes = [ctypes.c_int, ptr, ptr, ptr, ptr, real, real, real,
                                       ptr, ptr, real, size, ptr, ptr, ptr]
    candidate.levdyn_normals.argtypes = [ptr, size, ptr]
    candidate.levdyn_normals.restype = None
    candidate.levdyn_boxes.argtypes = [size, ptr, ptr, ptr, ctypes.c_int, ptr, ptr, ptr, ptr]
    candidate.levdyn_boxes.restype = None
    text = ctypes.c_char_p
    candidate.levdyn_rows.argtypes = [ctypes.c_int, text, ptr, ptr, ptr, size, size,
                                      text, size, text, size, ptr, size]
    candidate.levdyn_rows.restype = size
    expected = _probe()
    lib = candidate
    try:
        agrees = _probe() == expected
    except Exception as exc:  # a compiled loop gave what no Python loop gives
        log.debug("compiled loops failed their self-check, running the Python loops: %r", exc)
        return None
    finally:
        lib = None
    if not agrees:
        log.debug("compiled loops disagree with the Python loops, running the Python loops")
        return None
    return candidate


lib = _load()
