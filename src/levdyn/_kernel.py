"""Loader of the compiled hot loops in ``_kernel.c``.

At first import the C source is compiled with the system ``cc`` into a
library named by the sha256 of the source, the flags and the machine,
next to this module or, where that directory is not writable, in
``$XDG_CACHE_HOME/levdyn`` (``~/.cache/levdyn``, created with mode
0700).  The compiler writes a unique temporary file that is then renamed
into place, so processes building at once do not race; the libraries
of earlier sources in that directory are then removed.  ``lib`` is the
library once a short orbit and tick pass give the same bytes through it
as through the Python loops; otherwise it is None, and ``orbits._run``
and ``micro._ticks`` run their Python loops.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

#: no -march=native or -ffast-math: the loops must round as Python does
FLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = Path(__file__).with_name("_kernel.c")
#: what a compiled loop returns where the Python loop would raise
DEFER = -1

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
    key = hashlib.sha256(b"\0".join(
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
        try:
            subprocess.run([cc, *FLAGS, "-o", tmp, str(source), "-lm"],
                           check=True, capture_output=True)
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
    """A two-bank orbit, one that escapes and a two-bank tick pass, as
    bytes and values, through whichever loops ``lib`` selects."""
    from .micro import _ticks
    from .orbits import _run
    from .params import ModelParams

    params = ModelParams(omegas=(0.5, 0.3), pis=(0.5, 0.5))
    recorded, violation = _run([50.0, 60.0], params, 3, 40)
    equities, assets = [0.01, 0.008], [0.5, 0.48]
    returns, weights = _ticks(equities, assets, [50.0, 60.0], 1e-4, 100.0,
                              [1e-3, -2e-3, 5e-4], 0)
    return (recorded.tobytes(), violation, _run([100.99, 100.99], params, 0, 5)[1],
            returns.tobytes(), weights.tobytes(), equities, assets)


def _load() -> ctypes.CDLL | None:
    global lib
    try:
        candidate = ctypes.CDLL(str(_build(SOURCE, _directories())))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        log.debug("compiled loops unavailable, running the Python loops: %s", exc)
        return None
    ptr, size, real = ctypes.c_void_p, ctypes.c_longlong, ctypes.c_double
    candidate.levdyn_run.argtypes = [ctypes.c_int, ptr, ptr, ptr, real, real, real,
                                     size, size, ptr, ptr]
    candidate.levdyn_ticks.argtypes = [ctypes.c_int, ptr, ptr, ptr, real, real, real,
                                       ptr, size, ptr, ptr, ptr]
    expected = _probe()
    lib = candidate
    try:
        agrees = _probe() == expected
    finally:
        lib = None
    if not agrees:
        log.debug("compiled loops disagree with the Python loops, running the Python loops")
        return None
    return candidate


lib = _load()
