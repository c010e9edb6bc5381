"""The loader of the compiled loops: where it builds, and that it loads."""

from __future__ import annotations

import ctypes
import shutil
import stat
from concurrent.futures import ThreadPoolExecutor

import pytest

from levdyn import _kernel

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")


def test_compiled_loops_load_where_a_compiler_exists():
    # a silent fallback to the Python loops would hide a 7x slowdown
    assert shutil.which("cc") is None or _kernel.lib is not None


@needs_cc
def test_build_is_cached_by_source_in_the_first_writable_directory(tmp_path):
    source = tmp_path / "_kernel.c"
    source.write_bytes(_kernel.SOURCE.read_bytes())
    blocked = tmp_path / "a-file" / "levdyn"  # under a regular file: cannot be created
    (tmp_path / "a-file").write_text("")
    cache = tmp_path / "cache" / "levdyn"
    built = _kernel._build(source, [blocked, cache])
    assert built.parent == cache
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert stat.S_IMODE(built.stat().st_mode) == 0o755  # loadable by other users
    assert [p.name for p in cache.iterdir()] == [built.name]  # no temporary file left
    mtime = built.stat().st_mtime_ns
    assert _kernel._build(source, [blocked, cache]) == built
    assert built.stat().st_mtime_ns == mtime  # found, not rebuilt
    # the same source next to the module and here share one name
    assert built.name == _kernel._build(_kernel.SOURCE, _kernel._directories()).name
    source.write_bytes(source.read_bytes() + b"\n/* edited */\n")
    rebuilt = _kernel._build(source, [blocked, cache])
    assert rebuilt.name != built.name
    assert [p.name for p in cache.iterdir()] == [rebuilt.name]  # the earlier one removed


@needs_cc
def test_concurrent_builds_publish_one_whole_library(tmp_path):
    # pool workers may build at once: each compiles to its own temporary
    # file and renames it into place, so every one loads a whole library
    source = tmp_path / "_kernel.c"
    source.write_bytes(_kernel.SOURCE.read_bytes())
    with ThreadPoolExecutor(max_workers=4) as pool:
        built = list(pool.map(lambda _: _kernel._build(source, [tmp_path / "lib"]), range(4)))
    assert len(set(built)) == 1
    ctypes.CDLL(str(built[0])).levdyn_run
    assert [p.name for p in (tmp_path / "lib").iterdir()] == [built[0].name]
