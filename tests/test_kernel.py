"""The loader of the compiled loops: where it builds, and that it loads;
and what a fresh ``import levdyn.cli`` loads."""

from __future__ import annotations

import ctypes
import logging
import os
import platform
import re
import shutil
import stat
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import levdyn
from levdyn import _kernel

from conftest import needs_kernel

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
    ctypes.CDLL(str(built[0])).levdyn_orbit
    assert [p.name for p in (tmp_path / "lib").iterdir()] == [built[0].name]


def syntax_check(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(["cc", *_kernel.FLAGS, *extra, "-fsyntax-only", str(_kernel.SOURCE)],
                          capture_output=True, text=True)


@needs_cc
@pytest.mark.skipif(platform.machine() != "x86_64", reason="-mfpmath=387 is an x86-64 option")
def test_x87_build_is_refused():
    # x87 doubles live in 80-bit registers (FLT_EVAL_METHOD 2) and may be
    # rounded twice, so the source refuses such a build
    assert syntax_check().returncode == 0
    x87 = syntax_check("-mfpmath=387")
    assert x87.returncode != 0
    assert "FLT_EVAL_METHOD" in x87.stderr


@needs_cc
def test_build_without_int128_is_refused():
    # the row writer scales each mantissa exactly in 128 bits
    missing = syntax_check("-U__SIZEOF_INT128__")
    assert missing.returncode != 0
    assert "__int128" in missing.stderr


@needs_cc
def test_a_source_that_fails_to_compile_is_not_loaded(tmp_path, monkeypatch, caplog):
    # cc exits with an error: the loader logs the compiler's message, leaves
    # no library or temporary file behind and the Python loops run
    monkeypatch.setattr(_kernel, "lib", _kernel.lib)
    path = tmp_path / "_kernel.c"
    path.write_text("#error this copy does not compile\n" + _kernel.SOURCE.read_text())
    monkeypatch.setattr(_kernel, "SOURCE", path)
    monkeypatch.setattr(_kernel, "_directories", lambda: [tmp_path])
    with caplog.at_level(logging.DEBUG, logger=_kernel.log.name):
        assert _kernel._load() is None
    assert "this copy does not compile" in caplog.text
    assert [p.name for p in tmp_path.iterdir()] == ["_kernel.c"]


@needs_cc
def test_a_row_writer_that_disagrees_is_not_loaded(tmp_path, monkeypatch):
    # the probe's block holds both ties of 17 digits, so a writer that
    # rounds them up rather than to even disagrees with format() and the
    # whole library is refused; the source as it is loads
    monkeypatch.setattr(_kernel, "lib", _kernel.lib)
    monkeypatch.setattr(_kernel, "_directories", lambda: [tmp_path])
    text = _kernel.SOURCE.read_text()
    tie = "rest == half && (digits & 1)"
    assert tie in text
    for name, source, loads in (("as-is", text, True),
                                ("ties-up", text.replace(tie, "rest == half"), False)):
        path = tmp_path / name / "_kernel.c"
        path.parent.mkdir()
        path.write_text(source)
        monkeypatch.setattr(_kernel, "SOURCE", path)
        assert (_kernel._load() is not None) == loads, name


@needs_cc
def test_a_box_counter_that_disagrees_is_not_loaded(tmp_path, monkeypatch):
    # without the near-integer fallback a point at 0.5 lands in cell 5 of
    # 0.1, not cell 4, and the probe's lattice cloud counts one box fewer
    monkeypatch.setattr(_kernel, "lib", _kernel.lib)
    text = _kernel.SOURCE.read_text()
    fallback = ("                if (c <= tol[s] || c >= 1.0 - tol[s])\n"
                "                    q = (long long)floor_divide(norm[a], eps[s]);\n")
    assert fallback in text
    path = tmp_path / "_kernel.c"
    path.write_text(text.replace(fallback, ""))
    monkeypatch.setattr(_kernel, "SOURCE", path)
    monkeypatch.setattr(_kernel, "_directories", lambda: [tmp_path])
    assert _kernel._load() is None


@needs_cc
def test_a_tick_pass_whose_drift_skips_the_last_tick_is_not_loaded(tmp_path, monkeypatch):
    # the probe's two banks drift further from their start weights at every
    # tick, so a scan that stops before the last tick reports a smaller drift
    monkeypatch.setattr(_kernel, "lib", _kernel.lib)
    text = _kernel.SOURCE.read_text()
    scan = ("        for (int i = 0; i < n; i++) {\n"
            "            double d = fabs(assets[i] / total - weights0[i]);\n")
    assert scan in text
    path = tmp_path / "_kernel.c"
    path.write_text(text.replace(scan, scan.replace("i < n;", "i < n && s + 1 < ticks;")))
    monkeypatch.setattr(_kernel, "SOURCE", path)
    monkeypatch.setattr(_kernel, "_directories", lambda: [tmp_path])
    assert _kernel._load() is None


@needs_cc
def test_a_library_whose_self_check_raises_is_not_loaded(tmp_path, monkeypatch):
    # a violation code that no constraint name has makes the compiled
    # probe raise KeyError: the library is refused and the Python loops run
    monkeypatch.setattr(_kernel, "lib", _kernel.lib)
    text = _kernel.SOURCE.read_text()
    code = "#define KERNEL_LEVERAGE_FLOOR 1"
    assert code in text
    path = tmp_path / "_kernel.c"
    path.write_text(text.replace(code, "#define KERNEL_LEVERAGE_FLOOR 5"))
    monkeypatch.setattr(_kernel, "SOURCE", path)
    monkeypatch.setattr(_kernel, "_directories", lambda: [tmp_path])
    assert _kernel._load() is None
    assert _kernel.lib is None


@needs_kernel
def test_every_exported_loop_is_bound():
    # ctypes would pass an unbound function's arguments as C ints
    exported = re.findall(r"^(?!static)[\w ]+?\b(levdyn_\w+)\(", _kernel.SOURCE.read_text(),
                          re.MULTILINE)
    assert sorted(exported) == ["levdyn_boxes", "levdyn_orbit", "levdyn_rows", "levdyn_ticks"]
    for name in exported:
        assert getattr(_kernel.lib, name).argtypes, name


def test_importing_the_cli_leaves_single_branch_modules_unloaded():
    # the process pool, the compiler driver, exact rationals and the
    # skew-product module each serve one branch, and load on its first use
    deferred = ["multiprocessing", "concurrent.futures.process", "subprocess", "fractions",
                "levdyn.skew"]
    src = str(Path(levdyn.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, levdyn.cli; "
         f"print(*[m for m in {deferred!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
