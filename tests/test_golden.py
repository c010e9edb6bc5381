"""Golden outputs: every CLI command on a small fixed config.

Each case runs one command through ``levdyn.cli.main`` and compares the
sha256 of its output, with the ``# timestamp:`` line removed, against a
committed digest.  A refactor or a speed-up that keeps these digests
keeps the bytes every command writes.  Every case runs twice, through
the compiled loops where they loaded and through the Python loops,
against the same digest.  When a change alters output on purpose, print
the new digests with ``pytest tests/test_golden.py -s`` and update them
here in the same change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from levdyn.cli import EXIT_OK, main

from conftest import python_loops

TWO_BANK = {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]}

#: name -> (command, extra CLI arguments, config document, exit code, sha256)
CASES = {
    "simulate": (
        "simulate", [],
        {"model": TWO_BANK, "run": {"seed": 4, "transient": 200, "record": 60}},
        EXIT_OK,
        "8d2411e449a735ceb5de4dcfe6168979b451652f9eeffa301cc00331185f78b2",
    ),
    "bifurcate-omega": (
        "bifurcate", ["--workers", "1"],
        {
            "model": {"omegas": [0.5]},
            "run": {"seed": 7, "transient": 400, "record": 120},
            "sweep": {"axis": "omega", "range": [0.2, 0.95], "resolution": 7},
        },
        EXIT_OK,
        "f5c64fd99de290ab82e8c423ae4ed1f7aa7788b45f2c416a43ec4fe244c2fe34",
    ),
    "bifurcate-pi1": (
        "bifurcate", ["--workers", "2"],
        {
            "model": TWO_BANK,
            "run": {"seed": 7, "transient": 400, "record": 120},
            "sweep": {"axis": "pi1", "range": [0.0, 1.0], "resolution": 5},
        },
        EXIT_OK,
        "5d6fa7f415eb47ca7a42b9434090baf5625d84bdf33aa5c74b251c7bc944c74d",
    ),
    "bifurcate-preset": (
        "bifurcate", ["--workers", "1", "--preset", "fig6"],
        {"run": {"seed": 2, "transient": 300, "record": 90}, "sweep": {"resolution": 4}},
        EXIT_OK,
        "2c2fbef4154913675dded2087ca1e06cea940efe3e42e31dd40c7aa3b1add41b",
    ),
    "lyapunov-1d": (
        "lyapunov", [],
        {"model": {"omegas": [0.3]}, "run": {"seed": 1, "transient": 300},
         "lyapunov": {"steps": 3000}},
        EXIT_OK,
        "a4ccef0dba20b1c06e8fe8b9a891e535c7e83cd8392a3e13b6a3e3650df91cf3",
    ),
    "lyapunov-2d": (
        "lyapunov", [],
        {"model": TWO_BANK, "run": {"seed": 1, "transient": 300},
         "lyapunov": {"steps": 3000}},
        EXIT_OK,
        "533475c9c5f46aad6dec97be1501630c21dd9b331e20ef9ddb9e8fbb323598db",
    ),
    "attractor": (
        "attractor", [],
        {"model": TWO_BANK, "run": {"seed": 3, "transient": 300},
         "attractor": {"n_points": 2000}},
        EXIT_OK,
        "6a6c154ccb461b3a5174c332c9885867c195a0c493e501fd2a1fd95eef706893",
    ),
    "boxdim": (
        "boxdim", [],
        {"model": TWO_BANK, "run": {"seed": 3, "transient": 300},
         "attractor": {"n_points": 100_000}, "boxdim": {"eps_decades": 2.0, "n_scales": 8}},
        EXIT_OK,
        "7edf3b8649e391a1860fb2fdba844298966aa00a38326a6ca926c334d41ac82c",
    ),
    "fixedpoint": (
        "fixedpoint", [],
        {"model": {"omegas": [0.5]},
         "skew": {"omega1": 0.5, "history": {"kind": "orbit", "depth": 80, "omega2": 0.3,
                                              "transient": 300}}},
        EXIT_OK,
        "adceee2b53216fa74e094f3bcff520267274d2ae85bd8dae4ca094d03bcba0e2",
    ),
    "micro": (
        "micro", [],
        {"model": TWO_BANK, "run": {"seed": 5},
         "micro": {"n_intraday": 30, "horizon": 12}},
        EXIT_OK,
        "9037bb56027c43e02aaa84cfdc70f6757d93b72e19688e794088279f9f5b8fb8",
    ),
    "stability-map": (
        "stability-map", ["--workers", "2"],
        {
            "model": {"omegas": [0.5]},
            "run": {"seed": 9, "transient": 400, "record": 120},
            "stability": {"omega1_range": [0.05, 0.95], "omega2_range": [0.05, 0.95],
                          "resolution": [4, 3], "pi1": 0.5, "initials_per_point": 2},
        },
        EXIT_OK,
        "616dccaec42e294966196cdc6661396ac6bae01169c1676a79af5dea1519063b",
    ),
}


def output_digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"# timestamp:"))
    return hashlib.sha256(kept).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    command, extra, document, exit_code, expected = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    digest = output_digest(out)
    print(f"{name}: exit {code} sha256 {digest}")
    assert code == exit_code
    assert digest == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_python_loops(name, tmp_path):
    with python_loops():
        test_golden_output(name, tmp_path)
