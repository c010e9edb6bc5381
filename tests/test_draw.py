from __future__ import annotations

import ast
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import levdyn
from levdyn import _kernel, sweep
from levdyn._draw import uniform
from levdyn.micro import _Shocks
from levdyn.params import ModelParams
from levdyn.sweep import SweepSpec

from conftest import needs_kernel

#: single words, values past 2**32, 2**64 and 2**128, and 0
entropy_ints = st.one_of(
    st.just(0),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**200),
    st.sampled_from([2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**128 + 1]),
)
#: an int, or a list of ints, whose words may fill the pool of 4 or pass it
entropies = st.one_of(entropy_ints, st.lists(entropy_ints, min_size=1, max_size=6))


def numpy_rows(entropy, low: float, high: float, rows: int, cols: int) -> list[list[float]]:
    return np.random.default_rng(entropy).uniform(low, high, (rows, cols)).tolist()


def bits(rows: list[list[float]]) -> list[list[str]]:
    return [[x.hex() for x in row] for row in rows]


@settings(max_examples=500, deadline=None)
@given(entropy=entropies, low=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e6),
       rows=st.integers(0, 5), cols=st.integers(0, 4))
@example(entropy=0, low=0.0, width=1.0, rows=2, cols=3)
@example(entropy=[0, 0, 0, 0, 0], low=1.0, width=0.0, rows=1, cols=1)
@example(entropy=[2**128, 1, 2**64 - 1], low=-1.0, width=2.0, rows=3, cols=2)
def test_draws_are_numpys_uniform_bits(entropy, low, width, rows, cols):
    high = low + width
    want = numpy_rows(entropy, low, high, rows, cols)
    assert bits(uniform(entropy, low, high, rows, cols)) == bits(want)


def test_negative_entropy_is_refused():
    for entropy in (-1, [3, -1]):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError, match="non-negative"):
            uniform(entropy, 0.0, 1.0, 1, 1)


#: a grid value's float64 bits as one word (0.0), two words with the top
#: bit set (-0.0), two words (1.0) and one word (the least subnormal)
@pytest.mark.parametrize("value", [0.0, -0.0, 1.0, 5e-324])
@pytest.mark.parametrize("rng_seed", [0, 7, 2**40])
def test_point_initials_are_numpys_draws_from_seed_and_value_bits(value, rng_seed):
    params = ModelParams(omegas=(0.5, 0.3), pis=(0.5, 0.5))
    spec = SweepSpec(axis="pi1", bounds=(0.0, 1.0), resolution=2, fixed=params,
                     initials_per_point=4, rng_seed=rng_seed)
    value_bits = int(np.float64(value).view(np.uint64))
    want = numpy_rows([rng_seed, value_bits], 1.0, params.lambda_max, 4, 2)
    assert bits(sweep._point_initials(spec, value, params)) == bits(want)


def test_seeded_commands_load_neither_numpy_random_nor_openssl(tmp_path):
    # in a fresh process, each command drawing its start from run.seed;
    # hashlib's OpenSSL module is checked where the interpreter has a
    # built-in sha256 for levdyn's digests to use
    check_hashlib = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
    cfg = tmp_path / "seeded.json"
    cfg.write_text(json.dumps({
        "model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]},
        "run": {"seed": 3, "transient": 200, "record": 50},
        "attractor": {"n_points": 2000}, "lyapunov": {"steps": 500},
    }))
    commands = [[name, "--config", str(cfg), "--out", str(tmp_path / f"{name}.out")]
                for name in ("simulate", "attractor", "boxdim", "lyapunov")]
    src = str(Path(levdyn.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-W", "ignore::UserWarning", "-c",
         "import sys; from levdyn.cli import main; "
         f"print([main(args) for args in {commands!r}], "
         "'numpy.random' in sys.modules, '_hashlib' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, numpy_random, hashlib_loaded = done.stdout.rsplit(maxsplit=2)
    assert codes == "[0, 0, 0, 0]"
    assert numpy_random == "False"
    if check_hashlib:
        assert hashlib_loaded == "False"
    for name in ("simulate", "attractor"):
        assert "# seed: 3\n" in (tmp_path / f"{name}.out").read_text()
    for name in ("boxdim", "lyapunov"):
        assert json.loads((tmp_path / f"{name}.out").read_text())["provenance"]["seed"] == 3


@needs_kernel
def test_grid_commands_load_no_numpy_random_in_process_or_in_workers(tmp_path):
    """In a fresh process on the compiled loops, every exponent's start
    vector is levdyn's own draw: grid points run in pool workers, forked
    before any command, leave numpy.random out of each worker, and then
    bifurcate and stability-map on small seeded configs, on one worker,
    leave it out of the main process."""
    bif, grid = tmp_path / "bif.json", tmp_path / "map.json"
    run = {"seed": 1, "transient": 200, "record": 60}
    bif.write_text(json.dumps({"run": run, "sweep": {"resolution": 6}}))
    grid.write_text(json.dumps({
        "model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]}, "run": run,
        "stability": {"omega1_range": [0.0, 1.0], "omega2_range": [0.0, 1.0],
                      "resolution": [4, 4], "pi1": 0.5},
    }))
    commands = [
        ["bifurcate", "--preset", "fig5", "--config", str(bif), "--workers", "1",
         "--out", str(tmp_path / "bif.csv")],
        ["stability-map", "--config", str(grid), "--workers", "1",
         "--out", str(tmp_path / "map.csv")],
    ]
    src = str(Path(levdyn.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from levdyn import sweep\n"
        "from levdyn.cli import main\n"
        "from levdyn.params import ModelParams\n"
        "def probe(spec, value):\n"
        "    record = sweep._eval_point(spec, value)\n"
        "    return record.lyapunov_top is not None, 'numpy.random' in sys.modules\n"
        "spec = sweep.SweepSpec(axis='pi1', bounds=(0.0, 1.0), resolution=4,\n"
        "                       fixed=ModelParams(omegas=(0.5, 0.3), pis=(0.5, 0.5)),\n"
        "                       transient=200, record=60, rng_seed=1)\n"
        "workers = sweep._map(probe, [(spec, float(v)) for v in spec.grid()], 2)\n"
        f"codes = [main(args) for args in {commands!r}]\n"
        "print(workers, codes, 'numpy.random' in sys.modules, sep='\\n')\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    workers, codes, numpy_random = map(ast.literal_eval, done.stdout.splitlines())
    exponents, loaded = zip(*workers)
    assert any(exponents) and loaded == (False,) * 4
    assert (codes, numpy_random) == ([0, 0], False)


def _table(name: str) -> list[str]:
    """The entries of one of the ziggurat's tables as ``_kernel.c`` spells them."""
    body = re.search(rf"ZIGGURAT_{name}\[256\] = \{{(.*?)\}};", _kernel.SOURCE.read_text(), re.S)
    return body.group(1).replace(",", " ").split()


KI = [int(word, 16) for word in _table("KI")]
WI, FI = ([float.fromhex(word) for word in _table(name)] for name in ("WI", "FI"))
R, INV_R = float.fromhex("0x1.d3bb48209ad33p+1"), float.fromhex("0x1.183aa6c20e8c1p-2")


def ziggurat(entropy, draws: int) -> tuple[list[float], Counter]:
    """NumPy's ziggurat, as ``_kernel.c`` writes it, in Python on the raw
    words of ``default_rng(entropy)``: the first ``draws`` normals, and
    how many of them took the fast path, the tail (strip 0) or the wedge,
    with the wedge's rejections."""
    words = iter(np.random.default_rng(entropy).bit_generator.random_raw(
        draws * 11 // 10 + 100).tolist())

    def unit() -> float:
        return (next(words) >> 11) * 2.0**-53

    out, paths = [], Counter()
    while len(out) < draws:
        bits = next(words)
        idx = bits & 0xFF
        rabs = bits >> 9 & (2**52 - 1)
        x = -(rabs * WI[idx]) if bits >> 8 & 1 else rabs * WI[idx]
        if rabs < KI[idx]:
            paths["fast"] += 1
        elif idx == 0:
            while True:
                xx = -INV_R * math.log1p(-unit())
                yy = -math.log1p(-unit())
                if yy + yy > xx * xx:
                    break
            x = -(R + xx) if rabs >> 8 & 1 else R + xx
            paths["tail"] += 1
        elif (FI[idx - 1] - FI[idx]) * unit() + FI[idx] < math.exp(-0.5 * x * x):
            paths["wedge"] += 1
        else:
            paths["rejected"] += 1
            continue
        out.append(x)
    return out, paths


@needs_kernel
@settings(max_examples=100, deadline=None)
@given(entropy=entropies, k=st.integers(0, 20_000))
@example(entropy=0, k=1)
@example(entropy=[2**128, 1, 2**64 - 1], k=20_000)
def test_compiled_normals_are_numpys_standard_normals(entropy, k):
    want = np.random.default_rng(entropy).standard_normal(k)
    assert _Shocks(entropy, 0, 1.0).draw(k).tobytes() == want.tobytes()


def test_a_long_run_of_normals_takes_the_tail_and_the_wedge():
    # 500,000 draws of one stream, in two calls that carry the state over:
    # NumPy's, levdyn's (with no compiled loops, numpy's again) and the
    # Python ziggurat's, which counts the slow paths they take
    entropy, draws = 20_260_517, 500_000
    want = np.random.default_rng(entropy).standard_normal(draws).tobytes()
    shocks = _Shocks(entropy, 0, 1.0)
    assert np.concatenate([shocks.draw(123_457), shocks.draw(draws - 123_457)]).tobytes() == want
    normals, paths = ziggurat(entropy, draws)
    assert np.array(normals).tobytes() == want
    assert paths["tail"] > 50 and paths["wedge"] > 1_000 and paths["rejected"] > 1_000


def test_the_probes_pinned_normals_are_numpys():
    pinned = _kernel.PROBE_NORMALS
    want = np.random.default_rng(_kernel.PROBE_SEED).standard_normal(len(pinned)).tolist()
    assert [x.hex() for x in pinned] == [x.hex() for x in want]
    normals, paths = ziggurat(_kernel.PROBE_SEED, len(pinned))
    assert normals == want
    assert paths == Counter(fast=4, wedge=1, rejected=1, tail=1)
