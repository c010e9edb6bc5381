from __future__ import annotations

import copy
import io
import json
import logging
import math
import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import MISSING, fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levdyn
from levdyn.cli import main
from levdyn.config import (
    AttractorBlock,
    BoxdimBlock,
    ConfigError,
    HistorySpec,
    LyapunovBlock,
    MicroBlock,
    RunBlock,
    SkewBlock,
    StabilityBlock,
    SweepBlock,
    load_config,
    merge_preset,
    parse_config,
)
from levdyn.output import RowBlock, format_value, read_csv, write_csv

from conftest import python_loops

STD_MODEL = {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]}

#: JSON documents of scalars and one level of nested objects, over few
#: keys, so that a document and a preset often share keys and blocks
_keys = st.sampled_from(["model", "run", "sweep", "a", "b"])
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                     st.text(max_size=3), st.lists(st.integers(), max_size=2))
_documents = st.dictionaries(
    _keys, st.one_of(_scalars, st.dictionaries(_keys, _scalars, max_size=4)), max_size=5)


def _merge_by_key(document, preset):
    """The preset overlay as a walk over every key: a key in both takes
    the user's value, or the union of both objects with the user's keys
    winning where both values are objects."""
    merged = {}
    for key in set(document) | set(preset):
        if key in document and key in preset:
            a, b = preset[key], document[key]
            merged[key] = {**a, **b} if isinstance(a, dict) and isinstance(b, dict) else b
        else:
            merged[key] = document[key] if key in document else preset[key]
    return merged


#: the smallest valid form of every block
EVERY_BLOCK = {
    "run": {}, "attractor": {}, "boxdim": {}, "lyapunov": {},
    "sweep": {"axis": "pi1", "range": [0.0, 1.0], "resolution": 3},
    "skew": {"omega1": 0.5, "history": {"kind": "constant", "level": 80.0, "depth": 3}},
    "micro": {"n_intraday": 10, "horizon": 2},
    "stability": {"omega1_range": [0.0, 1.0], "omega2_range": [0.0, 1.0],
                  "resolution": [2, 2], "pi1": 0.5},
}


def with_block(path: str, block: dict) -> dict:
    """A document with every block, the one at dotted ``path`` replaced."""
    document = {"model": STD_MODEL, **copy.deepcopy(EVERY_BLOCK)}
    *outer, name = path.split(".")
    reduce(dict.__getitem__, outer, document)[name] = block
    return document


def write_config(tmp_path: Path, document: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def strip_timestamp(path: Path) -> list[str]:
    return [
        line
        for line in path.read_text().splitlines()
        if not line.startswith("# timestamp:")
    ]


class TestConfigParsing:
    def test_defaults_filled(self):
        cfg = parse_config({"model": {"omegas": [0.4]}})
        assert cfg.model.alpha == 1.64
        assert cfg.model.gamma == 100.0
        assert cfg.model.sigma_eps_sq == 0.0015**2
        assert cfg.model.pis == (1.0,)
        assert cfg.run.transient == 1000
        assert cfg.run.record == 800

    def test_integral_floats_read_as_integers(self):
        cfg = parse_config({
            "model": {"omegas": [0.4]},
            "run": {"seed": 7.0, "transient": 2e3},
            "attractor": {"n_points": 1e6},
            "boxdim": {"fit_range": [2.0, 6]},
        })
        assert (cfg.run.seed, cfg.run.transient, cfg.attractor.n_points) == (7, 2000, 10**6)
        assert cfg.boxdim.fit_range == (2, 6)
        assert all(type(v) is int for v in (cfg.run.seed, cfg.run.transient,
                                             cfg.attractor.n_points, *cfg.boxdim.fit_range))
        assert parse_config({"model": {"omegas": [0.4]}, "run": {"seed": 2**70}}).run.seed == 2**70

    def test_absent_blocks_take_block_defaults(self):
        cfg = parse_config({"model": {"omegas": [0.4]}})
        assert cfg.attractor == AttractorBlock() == parse_config(
            {"model": {"omegas": [0.4]}, "attractor": {}}
        ).attractor
        assert cfg.attractor.n_points == 1_000_000
        assert (cfg.boxdim.eps_decades, cfg.boxdim.n_scales, cfg.boxdim.fit_range) == (
            3.0, 12, None
        )
        assert cfg.lyapunov.steps == 100_000
        assert cfg.sweep is None and cfg.micro is None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"model": {"omegas": [0.4]}, "plotting": {}})
        assert "plotting" in str(info.value)

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"model": {"omegas": [0.4], "beta": 2}})
        assert "model.beta" in str(info.value)

    @pytest.mark.parametrize("path, cls", [
        ("run", RunBlock), ("sweep", SweepBlock), ("attractor", AttractorBlock),
        ("boxdim", BoxdimBlock), ("lyapunov", LyapunovBlock), ("skew", SkewBlock),
        ("skew.history", HistorySpec), ("micro", MicroBlock), ("stability", StabilityBlock),
    ])
    def test_every_block_rejects_unknown_keys(self, path, cls):
        def read(block):
            return reduce(getattr, path.split("."), parse_config(with_block(path, block)))

        minimal = reduce(dict.__getitem__, path.split("."), EVERY_BLOCK)
        assert isinstance(read(minimal), cls)
        with pytest.raises(ConfigError) as info:
            read({**minimal, "stray": 1})
        assert info.value.key == f"{path}.stray"
        # an empty block is the default block; a null one is an absent one
        if all(f.default is not MISSING for f in fields(cls)):
            assert read({}) == read(None) == cls()
        else:
            with pytest.raises(ConfigError, match="missing required key"):
                read({})
            assert read(None) is None

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError) as info:
            parse_config(
                {"model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.4]}}
            )
        assert "model.pis" in str(info.value)

    def test_missing_omegas_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"model": {}})

    def test_seed_demanded_for_random_commands(self):
        cfg = parse_config({"model": {"omegas": [0.4]}})
        with pytest.raises(ConfigError):
            cfg.require_seed("bifurcate")

    def test_preset_merge_user_wins(self):
        from levdyn.cli import PRESETS

        user = {"model": {"omegas": [0.6, 0.2]}, "sweep": {"resolution": 12}}
        merged = merge_preset(user, PRESETS["fig5"])
        assert merged["model"]["omegas"] == [0.6, 0.2]
        assert merged["model"]["pis"] == [0.5, 0.5]
        assert merged["sweep"]["resolution"] == 12
        assert merged["sweep"]["axis"] == "pi1"

    @settings(deadline=None)
    @given(document=_documents, preset=_documents)
    def test_preset_merge_matches_key_walk(self, document, preset):
        assert merge_preset(document, preset) == _merge_by_key(document, preset)

    @pytest.mark.parametrize("root", [None, [1, 2]])
    @pytest.mark.parametrize("preset", [[], ["--preset", "fig5"]])
    def test_root_not_an_object_exits_2(self, tmp_path, capsys, root, preset):
        cfg = tmp_path / "root.json"
        cfg.write_text(json.dumps(root))
        assert main(["bifurcate", "--config", str(cfg), *preset]) == 2
        assert ("levdyn: configuration error: configuration root must be a JSON object"
                in capsys.readouterr().err.splitlines())

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  oops\n}")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "line" in str(info.value)

    @pytest.mark.parametrize("preset", [[], ["--preset", "fig5"]])
    def test_read_errors_same_with_and_without_preset(self, tmp_path, capsys, preset):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  oops\n}")
        missing = tmp_path / "missing.json"
        assert main(["bifurcate", "--config", str(bad), *preset]) == 2
        assert main(["bifurcate", "--config", str(missing), *preset]) == 2
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if line.startswith("levdyn:")]
        assert lines[0] == (
            "levdyn: configuration error: invalid JSON at line 2, column 3: "
            "Expecting property name enclosed in double quotes"
        )
        assert lines[1].startswith("levdyn: configuration error: cannot read config: ")
        assert str(missing) in lines[1]


class TestCsvRoundTrip:
    def test_floats_survive_exactly(self, rng):
        values = [float(v) for v in rng.uniform(-1e6, 1e6, 100)]
        values += [1.0 / 3.0, math.pi, 2.25e-06, 81.0593900481541]
        buf = io.StringIO()
        write_csv(buf, ["x"], [RowBlock((), (np.array(values),), ())], "deadbeef", 42)
        buf.seek(0)
        provenance, columns, rows = read_csv(buf)
        assert columns == ["x"]
        assert provenance["config_sha256"] == "deadbeef"
        assert provenance["seed"] == "42"
        assert rows == [[format_value(v)] for v in values]
        back = [float(r[0]) for r in rows]
        assert back == values

    def test_bools_and_ints(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value(7) == "7"
        assert format_value(None) == ""


class TestCliCommands:
    def test_simulate_sync_column_decreases(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.3, 0.3], "pis": [0.5, 0.5]},
                "run": {"transient": 0, "record": 60, "seed": 9},
            },
        )
        out = tmp_path / "orbit.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with out.open() as fh:
            _, columns, rows = read_csv(fh)
        assert columns == ["t", "lambda_1", "lambda_2", "sync_12", "feasible"]
        sync = [float(r[3]) for r in rows]
        for a, b in zip(sync, sync[1:]):
            if a < 1e-9:
                break
            assert b < a

    def test_simulate_full_memory_constant(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [1.0]},
                "run": {"transient": 0, "record": 40, "initial": [50.0]},
            },
        )
        out = tmp_path / "orbit.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with out.open() as fh:
            _, _, rows = read_csv(fh)
        lams = {r[1] for r in rows}
        assert len(lams) <= 2  # identity map up to one rounding step

    def test_simulate_violation_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.2]},
                "run": {"transient": 0, "record": 100, "initial": [50.0]},
            },
        )
        out = tmp_path / "orbit.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3

    def test_violating_orbit_keeps_its_rows(self, tmp_path):
        # exit 3 returned by the command: the rows up to the escape are data
        cfg = write_config(
            tmp_path,
            {"model": {"omegas": [0.2]}, "run": {"transient": 0, "record": 100,
                                                 "initial": [50.0]}},
        )
        out = tmp_path / "orbit.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        with out.open() as fh:
            assert len(read_csv(fh)[2]) > 0

    def test_out_in_missing_directory_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": STD_MODEL, "run": {"initial": [50.0, 60.0]}})
        out = tmp_path / "no-such-dir" / "z.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("levdyn: error: ")
        assert str(out) in err[0]

    @pytest.mark.parametrize("document, out, code, line", [
        (None, "z.csv", 2, "levdyn: configuration error: cannot read config: "),
        ({"model": STD_MODEL, "run": {"initial": [50.0, 60.0]}}, "no-such-dir/z.csv", 1,
         "levdyn: error: "),
        ({"model": {"omegas": [0.5]}, "run": {"initial": [200.0]}}, "z.csv", 3,
         "levdyn: constraint violation: "),
        # exit 3 returned by the command, which logs the violation itself
        ({"model": {"omegas": [0.2]}, "run": {"transient": 0, "record": 100,
                                              "initial": [50.0]}}, "z.csv", 3,
         "ERROR levdyn: orbit violated "),
    ])
    def test_a_failed_run_prints_one_stderr_line(self, tmp_path, document, out, code, line):
        # in a fresh process, where the log handler writes to stderr as main does
        cfg = tmp_path / "cfg.json" if document is None else write_config(tmp_path, document)
        src = str(Path(levdyn.__file__).parents[1])
        env = {**os.environ, "LEVDYN_LOG": "error",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "levdyn.cli", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == code
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(line), err

    @pytest.mark.parametrize("command, document, code", [
        ("bifurcate", {"model": STD_MODEL, "run": {"seed": 1}}, 2),
        ("simulate", {"model": {"omegas": [0.5]}, "run": {"initial": [200.0]}}, 3),
    ])
    def test_failed_command_leaves_no_out_file(self, tmp_path, command, document, code):
        # an exception escaping the command used to leave an empty file
        cfg = write_config(tmp_path, document)
        out = tmp_path / "z.csv"
        out.write_text("an older run\n")
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert not out.exists()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = write_config(
            tmp_path, {"model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.4]}}
        )
        assert main(["simulate", "--config", bad]) == 2
        missing_sweep = write_config(
            tmp_path, {"model": STD_MODEL, "run": {"seed": 1}}, "m.json"
        )
        assert main(["bifurcate", "--config", missing_sweep]) == 2
        bad_resolution = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.5]},
                "run": {"seed": 1},
                "sweep": {"axis": "omega", "range": [0.0, 1.0], "resolution": 1},
            },
            "r.json",
        )
        assert main(["bifurcate", "--config", bad_resolution]) == 2
        capsys.readouterr()
        stability = {
            "omega1_range": [0.0, 1.0], "omega2_range": [0.0, 1.0],
            "resolution": [3, 3], "pi1": 0.5,
        }
        history = {"kind": "orbit", "depth": 20, "omega2": 0.3}
        sweep = {"axis": "omega", "range": [0.0, 1.0], "resolution": 5}
        micro = {"n_intraday": 100, "horizon": 5}
        cases = [
            ("simulate", {"run": {"transient": "abc", "initial": [50.0, 60.0]}},
             "run.transient"),
            ("simulate", {"run": {"initial": [50.0]}}, "run.initial"),
            ("stability-map", {"run": {"seed": 1},
                               "stability": {**stability, "resolution": [1, 3]}},
             "stability.resolution"),
            ("stability-map", {"run": {"seed": 1}, "stability": {**stability, "pi1": 1.5}},
             "stability.pi1"),
            ("lyapunov", {"run": {"initial": [50.0, 60.0]}, "lyapunov": {"steps": 0}},
             "lyapunov.steps"),
            ("stability-map", {"run": {"seed": 1},
                               "stability": {**stability, "initials_per_point": 0}},
             "stability.initials_per_point"),
            ("attractor", {"run": {"seed": 1}, "attractor": {"n_points": 0}},
             "attractor.n_points"),
            ("attractor", {"model": {"omegas": [0.5]}, "run": {"seed": 1}}, "model.omegas"),
            ("boxdim", {"model": {"omegas": [0.5]}, "run": {"seed": 1}}, "model.omegas"),
            ("boxdim", {"run": {"seed": 1}, "boxdim": {"n_scales": 2}}, "boxdim.n_scales"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {**history, "depth": 0}}},
             "skew.history.depth"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {**history, "transient": -1}}},
             "skew.history.transient"),
            ("stability-map", {"run": {"seed": 1, "record": 2}, "stability": stability},
             "run.record"),
            ("stability-map", {"run": {"seed": 1},
                               "stability": {**stability, "omega1_range": [-0.5, 1]}},
             "stability.omega1_range"),
            ("stability-map", {"run": {"seed": 1},
                               "stability": {**stability, "omega2_range": [-0.5, 1]}},
             "stability.omega2_range"),
            ("boxdim", {"run": {"seed": 1}, "attractor": {"n_points": 1000},
                        "boxdim": {"eps_decades": -1}}, "boxdim.eps_decades"),
            ("boxdim", {"run": {"seed": 1}, "attractor": {"n_points": 1000},
                        "boxdim": {"fit_range": [5, 3]}}, "boxdim.fit_range"),
            ("boxdim", {"run": {"seed": 1}, "attractor": {"n_points": 1000},
                        "boxdim": {"eps_decades": 10}}, "boxdim.eps_decades"),
            ("simulate", {"model": {"omegas": [1.5]}, "run": {"seed": 1}}, "model.omegas"),
            ("simulate", {"model": {**STD_MODEL, "alpha": 0}, "run": {"seed": 1}},
             "model.alpha"),
            ("fixedpoint", {"skew": {"omega1": 1.5, "history": history}}, "skew.omega1"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "tol": -1, "history": history}},
             "skew.tol"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {**history, "x0": 500}}},
             "skew.history.x0"),
            ("bifurcate", {"model": {"omegas": [0.5]}, "run": {"seed": 1, "record": 2},
                           "sweep": sweep}, "run.record"),
            ("bifurcate", {"model": {"omegas": [0.5]}, "run": {"seed": 1},
                           "sweep": {**sweep, "axis": "zeta"}}, "sweep.axis"),
            ("bifurcate", {"run": {"seed": 1}, "sweep": sweep}, "sweep.axis"),
            ("bifurcate", {"model": {"omegas": [0.5]}, "run": {"seed": 1},
                           "sweep": {**sweep, "range": [0.7, 0.2]}}, "sweep.range"),
            ("bifurcate", {"model": {"omegas": [0.5]}, "run": {"seed": 1},
                           "sweep": {**sweep, "range": [0.0, 1.5]}}, "sweep.range"),
            ("bifurcate", {"model": {"omegas": [0.5]}, "run": {"seed": 1},
                           "sweep": {**sweep, "resolution": 1}}, "sweep.resolution"),
            ("micro", {"run": {"seed": 1}, "micro": {**micro, "n_intraday": 1}},
             "micro.n_intraday"),
            ("micro", {"run": {"seed": 1}, "micro": {**micro, "horizon": 0}}, "micro.horizon"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {**history, "omega2": 1.5}}},
             "skew.history.omega2"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {**history, "kind": "spiral"}}},
             "skew.history.kind"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {
                "kind": "constant", "depth": 20, "level": 500}}}, "skew.history.level"),
            ("simulate", {"run": {"initial": [0.5, 60.0]}}, "run.initial"),
            ("attractor", {"run": {"initial": [0.5, 60.0]}}, "run.initial"),
            ("lyapunov", {"run": {"initial": [0.5, 60.0]}}, "run.initial"),
            ("micro", {"run": {"seed": 1, "initial": [0.5, 60.0]}, "micro": micro},
             "run.initial"),
            ("lyapunov", {"model": {"omegas": [0.5]}, "run": {"initial": [0.5]}}, "run.initial"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {**history, "x0": 0.5,
                                                                 "transient": 0}}},
             "skew.history.x0"),
            ("micro", {"model": {**STD_MODEL, "pis": [0.0, 1.0]}, "run": {"seed": 1},
                       "micro": micro}, "model.pis"),
            # integer keys take JSON integers and integral floats only
            ("bifurcate", {"model": {"omegas": [0.5]}, "run": {"seed": 1},
                           "sweep": {**sweep, "resolution": 2.5}}, "sweep.resolution"),
            ("attractor", {"run": {"seed": 2.9}}, "run.seed"),
            # past int64 a count would wrap in the compiled loops
            ("attractor", {"run": {"seed": 1, "transient": 2**64 + 5}}, "run.transient"),
            ("simulate", {"run": {"seed": 1, "record": 2.0**63}}, "run.record"),
            # numpy's seeding takes non-negative integers only
            ("simulate", {"run": {"seed": -1}}, "run.seed"),
            ("bifurcate", {"model": {"omegas": [0.5]}, "run": {"seed": -1},
                           "sweep": sweep}, "run.seed"),
            ("attractor", {"run": {"seed": True}}, "run.seed"),
            ("attractor", {"run": {"seed": "1"}}, "run.seed"),
            ("lyapunov", {"run": {"initial": [50.0, 60.0]}, "lyapunov": {"steps": True}},
             "lyapunov.steps"),
            ("boxdim", {"run": {"seed": 1}, "boxdim": {"fit_range": [2.5, 6]}},
             "boxdim.fit_range"),
            # float keys take JSON numbers only, not strings or booleans
            ("stability-map", {"run": {"seed": 1}, "stability": {**stability, "pi1": "0.5"}},
             "stability.pi1"),
            ("simulate", {"model": {**STD_MODEL, "alpha": True}, "run": {"seed": 1}},
             "model.alpha"),
            ("simulate", {"model": {"omegas": [True]}, "run": {"seed": 1}}, "model.omegas"),
            ("fixedpoint", {"skew": {"omega1": "0.5", "history": history}}, "skew.omega1"),
            ("fixedpoint", {"skew": {"omega1": 0.5, "history": {
                "kind": "constant", "depth": 20, "level": "80"}}}, "skew.history.level"),
            ("simulate", {"run": {"initial": [50.0, "60"]}}, "run.initial"),
            # zero_noise takes JSON booleans only
            ("micro", {"run": {"seed": 1}, "micro": {**micro, "zero_noise": "no"}},
             "micro.zero_noise"),
            ("micro", {"run": {"seed": 1}, "micro": {**micro, "zero_noise": 1}},
             "micro.zero_noise"),
        ]
        for command, document, key in cases:
            cfg = write_config(tmp_path, {"model": STD_MODEL, **document}, "case.json")
            grid = ["--workers", "1"] if command in ("bifurcate", "stability-map") else []
            assert main([command, "--config", cfg, *grid]) == 2, key
            err = capsys.readouterr().err
            assert f"levdyn: configuration error: {key}: " in err, err
        # a one-bank lyapunov starts from run.initial; its old start key is gone
        cfg = write_config(tmp_path, {"model": {"omegas": [0.5]}, "lyapunov": {"x0": 50.0}},
                           "case.json")
        assert main(["lyapunov", "--config", cfg]) == 2
        assert "levdyn: configuration error: lyapunov.x0: unknown key" in capsys.readouterr().err
        # the total equity cancels from every micro output, so it is no key
        cfg = write_config(tmp_path, {"model": STD_MODEL, "run": {"seed": 1},
                                      "micro": {**micro, "equity_total": 2.0}}, "case.json")
        assert main(["micro", "--config", cfg]) == 2
        assert ("levdyn: configuration error: micro.equity_total: unknown key"
                in capsys.readouterr().err)

    def test_start_past_the_bound_exits_3(self, tmp_path, capsys):
        # a mean field past 1 + gamma = 101 is a constraint violation in
        # every command that starts from run.initial
        past = {"initial": [150.0, 150.0]}
        cases = [
            ("simulate", {"model": {"omegas": [0.5]}, "run": {"initial": [200.0]}}),
            ("attractor", {"model": STD_MODEL, "run": past}),
            ("boxdim", {"model": STD_MODEL, "run": past}),
            ("lyapunov", {"model": STD_MODEL, "run": past}),
            ("lyapunov", {"model": {"omegas": [0.5]}, "run": {"initial": [150.0]}}),
            ("micro", {"model": STD_MODEL, "run": {**past, "seed": 1},
                       "micro": {"n_intraday": 100, "horizon": 5}}),
        ]
        for command, document in cases:
            cfg = write_config(tmp_path, document, "case.json")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3, (
                command, document)
            assert "levdyn: constraint violation: " in capsys.readouterr().err

    @pytest.mark.parametrize("loops", [nullcontext, python_loops])
    def test_overflowing_leverage_square_exits_1(self, tmp_path, capsys, loops):
        cases = [
            # feasible, as the bank at 1e200 has zero weight, but its square
            # overflows in the first step; this used to end in a
            # ZeroDivisionError traceback
            ({"model": {"omegas": [1.0, 0.3], "pis": [0.0, 1.0]},
              "run": {"initial": [1e200, 50.0], "record": 3, "transient": 0}},
             ("simulate", "attractor", "boxdim", "lyapunov"), "float division by zero"),
            # an orbit record too large to allocate fails at once, without
            # allocating; this used to end in a numpy MemoryError traceback
            ({"model": {"omegas": [0.5]}, "run": {"initial": [50.0], "record": 10**15}},
             ("simulate",), "Unable to allocate"),
        ]
        out = tmp_path / "out"
        for document, commands, message in cases:
            cfg = write_config(tmp_path, document)
            for command in commands:
                with loops():
                    assert main([command, "--config", cfg, "--out", str(out)]) == 1, command
                assert f"levdyn: error: {message}" in capsys.readouterr().err
                assert not out.exists()

    def test_micro_zero_noise_start_on_bound_exits_3(self, tmp_path, capsys):
        # the mean field 101 = 1 + gamma makes phi = 1; this used to end
        # in a ZeroDivisionError traceback and exit 1
        cfg = write_config(
            tmp_path,
            {
                "model": STD_MODEL,
                "run": {"seed": 1, "initial": [101, 101]},
                "micro": {"n_intraday": 100, "horizon": 5, "zero_noise": True},
            },
        )
        out = tmp_path / "micro.csv"
        assert main(["micro", "--config", cfg, "--out", str(out)]) == 3
        assert "levdyn: constraint violation: |phi_hat| = 1.000000 >= 1 in period 0" in (
            capsys.readouterr().err
        )

    def test_micro_overflowing_run_exits_3(self, tmp_path, capsys):
        # the returns overflow in period 1; the run used to write NaN
        # leverages and exit 0
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.72, 0.07], "pis": [0.6, 0.4]},
                "run": {"seed": 682, "initial": [35, 97]},
                "micro": {"n_intraday": 100, "horizon": 10},
            },
        )
        out = tmp_path / "micro.csv"
        assert main(["micro", "--config", cfg, "--out", str(out)]) == 3
        assert "bank 0 insolvent in period 1" in capsys.readouterr().err

    @pytest.mark.parametrize("loops", [nullcontext, python_loops])
    def test_micro_deterministic_escape_exits_3(self, tmp_path, capsys, loops):
        # the stochastic run survives, but the coupled map from 100.9 falls
        # below leverage 1 at its first step, as simulate reports; this
        # used to exit 0 with a deterministic leverage of 0.5749
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.5]},
                "run": {"seed": 1, "initial": [100.9]},
                "micro": {"n_intraday": 100, "horizon": 5},
            },
        )
        out = tmp_path / "micro.csv"
        with loops():
            assert main(["micro", "--config", cfg, "--out", str(out)]) == 3
        assert ("levdyn: constraint violation: orbit violated leverage_floor at step 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_lyapunov_identity_memory_reports_zero(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [1.0]},
                "run": {"transient": 100, "initial": [50.0]},
                "lyapunov": {"steps": 500},
            },
        )
        out = tmp_path / "lyap.json"
        assert main(["lyapunov", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["exponents"] == [0.0]
        assert payload["provenance"]["levdyn_version"]

    def test_fixedpoint_constant_history_closed_form(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": STD_MODEL,
                "skew": {
                    "omega1": 0.5,
                    "history": {"kind": "constant", "level": 80.0, "depth": 300},
                },
            },
        )
        out = tmp_path / "fp.json"
        assert main(["fixedpoint", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        want = (1 + 100.0 - 80.0) / (100.0 * 1.64 * 0.0015)
        assert payload["value"] == pytest.approx(want, abs=1e-12 * want)

    def test_boxdim_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.5, 0.3], "pis": [0.8, 0.2]},
                "run": {"transient": 2000, "initial": [50.0, 60.0]},
                "attractor": {"n_points": 150_000},
                "boxdim": {"eps_decades": 2.8, "n_scales": 12},
            },
        )
        out = tmp_path / "dim.json"
        assert main(["boxdim", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert 1.0 < payload["slope"] < 1.45
        assert payload["n_points"] == 150_000
        counts = payload["counts"]
        assert all(a >= b for a, b in zip(counts, counts[1:])) or all(
            a <= b for a, b in zip(counts, counts[1:])
        )

    def test_attractor_csv_schema(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": STD_MODEL,
                "run": {"transient": 500, "initial": [50.0, 60.0]},
                "attractor": {"n_points": 2000},
            },
        )
        out = tmp_path / "cloud.csv"
        assert main(["attractor", "--config", cfg, "--out", str(out)]) == 0
        with out.open() as fh:
            provenance, columns, rows = read_csv(fh)
        assert columns == ["lambda1", "lambda2"]
        assert len(rows) == 2000
        assert "levdyn_version" in provenance

    def test_micro_csv_schema(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.8]},
                "run": {"seed": 5, "initial": [70.0]},
                "micro": {"n_intraday": 200, "horizon": 10},
            },
        )
        out = tmp_path / "micro.csv"
        assert main(["micro", "--config", cfg, "--out", str(out)]) == 0
        with out.open() as fh:
            _, columns, rows = read_csv(fh)
        assert columns == [
            "period", "bank", "lambda_stochastic", "lambda_deterministic",
            "pi_drift_max", "phi_hat", "sigma_hat_sq",
        ]
        assert len(rows) == 10

    def test_stability_map_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": STD_MODEL,
                "run": {"seed": 5, "transient": 1500, "record": 300},
                "stability": {
                    "omega1_range": [0.7, 1.0],
                    "omega2_range": [0.7, 1.0],
                    "resolution": [2, 2],
                    "pi1": 0.5,
                    "initials_per_point": 2,
                },
            },
        )
        out = tmp_path / "stab.csv"
        assert main(["stability-map", "--config", cfg, "--out", str(out)]) == 0
        with out.open() as fh:
            _, columns, rows = read_csv(fh)
        assert columns == ["omega1", "omega2", "classification"]
        assert len(rows) == 4
        assert rows[-1][2] == "fixed-point"

    def test_stability_map_logs_violated_majority(self, tmp_path, caplog):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.5]},
                "run": {"seed": 9, "transient": 100, "record": 30},
                "stability": {
                    "omega1_range": [0.0, 0.2],
                    "omega2_range": [0.0, 0.2],
                    "resolution": [2, 2],
                    "pi1": 0.5,
                    "initials_per_point": 1,
                },
            },
        )
        out = tmp_path / "stab.csv"
        with caplog.at_level(logging.ERROR, logger="levdyn"):
            code = main(["stability-map", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert code == 3
        assert [r.getMessage() for r in caplog.records] == ["4 of 4 cells fully violated"]

    @pytest.mark.parametrize("command", ["bifurcate", "stability-map"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_grid_commands_reject_workers_below_one(self, tmp_path, capsys, command, workers):
        cfg = write_config(
            tmp_path,
            {
                "model": STD_MODEL,
                "run": {"seed": 1, "transient": 10, "record": 5},
                "sweep": {"axis": "pi1", "range": [0.0, 1.0], "resolution": 2},
                "stability": {
                    "omega1_range": [0.4, 0.6],
                    "omega2_range": [0.4, 0.6],
                    "resolution": [2, 2],
                    "pi1": 0.5,
                },
            },
        )
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out), "--workers", workers]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert f"levdyn: configuration error: --workers: must be at least 1, got {workers}" in err

    @pytest.mark.parametrize("command", ["simulate", "lyapunov", "attractor", "boxdim",
                                         "fixedpoint", "micro"])
    def test_only_grid_commands_take_workers(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"model": STD_MODEL, "run": {"seed": 1}})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err

    def test_bifurcate_with_preset(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "run": {"seed": 13, "transient": 800, "record": 210},
                "model": STD_MODEL,
                "sweep": {"resolution": 9},
            },
        )
        out = tmp_path / "sweep.csv"
        code = main(
            ["bifurcate", "--config", cfg, "--out", str(out), "--preset", "fig5",
             "--workers", "1"]
        )
        assert code == 0
        with out.open() as fh:
            _, columns, rows = read_csv(fh)
        assert columns[0] == "param_value"
        values = sorted({float(r[0]) for r in rows})
        assert len(values) == 9
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_bifurcate_survives_escape_in_exponent_run(self, tmp_path):
        # at omega2 = 0.15 the surviving initial escapes only in the longer
        # exponent run; the sweep goes on with that exponent left open
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.05, 0.5], "pis": [0.4, 0.6]},
                "run": {"seed": 0, "transient": 0, "record": 3},
                "sweep": {"axis": "omega2", "range": [0, 1], "resolution": 21},
            },
        )
        out = tmp_path / "sweep.csv"
        code = main(["bifurcate", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert code == 0
        with out.open() as fh:
            _, columns, rows = read_csv(fh)
        at = [r for r in rows if r[0] == "0.15000000000000002"]
        assert len(at) == 3 * 2
        assert {r[columns.index("lyapunov_top")] for r in at} == {""}
        assert {r[columns.index("classification")] for r in at} == {"unresolved"}


class TestReproducibility:
    def test_simulate_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": STD_MODEL,
                "run": {"transient": 0, "record": 100, "seed": 31},
            },
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_micro_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.8]},
                "run": {"seed": 5, "initial": [70.0]},
                "micro": {"n_intraday": 300, "horizon": 12},
            },
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["micro", "--config", cfg, "--out", str(a)]) == 0
        assert main(["micro", "--config", cfg, "--out", str(b)]) == 0
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_bifurcate_identical_across_worker_counts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": {"omegas": [0.5]},
                "run": {"seed": 3, "transient": 800, "record": 210},
                "sweep": {"axis": "omega", "range": [0.3, 0.9], "resolution": 7},
            },
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bifurcate", "--config", cfg, "--out", str(a), "--workers", "1"]) == 0
        assert main(["bifurcate", "--config", cfg, "--out", str(b), "--workers", "3"]) == 0
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_json_reports_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "model": STD_MODEL,
                "skew": {
                    "omega1": 0.7,
                    "history": {"kind": "constant", "level": 75.0, "depth": 300},
                },
            },
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fixedpoint", "--config", cfg, "--out", str(a)]) == 0
        assert main(["fixedpoint", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
