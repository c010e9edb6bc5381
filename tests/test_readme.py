"""The README's examples run as written: the library quick start and the
example configuration."""

from __future__ import annotations

import ast
import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from levdyn.config import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced(language: str) -> list[str]:
    """The bodies of the README's ```language code blocks, in order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_quick_start_runs():
    (code,) = fenced("python")
    printed = io.StringIO()
    with redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    label, exponents = printed.getvalue().splitlines()
    # the pi1 = 0.5 attractor of acceptance criterion 05
    assert label == "aperiodic"
    assert ast.literal_eval(exponents) == pytest.approx((0.385, -0.831), abs=5e-4)


def test_example_configuration_parses():
    (document,) = fenced("json")
    config = parse_config(json.loads(document))
    assert config.model.omegas == (0.5, 0.3)
    assert config.run.seed == 42
    assert (config.sweep.axis, config.sweep.resolution) == ("pi1", 500)
