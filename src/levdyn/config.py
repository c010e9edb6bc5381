"""Experiment configuration: JSON documents with strict key checking.

Each block's keys are declared once, on the fields of its dataclass:
a field carries its converter, its default and, where it differs from
the field name, its JSON key.  One reader turns any block's JSON object
into its class.  Unknown keys, and values of the wrong type or out of
range, are rejected with the offending dotted path; missing keys fall
back to documented defaults (alpha = 1.64, gamma = 100, sigma_eps_sq =
0.0015^2, transient = 1000, record = 800).  Commands that draw
randomness (sweeps, microstructure, sampled initials) demand an
explicit seed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from typing import Any, Callable, Container, Mapping

from ._digest import sha256
from .attractor import box_sizes
from .errors import ConfigError
from .params import (
    DEFAULT_ALPHA,
    DEFAULT_GAMMA,
    DEFAULT_SIGMA_EPS_SQ,
    SWEEP_AXES,
    ModelParams,
)

DEFAULT_TRANSIENT = 1000
DEFAULT_RECORD = 800


def _check_keys(block: Any, allowed: Container[str], path: str) -> None:
    if not isinstance(block, Mapping):
        raise ConfigError("must be a JSON object", key=path or None)
    for key in block:
        if key not in allowed:
            raise ConfigError("unknown key", key=f"{path}.{key}" if path else key)


def _field(
    block: Mapping[str, Any], path: str, key: str, kind: Callable[[Any], Any],
    default: Any = MISSING,
) -> Any:
    """``kind(block[key])``, or ``default`` when the key is absent or
    null.  A missing key without a default and a value ``kind`` rejects with
    TypeError or ValueError are ConfigErrors naming the dotted key."""
    name = f"{path}.{key}" if path else key
    if block.get(key) is None:
        if default is MISSING:
            raise ConfigError("missing required key", key=name)
        return default
    try:
        return kind(block[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value {block[key]!r} ({exc})", key=name) from None


def _float(value: Any) -> float:
    """A finite JSON number; booleans and strings are not numbers.  json also
    reads Infinity, -Infinity, NaN and 1e400 (as inf), which are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    if not abs(value) <= sys.float_info.max:
        raise ValueError("must be a finite number")
    return float(value)


def _int(value: Any) -> int:
    """A JSON integer, or an integral float such as 1e6."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("must be an integer")
    return value


def _count(value: Any) -> int:
    """An integer below 2**63, which the compiled loops count in int64."""
    value = _int(value)
    if not value < 2**63:
        raise ValueError("must be below 2**63")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _at_least(lo: float, kind: Callable[[Any], Any] = _count) -> Callable[[Any], Any]:
    def convert(value: Any) -> Any:
        if not kind(value) >= lo:
            raise ValueError(f"must be at least {lo}")
        return kind(value)
    return convert


def _number(test: Callable[[float], bool], rule: str) -> Callable[[Any], float]:
    """A converter of the JSON numbers that pass ``test`` (NaN fails)."""
    def convert(value: Any) -> float:
        if not test(_float(value)):
            raise ValueError(f"must be {rule}")
        return float(value)
    return convert


_positive = _number(lambda x: x > 0.0, "positive")
_unit = _number(lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_memory = _number(lambda x: 0.0 <= x < 1.0, "in [0, 1)")


def _one_of(choices: tuple[str, ...]) -> Callable[[Any], str]:
    def convert(value: Any) -> str:
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return value
    return convert


def _list(kind: Callable[[Any], Any], length: int | None = None) -> Callable[[Any], tuple]:
    """A converter of a non-empty JSON list, of ``length`` entries if given."""
    def convert(value: Any) -> tuple:
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            raise ValueError("must be a non-empty list" if length is None
                             else f"must be a list of {length}")
        return tuple(kind(v) for v in value)
    return convert


def _interval(value: Any) -> tuple[float, float]:
    lo, hi = _list(_unit, 2)(value)
    if not lo < hi:
        raise ValueError("must be increasing")
    return lo, hi


def _key(kind: Callable[[Any], Any], default: Any = MISSING, name: str | None = None) -> Any:
    """A block field read from JSON key ``name`` (the field's own name by
    default) through ``kind``: a converter, or a nested block class."""
    return field(default=default,
                 metadata={"kind": kind, "name": name, "block": is_dataclass(kind)})


def _read(cls: type, block: Any, path: str) -> Any:
    """The block ``cls`` read from its JSON object at dotted ``path``."""
    keys = {f.metadata["name"] or f.name: f for f in fields(cls)}
    _check_keys(block, keys, path)
    values = {}
    for key, f in keys.items():
        kind = f.metadata["kind"]
        if f.metadata["block"]:
            kind = partial(_read, kind, path=f"{path}.{key}")
        values[f.name] = _field(block, path, key, kind, f.default)
    return cls(**values)


@dataclass(frozen=True)
class RunBlock:
    transient: int = _key(_at_least(0), DEFAULT_TRANSIENT)
    record: int = _key(_at_least(0), DEFAULT_RECORD)
    seed: int | None = _key(_at_least(0, _int), None)
    initial: tuple[float, ...] | None = _key(_list(_at_least(1, _float)), None)


@dataclass(frozen=True)
class SweepBlock:
    axis: str = _key(_one_of(SWEEP_AXES))
    bounds: tuple[float, float] = _key(_interval, name="range")
    resolution: int = _key(_at_least(2))
    initials_per_point: int = _key(_at_least(1), 3)


@dataclass(frozen=True)
class AttractorBlock:
    n_points: int = _key(_at_least(1), 1_000_000)


@dataclass(frozen=True)
class BoxdimBlock:
    eps_decades: float = _key(_positive, 3.0)
    n_scales: int = _key(_at_least(4), 12)
    fit_range: tuple[int, int] | None = _key(_list(_int, 2), None)

    def __post_init__(self) -> None:
        try:
            box_sizes(self.eps_decades, self.n_scales)
        except ValueError as exc:
            raise ConfigError(str(exc), key="boxdim.eps_decades") from None
        if self.fit_range is not None:
            start, stop = self.fit_range
            if not (0 <= start and start + 2 <= stop <= self.n_scales):
                raise ConfigError(f"must be a window [start, stop) of at least 2 of the "
                                  f"{self.n_scales} scales", key="boxdim.fit_range")


@dataclass(frozen=True)
class LyapunovBlock:
    steps: int = _key(_at_least(1), 100_000)


@dataclass(frozen=True)
class HistorySpec:
    kind: str = _key(_one_of(("orbit", "constant")))
    depth: int = _key(_at_least(1))
    omega2: float | None = _key(_unit, None)
    level: float | None = _key(_float, None)
    x0: float = _key(_at_least(1, _float), 50.0)
    transient: int = _key(_at_least(0), DEFAULT_TRANSIENT)

    def __post_init__(self) -> None:
        needs = {"orbit": "omega2", "constant": "level"}
        if getattr(self, needs[self.kind]) is None:
            raise ConfigError(f"{self.kind} history needs {needs[self.kind]}",
                              key=f"skew.history.{needs[self.kind]}")


@dataclass(frozen=True)
class SkewBlock:
    omega1: float = _key(_memory)
    tol: float = _key(_positive, 1e-10)
    history: HistorySpec | None = _key(HistorySpec, None)


@dataclass(frozen=True)
class MicroBlock:
    n_intraday: int = _key(_at_least(2))
    horizon: int = _key(_at_least(1))
    zero_noise: bool = _key(_bool, False)


@dataclass(frozen=True)
class StabilityBlock:
    omega1_range: tuple[float, float] = _key(_list(_unit, 2))
    omega2_range: tuple[float, float] = _key(_list(_unit, 2))
    resolution: tuple[int, int] = _key(_list(_at_least(2), 2))
    pi1: float = _key(_unit)
    initials_per_point: int = _key(_at_least(1), 3)


#: the blocks of a document, by top-level key (``model`` aside)
_BLOCKS = {"run": RunBlock, "sweep": SweepBlock, "attractor": AttractorBlock,
           "boxdim": BoxdimBlock, "lyapunov": LyapunovBlock, "skew": SkewBlock,
           "micro": MicroBlock, "stability": StabilityBlock}


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelParams
    run: RunBlock = field(default_factory=RunBlock)
    sweep: SweepBlock | None = None
    attractor: AttractorBlock = field(default_factory=AttractorBlock)
    boxdim: BoxdimBlock = field(default_factory=BoxdimBlock)
    lyapunov: LyapunovBlock = field(default_factory=LyapunovBlock)
    skew: SkewBlock | None = None
    micro: MicroBlock | None = None
    stability: StabilityBlock | None = None
    sha256: str = ""

    def require_seed(self, command: str) -> int:
        if self.run.seed is None:
            raise ConfigError(
                f"command {command!r} draws randomness and needs an explicit seed",
                key="run.seed",
            )
        return self.run.seed


def config_hash(document: Mapping[str, Any]) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def _parse_model(block: Mapping[str, Any]) -> ModelParams:
    _check_keys(block, {"alpha", "gamma", "sigma_eps_sq", "omegas", "pis"}, "model")
    omegas = _field(block, "model", "omegas", _list(_unit))
    if block.get("pis") is None and len(omegas) > 1:
        raise ConfigError("required when more than one bank", key="model.pis")
    pis = _field(block, "model", "pis", _list(_unit, len(omegas)), (1.0,))
    try:
        return ModelParams(
            alpha=_field(block, "model", "alpha", _positive, DEFAULT_ALPHA),
            gamma=_field(block, "model", "gamma", _positive, DEFAULT_GAMMA),
            sigma_eps_sq=_field(block, "model", "sigma_eps_sq", _positive, DEFAULT_SIGMA_EPS_SQ),
            omegas=omegas,
            pis=pis,
        )
    except ValueError as exc:
        # the converters leave ModelParams only the sum of the weights to reject
        raise ConfigError(str(exc), key="model.pis") from None


def parse_config(document: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a raw configuration mapping into typed blocks."""
    if not isinstance(document, Mapping):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(document, {"model", *_BLOCKS}, "")
    model = _field(document, "", "model", _parse_model)
    # an absent or null block takes its ExperimentConfig default
    blocks = {name: _read(cls, document[name], name)
              for name, cls in _BLOCKS.items() if document.get(name) is not None}
    initial = blocks.get("run", RunBlock()).initial
    if initial is not None and len(initial) != model.n_banks:
        raise ConfigError(
            f"needs {model.n_banks} leverages, one per bank, got {len(initial)}",
            key="run.initial",
        )
    history = blocks["skew"].history if "skew" in blocks else None
    bound = model.lambda_max
    if history is not None and history.kind == "orbit" and not history.x0 < bound:
        raise ConfigError(f"must be below 1 + gamma = {bound}", key="skew.history.x0")
    if history is not None and history.kind == "constant" and not history.level < bound:
        raise ConfigError(f"must be below 1 + gamma = {bound}", key="skew.history.level")
    return ExperimentConfig(model=model, **blocks, sha256=config_hash(document))


def read_document(path: str) -> Any:
    """The raw JSON document of a config file, mapping read and syntax
    errors to ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def load_config(path: str) -> ExperimentConfig:
    """Parse a JSON config file, mapping syntax errors to ConfigError."""
    return parse_config(read_document(path))


def merge_preset(document: Any, preset: Mapping[str, Any]) -> Any:
    """Overlay a preset under a user document (user keys win, per block).
    A document that is not a JSON object is returned as it is, for
    ``parse_config`` to reject."""
    if not isinstance(document, Mapping):
        return document
    merged = {**preset, **document}
    for key, block in preset.items():
        if isinstance(block, Mapping) and isinstance(document.get(key), Mapping):
            merged[key] = {**block, **document[key]}
    return merged
