"""Experiment configuration: JSON documents with strict key checking.

Unknown keys, and values of the wrong type or out of range, are
rejected with the offending dotted path; missing keys fall back to
documented defaults (alpha = 1.64, gamma = 100, sigma_eps_sq =
0.0015^2, transient = 1000, record = 800).  Commands that draw
randomness (sweeps, microstructure, sampled initials) demand an
explicit seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .errors import ConfigError
from .params import (
    DEFAULT_ALPHA,
    DEFAULT_GAMMA,
    DEFAULT_SIGMA_EPS_SQ,
    ModelParams,
)

DEFAULT_TRANSIENT = 1000
DEFAULT_RECORD = 800
#: default of a key that must be present
_REQUIRED = object()


def _check_keys(block: Any, allowed: set[str], path: str) -> None:
    if not isinstance(block, Mapping):
        raise ConfigError("must be a JSON object", key=path or None)
    for key in block:
        if key not in allowed:
            raise ConfigError("unknown key", key=f"{path}.{key}" if path else key)


def _field(
    block: Mapping[str, Any], path: str, key: str, kind: Callable[[Any], Any],
    default: Any = _REQUIRED,
) -> Any:
    """``kind(block[key])``, or ``default`` when the key is absent or
    null.  A missing required key and a value ``kind`` rejects with
    TypeError or ValueError are ConfigErrors naming the dotted key."""
    name = f"{path}.{key}" if path else key
    if block.get(key) is None:
        if default is _REQUIRED:
            raise ConfigError("missing required key", key=name)
        return default
    try:
        return kind(block[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value {block[key]!r} ({exc})", key=name) from None


def _at_least(lo: int) -> Callable[[Any], int]:
    def convert(value: Any) -> int:
        if int(value) < lo:
            raise ValueError(f"must be at least {lo}")
        return int(value)
    return convert


def _unit(value: Any) -> float:
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError("must be in [0, 1]")
    return float(value)


def _list(kind: Callable[[Any], Any], length: int | None = None) -> Callable[[Any], tuple]:
    """A converter of a non-empty JSON list, of ``length`` entries if given."""
    def convert(value: Any) -> tuple:
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            raise ValueError("must be a non-empty list" if length is None
                             else f"must be a list of {length}")
        return tuple(kind(v) for v in value)
    return convert


@dataclass(frozen=True)
class RunBlock:
    transient: int = DEFAULT_TRANSIENT
    record: int = DEFAULT_RECORD
    seed: int | None = None
    initial: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SweepBlock:
    axis: str
    bounds: tuple[float, float]
    resolution: int
    initials_per_point: int = 3


@dataclass(frozen=True)
class AttractorBlock:
    n_points: int = 1_000_000


@dataclass(frozen=True)
class BoxdimBlock:
    eps_decades: float = 3.0
    n_scales: int = 12
    fit_range: tuple[int, int] | None = None


@dataclass(frozen=True)
class LyapunovBlock:
    steps: int = 100_000
    x0: float | None = None


@dataclass(frozen=True)
class HistorySpec:
    kind: str  # "orbit" | "constant"
    depth: int
    omega2: float | None = None
    level: float | None = None
    x0: float = 50.0
    transient: int = DEFAULT_TRANSIENT


@dataclass(frozen=True)
class SkewBlock:
    omega1: float
    tol: float = 1e-10
    history: HistorySpec | None = None


@dataclass(frozen=True)
class MicroBlock:
    n_intraday: int
    horizon: int
    equity_total: float = 1.0
    zero_noise: bool = False


@dataclass(frozen=True)
class StabilityBlock:
    omega1_range: tuple[float, float]
    omega2_range: tuple[float, float]
    resolution: tuple[int, int]
    pi1: float
    initials_per_point: int = 3


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
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_model(block: Mapping[str, Any]) -> ModelParams:
    _check_keys(block, {"alpha", "gamma", "sigma_eps_sq", "omegas", "pis"}, "model")
    omegas = _field(block, "model", "omegas", _list(float))
    if block.get("pis") is None and len(omegas) > 1:
        raise ConfigError("required when more than one bank", key="model.pis")
    try:
        return ModelParams(
            alpha=_field(block, "model", "alpha", float, DEFAULT_ALPHA),
            gamma=_field(block, "model", "gamma", float, DEFAULT_GAMMA),
            sigma_eps_sq=_field(block, "model", "sigma_eps_sq", float, DEFAULT_SIGMA_EPS_SQ),
            omegas=omegas,
            pis=_field(block, "model", "pis", _list(float, len(omegas)), (1.0,)),
        )
    except ValueError as exc:
        # name the offending key for parameter-level failures
        msg = str(exc)
        key = "model.pis" if "weights must sum" in msg or "asset weight" in msg else "model"
        raise ConfigError(msg, key=key) from None


def _parse_run(block: Mapping[str, Any]) -> RunBlock:
    _check_keys(block, {"transient", "record", "seed", "initial"}, "run")
    return RunBlock(
        transient=_field(block, "run", "transient", _at_least(0), RunBlock.transient),
        record=_field(block, "run", "record", _at_least(0), RunBlock.record),
        seed=_field(block, "run", "seed", int, None),
        initial=_field(block, "run", "initial", _list(float), None),
    )


def _parse_sweep(block: Mapping[str, Any]) -> SweepBlock:
    _check_keys(block, {"axis", "range", "resolution", "initials_per_point"}, "sweep")
    return SweepBlock(
        axis=_field(block, "sweep", "axis", str),
        bounds=_field(block, "sweep", "range", _list(float, 2)),
        resolution=_field(block, "sweep", "resolution", int),
        initials_per_point=_field(block, "sweep", "initials_per_point", _at_least(1),
                                  SweepBlock.initials_per_point),
    )


def _parse_attractor(block: Mapping[str, Any]) -> AttractorBlock:
    _check_keys(block, {"n_points"}, "attractor")
    n_points = _field(block, "attractor", "n_points", _at_least(1), AttractorBlock.n_points)
    return AttractorBlock(n_points=n_points)


def _parse_boxdim(block: Mapping[str, Any]) -> BoxdimBlock:
    _check_keys(block, {"eps_decades", "n_scales", "fit_range"}, "boxdim")
    return BoxdimBlock(
        eps_decades=_field(block, "boxdim", "eps_decades", float, BoxdimBlock.eps_decades),
        n_scales=_field(block, "boxdim", "n_scales", _at_least(4), BoxdimBlock.n_scales),
        fit_range=_field(block, "boxdim", "fit_range", _list(int, 2), BoxdimBlock.fit_range),
    )


def _parse_lyapunov(block: Mapping[str, Any]) -> LyapunovBlock:
    _check_keys(block, {"steps", "x0"}, "lyapunov")
    return LyapunovBlock(
        steps=_field(block, "lyapunov", "steps", _at_least(1), LyapunovBlock.steps),
        x0=_field(block, "lyapunov", "x0", float, LyapunovBlock.x0),
    )


def _parse_history(block: Mapping[str, Any]) -> HistorySpec:
    path = "skew.history"
    _check_keys(block, {"kind", "depth", "omega2", "level", "x0", "transient"}, path)
    kind = _field(block, path, "kind", str)
    if kind not in ("orbit", "constant"):
        raise ConfigError("kind must be 'orbit' or 'constant'", key="skew.history.kind")
    if kind == "orbit" and block.get("omega2") is None:
        raise ConfigError("orbit history needs omega2", key="skew.history.omega2")
    if kind == "constant" and block.get("level") is None:
        raise ConfigError("constant history needs a level", key="skew.history.level")
    return HistorySpec(
        kind=kind,
        depth=_field(block, path, "depth", _at_least(1)),
        omega2=_field(block, path, "omega2", float, None),
        level=_field(block, path, "level", float, None),
        x0=_field(block, path, "x0", float, HistorySpec.x0),
        transient=_field(block, path, "transient", _at_least(0), HistorySpec.transient),
    )


def _parse_skew(block: Mapping[str, Any]) -> SkewBlock:
    _check_keys(block, {"omega1", "tol", "history"}, "skew")
    return SkewBlock(
        omega1=_field(block, "skew", "omega1", float),
        tol=_field(block, "skew", "tol", float, SkewBlock.tol),
        history=_field(block, "skew", "history", _parse_history, None),
    )


def _parse_micro(block: Mapping[str, Any]) -> MicroBlock:
    _check_keys(block, {"n_intraday", "horizon", "equity_total", "zero_noise"}, "micro")
    return MicroBlock(
        n_intraday=_field(block, "micro", "n_intraday", int),
        horizon=_field(block, "micro", "horizon", int),
        equity_total=_field(block, "micro", "equity_total", float, MicroBlock.equity_total),
        zero_noise=_field(block, "micro", "zero_noise", bool, MicroBlock.zero_noise),
    )


def _parse_stability(block: Mapping[str, Any]) -> StabilityBlock:
    path = "stability"
    _check_keys(
        block, {"omega1_range", "omega2_range", "resolution", "pi1", "initials_per_point"}, path
    )
    return StabilityBlock(
        omega1_range=_field(block, path, "omega1_range", _list(float, 2)),
        omega2_range=_field(block, path, "omega2_range", _list(float, 2)),
        resolution=_field(block, path, "resolution", _list(_at_least(2), 2)),
        pi1=_field(block, path, "pi1", _unit),
        initials_per_point=_field(block, path, "initials_per_point", _at_least(1),
                                  StabilityBlock.initials_per_point),
    )


_BLOCK_PARSERS = {
    "sweep": _parse_sweep,
    "attractor": _parse_attractor,
    "boxdim": _parse_boxdim,
    "lyapunov": _parse_lyapunov,
    "skew": _parse_skew,
    "micro": _parse_micro,
    "stability": _parse_stability,
}


def parse_config(document: Mapping[str, Any]) -> ExperimentConfig:
    """Validate a raw configuration mapping into typed blocks."""
    if not isinstance(document, Mapping):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(document, {"model", "run"} | set(_BLOCK_PARSERS), "")
    model = _field(document, "", "model", _parse_model)
    run = _parse_run(document.get("run", {}))
    if run.initial is not None and len(run.initial) != model.n_banks:
        raise ConfigError(
            f"needs {model.n_banks} leverages, one per bank, got {len(run.initial)}",
            key="run.initial",
        )
    # an absent block takes its ExperimentConfig default
    blocks = {name: _field(document, "", name, parser)
              for name, parser in _BLOCK_PARSERS.items()
              if document.get(name) is not None}
    return ExperimentConfig(model=model, run=run, **blocks, sha256=config_hash(document))


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


def merge_preset(
    document: Mapping[str, Any], preset: Mapping[str, Any]
) -> dict[str, Any]:
    """Overlay a preset under a user document (user keys win, per block)."""
    merged: dict[str, Any] = {}
    for key in set(document) | set(preset):
        if key in document and key in preset:
            a, b = preset[key], document[key]
            if isinstance(a, Mapping) and isinstance(b, Mapping):
                merged[key] = {**a, **b}
            else:
                merged[key] = b
        elif key in document:
            merged[key] = document[key]
        else:
            merged[key] = preset[key]
    return merged
