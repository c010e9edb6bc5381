"""Experiment configuration: JSON documents with strict key checking.

Unknown keys are rejected with the offending dotted path; missing keys
fall back to documented defaults (alpha = 1.64, gamma = 100,
sigma_eps_sq = 0.0015^2, transient = 1000, record = 800).  Commands
that draw randomness (sweeps, microstructure, sampled initials) demand
an explicit seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import ConfigError
from .params import (
    DEFAULT_ALPHA,
    DEFAULT_GAMMA,
    DEFAULT_SIGMA_EPS_SQ,
    ModelParams,
)

DEFAULT_TRANSIENT = 1000
DEFAULT_RECORD = 800


def _check_keys(block: Mapping[str, Any], allowed: set[str], path: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError("unknown key", key=f"{path}.{key}" if path else key)


def _require(block: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in block:
        raise ConfigError("missing required key", key=f"{path}.{key}")
    return block[key]


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
    attractor: AttractorBlock | None = None
    boxdim: BoxdimBlock | None = None
    lyapunov: LyapunovBlock | None = None
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
    omegas = _require(block, "omegas", "model")
    if not isinstance(omegas, list) or not omegas:
        raise ConfigError("must be a non-empty list", key="model.omegas")
    pis = block.get("pis")
    if pis is None:
        if len(omegas) == 1:
            pis = [1.0]
        else:
            raise ConfigError("required when more than one bank", key="model.pis")
    if not isinstance(pis, list) or len(pis) != len(omegas):
        raise ConfigError("must be a list matching omegas", key="model.pis")
    try:
        return ModelParams(
            alpha=float(block.get("alpha", DEFAULT_ALPHA)),
            gamma=float(block.get("gamma", DEFAULT_GAMMA)),
            sigma_eps_sq=float(block.get("sigma_eps_sq", DEFAULT_SIGMA_EPS_SQ)),
            omegas=tuple(float(w) for w in omegas),
            pis=tuple(float(p) for p in pis),
        )
    except ValueError as exc:
        # name the offending key for parameter-level failures
        msg = str(exc)
        key = "model.pis" if "weights must sum" in msg or "asset weight" in msg else "model"
        raise ConfigError(msg, key=key) from None


def _parse_run(block: Mapping[str, Any]) -> RunBlock:
    _check_keys(block, {"transient", "record", "seed", "initial"}, "run")
    initial = block.get("initial")
    if initial is not None:
        if not isinstance(initial, list) or not initial:
            raise ConfigError("must be a non-empty list", key="run.initial")
        initial = tuple(float(x) for x in initial)
    transient = int(block.get("transient", DEFAULT_TRANSIENT))
    record = int(block.get("record", DEFAULT_RECORD))
    if transient < 0 or record < 0:
        raise ConfigError("transient and record must be non-negative", key="run")
    seed = block.get("seed")
    return RunBlock(
        transient=transient,
        record=record,
        seed=None if seed is None else int(seed),
        initial=initial,
    )


def _parse_pair(value: Any, key: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError("must be a [lo, hi] pair", key=key)
    return float(value[0]), float(value[1])


def _parse_sweep(block: Mapping[str, Any]) -> SweepBlock:
    _check_keys(block, {"axis", "range", "resolution", "initials_per_point"}, "sweep")
    return SweepBlock(
        axis=str(_require(block, "axis", "sweep")),
        bounds=_parse_pair(_require(block, "range", "sweep"), "sweep.range"),
        resolution=int(_require(block, "resolution", "sweep")),
        initials_per_point=int(block.get("initials_per_point", 3)),
    )


def _parse_attractor(block: Mapping[str, Any]) -> AttractorBlock:
    _check_keys(block, {"n_points"}, "attractor")
    return AttractorBlock(n_points=int(block.get("n_points", 1_000_000)))


def _parse_boxdim(block: Mapping[str, Any]) -> BoxdimBlock:
    _check_keys(block, {"eps_decades", "n_scales", "fit_range"}, "boxdim")
    fit = block.get("fit_range")
    if fit is not None:
        if not isinstance(fit, list) or len(fit) != 2:
            raise ConfigError("must be a [start, stop] index pair", key="boxdim.fit_range")
        fit = (int(fit[0]), int(fit[1]))
    return BoxdimBlock(
        eps_decades=float(block.get("eps_decades", 3.0)),
        n_scales=int(block.get("n_scales", 12)),
        fit_range=fit,
    )


def _parse_lyapunov(block: Mapping[str, Any]) -> LyapunovBlock:
    _check_keys(block, {"steps", "x0"}, "lyapunov")
    x0 = block.get("x0")
    return LyapunovBlock(
        steps=int(block.get("steps", 100_000)),
        x0=None if x0 is None else float(x0),
    )


def _parse_history(block: Mapping[str, Any]) -> HistorySpec:
    _check_keys(
        block, {"kind", "depth", "omega2", "level", "x0", "transient"}, "skew.history"
    )
    kind = str(_require(block, "kind", "skew.history"))
    if kind not in ("orbit", "constant"):
        raise ConfigError("kind must be 'orbit' or 'constant'", key="skew.history.kind")
    depth = int(_require(block, "depth", "skew.history"))
    omega2 = block.get("omega2")
    level = block.get("level")
    if kind == "orbit" and omega2 is None:
        raise ConfigError("orbit history needs omega2", key="skew.history.omega2")
    if kind == "constant" and level is None:
        raise ConfigError("constant history needs a level", key="skew.history.level")
    return HistorySpec(
        kind=kind,
        depth=depth,
        omega2=None if omega2 is None else float(omega2),
        level=None if level is None else float(level),
        x0=float(block.get("x0", 50.0)),
        transient=int(block.get("transient", DEFAULT_TRANSIENT)),
    )


def _parse_skew(block: Mapping[str, Any]) -> SkewBlock:
    _check_keys(block, {"omega1", "tol", "history"}, "skew")
    history = block.get("history")
    return SkewBlock(
        omega1=float(_require(block, "omega1", "skew")),
        tol=float(block.get("tol", 1e-10)),
        history=None if history is None else _parse_history(history),
    )


def _parse_micro(block: Mapping[str, Any]) -> MicroBlock:
    _check_keys(block, {"n_intraday", "horizon", "equity_total", "zero_noise"}, "micro")
    return MicroBlock(
        n_intraday=int(_require(block, "n_intraday", "micro")),
        horizon=int(_require(block, "horizon", "micro")),
        equity_total=float(block.get("equity_total", 1.0)),
        zero_noise=bool(block.get("zero_noise", False)),
    )


def _parse_stability(block: Mapping[str, Any]) -> StabilityBlock:
    _check_keys(
        block,
        {"omega1_range", "omega2_range", "resolution", "pi1", "initials_per_point"},
        "stability",
    )
    res = _require(block, "resolution", "stability")
    if not isinstance(res, list) or len(res) != 2:
        raise ConfigError("must be an [n1, n2] pair", key="stability.resolution")
    return StabilityBlock(
        omega1_range=_parse_pair(
            _require(block, "omega1_range", "stability"), "stability.omega1_range"
        ),
        omega2_range=_parse_pair(
            _require(block, "omega2_range", "stability"), "stability.omega2_range"
        ),
        resolution=(int(res[0]), int(res[1])),
        pi1=float(_require(block, "pi1", "stability")),
        initials_per_point=int(block.get("initials_per_point", 3)),
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
    model = _parse_model(_require(document, "model", ""))
    run = _parse_run(document.get("run", {}))
    blocks: dict[str, Any] = {}
    for name, parser in _BLOCK_PARSERS.items():
        raw = document.get(name)
        blocks[name] = None if raw is None else parser(raw)
    return ExperimentConfig(
        model=model,
        run=run,
        sweep=blocks["sweep"],
        attractor=blocks["attractor"],
        boxdim=blocks["boxdim"],
        lyapunov=blocks["lyapunov"],
        skew=blocks["skew"],
        micro=blocks["micro"],
        stability=blocks["stability"],
        sha256=config_hash(document),
    )


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
