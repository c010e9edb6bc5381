"""Command-line front end.

Subcommands: simulate, bifurcate, lyapunov, attractor, boxdim,
fixedpoint, micro, stability-map.  Every command takes --config PATH
(JSON), optional --out PATH (stdout otherwise) and --preset for bundled
experiment protocols; the grid commands, bifurcate and stability-map,
take --workers N.  Logging level comes from LEVDYN_LOG (error, info,
debug).  A process enters through ``entry``, which freezes the imports'
objects out of the cyclic GC before it runs ``main``.

Exit codes: 0 success, 1 runtime failure, 2 configuration error,
3 constraint-violation-dominated run.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import stat
import sys
import tempfile
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

import numpy as np

from . import __version__
from ._draw import uniform
from .attractor import AttractorCloud, box_dimension, capture_cloud
from .config import (
    ExperimentConfig,
    ConfigError,
    load_config,
    merge_preset,
    parse_config,
    read_document,
)
from .errors import (
    InfeasibleStateError,
    InsolvencyError,
    LevdynError,
    NonstationaryError,
    OrbitViolationError,
)
from .lyap import lyapunov_spectrum
from .micro import MicroParams, run_micro
from .orbits import iterate, pair_sync
from .params import LeverageState
from .sweep import SweepRecord, SweepSpec, run_sweep, stability_map
from .output import RowBlock, write_csv, write_json

log = logging.getLogger("levdyn")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VIOLATION = 3

#: bundled experiment protocols (merged under the user config)
PRESETS: dict[str, dict[str, Any]] = {
    "fig2": {
        "model": {"omegas": [0.5]},
        "run": {"transient": 1000, "record": 800},
        "sweep": {"axis": "omega", "range": [0.0, 1.0], "resolution": 800},
    },
    "fig5": {
        "model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]},
        "run": {"transient": 1000, "record": 500},
        "sweep": {"axis": "pi1", "range": [0.0, 1.0], "resolution": 500},
    },
    "fig6": {
        "model": {"omegas": [0.5, 0.4], "pis": [0.5, 0.5]},
        "run": {"transient": 1000, "record": 800},
        "sweep": {"axis": "omega1", "range": [0.0, 1.0], "resolution": 800},
    },
    "fig7": {
        "model": {"omegas": [0.5, 0.3], "pis": [0.5, 0.5]},
        "run": {"transient": 1000},
        "attractor": {"n_points": 1_000_000},
    },
}


def _setup_logging() -> None:
    level = os.environ.get("LEVDYN_LOG", "error").lower()
    numeric = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=numeric.get(level, logging.ERROR),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


@contextmanager
def _open_out(path: str | None) -> Iterator[TextIO]:
    """The output stream.  A regular file, or a new one, is written as a
    temporary file beside it, with the mode ``open(path, "w")`` would
    leave, which replaces it only when the command returns: a failed run
    leaves the previous file as it was, and no file where there was none.
    Any other path, such as a FIFO, /dev/null or a missing "dir/", is
    written directly, and a path to the file that stdout writes, such as
    /dev/stdout, through stdout, as with no path."""
    if path is None:
        yield sys.stdout
        return
    try:
        found = os.stat(path)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    else:
        mode = found.st_mode
        try:
            to_stdout = os.path.samestat(found, os.fstat(sys.stdout.fileno()))
        except (AttributeError, OSError, ValueError):  # a stdout with no descriptor
            to_stdout = False
        if to_stdout:
            yield sys.stdout
            return
    # a missing "" or "dir/" too: open fails at once, naming the path
    if not (stat.S_ISREG(mode) and os.path.basename(path)):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    # a symlink's target is replaced, not the link
    target = os.path.realpath(path)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.",
                                   dir=os.path.dirname(target))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def _load(args: argparse.Namespace) -> ExperimentConfig:
    if args.preset is None:
        return load_config(args.config)
    return parse_config(merge_preset(read_document(args.config), PRESETS[args.preset]))


def _initial_state(
    config: ExperimentConfig, command: str
) -> tuple[LeverageState, int | None]:
    """Initial leverages from run.initial, else a seeded draw in the box."""
    params = config.model
    if config.run.initial is not None:
        return LeverageState.from_lambdas(config.run.initial, params), config.run.seed
    seed = config.require_seed(command)
    draw = uniform(seed, 1.0, params.lambda_max, 1, params.n_banks)[0]
    return LeverageState.from_lambdas(draw, params), seed


def cmd_simulate(config: ExperimentConfig, out: TextIO) -> int:
    state, seed = _initial_state(config, "simulate")
    trace = iterate(
        state, config.model, transient=config.run.transient, record=config.run.record
    )
    n = config.model.n_banks
    columns = ["t", *(f"lambda_{i + 1}" for i in range(n)), "sync_12", "feasible"]
    lams, t0 = trace.recorded, config.run.transient
    sync = pair_sync(lams[:, 0], lams[:, 1]) if n >= 2 else np.zeros(len(lams))
    steps = np.arange(t0 + 1, t0 + 1 + len(lams))
    block = RowBlock((), (steps, *lams.T, sync, np.ones(len(lams), dtype=bool)), ())
    write_csv(out, columns, [block], config.sha256, seed)
    if trace.violation is not None:
        step, constraint = trace.violation
        log.error("orbit violated %s at step %d", constraint, step)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_bifurcate(config: ExperimentConfig, out: TextIO, workers: int) -> int:
    if config.sweep is None:
        raise ConfigError("bifurcate needs a sweep block", key="sweep")
    seed = config.require_seed("bifurcate")
    if config.run.record < 3:
        raise ConfigError("bifurcate needs at least 3 recorded steps", key="run.record")
    banks = 1 if config.sweep.axis == "omega" else 2
    if config.model.n_banks != banks:
        raise ConfigError(f"axis {config.sweep.axis!r} needs {banks} bank(s), "
                          f"model has {config.model.n_banks}", key="sweep.axis")
    spec = SweepSpec(
        axis=config.sweep.axis,
        bounds=config.sweep.bounds,
        resolution=config.sweep.resolution,
        fixed=config.model,
        transient=config.run.transient,
        record=config.run.record,
        initials_per_point=config.sweep.initials_per_point,
        rng_seed=seed,
    )
    records = run_sweep(spec, workers=workers)
    columns = [
        "param_value", "branch", "step", "bank", "lambda",
        "lyapunov_top", "period", "survival_fraction", "classification",
    ]
    write_csv(out, columns, _sweep_rows(records), config.sha256, seed)
    infeasible = sum(1 for rec in records if rec.classification == "infeasible")
    if infeasible > len(records) / 2:
        log.error("%d of %d grid points fully violated", infeasible, len(records))
        return EXIT_VIOLATION
    return EXIT_OK


def _sweep_rows(records: list[SweepRecord]) -> Iterator[RowBlock]:
    """The bifurcate rows, one RowBlock per grid point.

    Rows run over the recorded steps, then the banks; a point with no
    survivors gets one row with branch and step -1, bank 0 and no lambda.
    The branch, step and bank cells depend only on the point's survivor
    pattern, so they are formatted as one string column, again only when
    the pattern differs from the previous point's.
    """
    pattern, labels = None, None
    for rec in records:
        period = None if rec.period is None else rec.period.label
        tail = (rec.lyapunov_top, period, rec.survival_fraction, rec.classification)
        n, banks = rec.samples.shape
        if n == 0:
            yield RowBlock((rec.param_value, -1, -1, 0), (np.array([None]),), tail)
            continue
        if (n, banks, rec.survivors) != pattern:
            pattern = (n, banks, rec.survivors)
            labels = np.array([
                f"{branch},{step},{bank}"
                for step, branch in enumerate(rec.branch.tolist())
                for bank in range(1, banks + 1)
            ])
        yield RowBlock((rec.param_value,), (labels, rec.samples.ravel()), tail)


def cmd_lyapunov(config: ExperimentConfig, out: TextIO) -> int:
    state, seed = _initial_state(config, "lyapunov")
    est = lyapunov_spectrum(state, config.model, transient=config.run.transient,
                            steps=config.lyapunov.steps)
    write_json(
        out,
        {
            "exponents": list(est.exponents),
            "steps_used": est.steps_used,
            "transient": est.transient,
            "saturated": est.saturated,
        },
        config.sha256,
        seed,
    )
    return EXIT_OK


def _cloud(config: ExperimentConfig, command: str) -> tuple[AttractorCloud, int | None]:
    """The attractor cloud from ``command``'s initial state, and its seed."""
    if config.model.n_banks < 2:
        raise ConfigError(f"{command} needs at least two banks", key="model.omegas")
    state, seed = _initial_state(config, command)
    return capture_cloud(state, config.model, config.run.transient,
                         config.attractor.n_points), seed


def cmd_attractor(config: ExperimentConfig, out: TextIO) -> int:
    cloud, seed = _cloud(config, "attractor")
    block = RowBlock((), tuple(cloud.points.T), ())
    write_csv(out, ["lambda1", "lambda2"], [block], config.sha256, seed)
    return EXIT_OK


def cmd_boxdim(config: ExperimentConfig, out: TextIO) -> int:
    block = config.boxdim
    cloud, seed = _cloud(config, "boxdim")
    fit = box_dimension(
        cloud, eps_decades=block.eps_decades, n_scales=block.n_scales, fit_range=block.fit_range
    )
    write_json(
        out,
        {
            "slope": fit.slope,
            "stderr": fit.stderr,
            "fit_range": list(fit.fit_range),
            "epsilons": [float(e) for e in fit.epsilons],
            "counts": [int(c) for c in fit.counts],
            "n_points": cloud.count,
        },
        config.sha256,
        seed,
    )
    return EXIT_OK


def cmd_fixedpoint(config: ExperimentConfig, out: TextIO) -> int:
    # here only, so no other command loads the skew-product module
    from .skew import constant_history, history_from_orbit, random_fixed_point

    if config.skew is None or config.skew.history is None:
        raise ConfigError("fixedpoint needs a skew block with a history", key="skew")
    spec = config.skew.history
    if spec.kind == "constant":
        history = constant_history(spec.level, spec.depth)
    else:
        history, _ = history_from_orbit(
            spec.omega2, config.model, depth=spec.depth,
            transient=spec.transient, x0=spec.x0,
        )
    rfp = random_fixed_point(
        history, config.skew.omega1, config.model, tol=config.skew.tol
    )
    write_json(
        out,
        {
            "value": rfp.value,
            "truncation_depth": rfp.truncation_depth,
            "tail_bound": rfp.tail_bound,
            "history_source": history.source,
        },
        config.sha256,
        config.run.seed,
    )
    return EXIT_OK


def cmd_micro(config: ExperimentConfig, out: TextIO) -> int:
    if config.micro is None:
        raise ConfigError("micro needs a micro block", key="micro")
    seed = config.require_seed("micro")
    if not min(config.model.pis) > 0.0:
        raise ConfigError("micro needs every asset weight positive", key="model.pis")
    mp = MicroParams(
        base=config.model,
        n_intraday=config.micro.n_intraday,
        horizon=config.micro.horizon,
        rng_seed=seed,
        zero_noise=config.micro.zero_noise,
    )
    state, _ = _initial_state(config, "micro")
    run = run_micro(mp, state.lambdas)
    columns = [
        "period", "bank", "lambda_stochastic", "lambda_deterministic",
        "pi_drift_max", "phi_hat", "sigma_hat_sq",
    ]
    periods, banks = run.lambdas_stochastic.shape
    per_period = (run.pi_drift_max, run.phi_hat, run.sigma_eps_hat_sq)
    block = RowBlock((), (
        np.repeat(np.arange(periods), banks), np.tile(np.arange(1, banks + 1), periods),
        run.lambdas_stochastic.ravel(), run.lambdas_deterministic.ravel(),
        *(np.repeat(a, banks) for a in per_period),
    ), ())
    write_csv(out, columns, [block], config.sha256, seed)
    return EXIT_OK


def cmd_stability_map(config: ExperimentConfig, out: TextIO, workers: int) -> int:
    if config.stability is None:
        raise ConfigError("stability-map needs a stability block", key="stability")
    seed = config.require_seed("stability-map")
    if config.run.record < 3:
        raise ConfigError("stability-map needs at least 3 recorded steps", key="run.record")
    block = config.stability
    omega1s = np.linspace(*block.omega1_range, block.resolution[0])
    omega2s = np.linspace(*block.omega2_range, block.resolution[1])
    result = stability_map(
        omega1s, omega2s, block.pi1, config.model,
        transient=config.run.transient, record=config.run.record,
        initials_per_point=block.initials_per_point,
        rng_seed=seed, workers=workers,
    )
    classes = result.classes
    n1, n2 = classes.shape
    grid = (np.repeat(result.omega1s, n2), np.tile(result.omega2s, n1), classes.ravel())
    write_csv(out, ["omega1", "omega2", "classification"], [RowBlock((), grid, ())],
              config.sha256, seed)
    infeasible = int(np.count_nonzero(classes == "infeasible"))
    if infeasible > classes.size / 2:
        log.error("%d of %d cells fully violated", infeasible, classes.size)
        return EXIT_VIOLATION
    return EXIT_OK


#: each subcommand's function and help text
COMMANDS = {
    "simulate": (cmd_simulate, "iterate the coupled map and emit the orbit as CSV"),
    "bifurcate": (cmd_bifurcate, "run a parameter sweep and emit asymptotic samples as CSV"),
    "lyapunov": (cmd_lyapunov, "estimate Lyapunov exponents, JSON report"),
    "attractor": (cmd_attractor, "capture a long-run point cloud as CSV"),
    "boxdim": (cmd_boxdim, "capture a cloud and fit its box-counting dimension, JSON report"),
    "fixedpoint": (cmd_fixedpoint, "evaluate the forced bank's random fixed point, JSON report"),
    "micro": (cmd_micro, "run the intraday market simulator, diagnostics CSV"),
    "stability-map": (cmd_stability_map, "classify dynamics over an (omega1, omega2) grid, CSV"),
}
#: the commands that take --workers
GRID_COMMANDS = ("bifurcate", "stability-map")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levdyn",
        description="Leverage dynamics toolkit: simulation, sweeps and analysis",
    )
    parser.add_argument("--version", action="version", version=f"levdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment configuration")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name in GRID_COMMANDS:
            p.add_argument(
                "--workers",
                type=int,
                default=os.cpu_count() or 1,
                help="parallel workers for the grid",
            )
        p.add_argument(
            "--preset",
            choices=sorted(PRESETS),
            default=None,
            help="named experiment preset merged under the config",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    out = None
    try:
        grid = (args.workers,) if args.command in GRID_COMMANDS else ()
        if grid and args.workers < 1:
            raise ConfigError(f"must be at least 1, got {args.workers}", key="--workers")
        config = _load(args)
        with _open_out(args.out) as out:
            code = COMMANDS[args.command][0](config, out, *grid)
            out.flush()  # here, so that a stdout reader that left is seen below
            return code
    # one stderr line per error: the log, which writes to stderr too, has it
    # at debug level only
    except ConfigError as exc:
        log.debug("configuration error: %s", exc)
        print(f"levdyn: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OrbitViolationError, InfeasibleStateError, InsolvencyError, NonstationaryError) as exc:
        log.debug("constraint violation: %s", exc)
        print(f"levdyn: constraint violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (LevdynError, ValueError, TypeError, ArithmeticError, MemoryError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and out is sys.stdout:
            # stdout's reader left (| head): exit quietly; Python's last flush goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_RUNTIME
        log.debug("runtime error: %s", exc)
        print(f"levdyn: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> int:
    """The process entry: ``main`` on the command line, which
    ``python -m levdyn.cli`` and the ``levdyn`` console script run.  The
    imports' objects, numpy's and levdyn's, are frozen out of the cyclic
    GC first (``gc.freeze``), so the run's collections and the last one
    at exit skip them, and a forked pool worker writes none of their GC
    headers; no object alive here is ever collected as a cycle.  ``main``
    itself freezes nothing, for callers that run it in process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
