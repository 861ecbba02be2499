"""Command-line interface.

Subcommands: `run` (per-timestep metric dump), `sweep` (aggregate CSV
over a varied parameter), `diffusion` (transmission-process trajectory
CSV). Flags may also come from a JSON config file; explicit flags win,
and file values are checked as the flags are.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .core import ConfigError, ModelKind, SimConfig
from .diffusion import (
    ComplexContagionConfig,
    CulturalConfig,
    SIConfig,
    default_potion_config,
    load_potion_config,
)
from .harness import (
    SweepConfig,
    iter_sweep,
    run_diffusion_rounds,
    write_csv,
    write_timeseries_csv,
    write_trajectories_csv,
)
from .metrics import DEFAULT_N_REF

VARY_ALIASES = {"r": "r", "n": "n", "g": "g", "p": "p_connect", "p_connect": "p_connect"}
# flags each command needs, which may come from the config file instead
REQUIRED = {"sweep": ("vary", "values"), "diffusion": ("process",)}


def parse_values(text) -> tuple[float, ...]:
    """Parse a sweep value list: "1,2,3", "min:max:step" (inclusive), or a
    JSON array when supplied via a config file."""
    try:
        if isinstance(text, (list, tuple)):
            if not all(type(v) in (int, float) for v in text):
                raise ConfigError(f"sweep values must be numbers, got {text!r}")
            return tuple(float(v) for v in text)
        if ":" in text:
            lo, hi, step = bounds = [float(part) for part in text.split(":")]
            if not all(map(math.isfinite, bounds)) or step <= 0 or hi < lo:
                raise ConfigError(f"bad value range {text!r}")
            count = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return tuple(round(lo + k * step, 12) for k in range(count))
        return tuple(float(part) for part in text.split(","))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse values {text!r}: {exc}") from exc


def _add_common(parser: argparse.ArgumentParser, model_choices) -> None:
    parser.add_argument("--config", help="JSON file of flag defaults; flags override")
    parser.add_argument("--model", choices=model_choices, default=None)
    parser.add_argument("--n", type=int, default=20, help="population size")
    parser.add_argument("--g", type=int, default=10, help="grid side length")
    parser.add_argument("--r", type=float, default=None, help="communication range (range model)")
    parser.add_argument("--p-connect", type=float, default=None,
                        help="connection probability (null model)")
    parser.add_argument("--steps", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=1,
                        help="processes in all, the calling one included; the pool opens "
                             "min(workers, rounds) - 1, counting a sweep's rounds over all "
                             "its cells")
    parser.add_argument("--out", default="-", help="output CSV path, '-' for stdout")


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-ref", type=int, default=DEFAULT_N_REF,
                        help="reference graphs per small-world evaluation")
    parser.add_argument("--no-small-world", action="store_true",
                        help="skip small-world sampling (column left empty)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangesim",
        description="Dynamic networks of agents that link while in range, vs a non-spatial null model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="per-timestep metric dump for one configuration")
    _add_common(run, ("range", "null"))
    _add_metrics_flags(run)
    run.set_defaults(rounds=1, handler=_cmd_run)

    sweep = sub.add_parser("sweep", help="aggregate CSV over a varied parameter")
    _add_common(sweep, ("range", "null", "both"))
    _add_metrics_flags(sweep)
    sweep.add_argument("--vary", choices=sorted(VARY_ALIASES), help="required")
    sweep.add_argument("--values", help="required: comma list or min:max:step, e.g. 0:10:1")
    sweep.add_argument("--burn-in", type=int, default=0,
                       help="timesteps dropped from each round's time-average")
    sweep.set_defaults(handler=_cmd_sweep)

    diff = sub.add_parser("diffusion", help="transmission-process trajectory CSV")
    _add_common(diff, ("range", "null"))
    diff.add_argument("--process", choices=("si", "complex", "cultural", "potion"),
                      help="required")
    diff.add_argument("--p-infect", type=float, default=0.1)
    diff.add_argument("--n-init", type=int, default=1)
    diff.add_argument("--exposure", choices=("per_neighbor", "per_agent"),
                      default="per_neighbor")
    diff.add_argument("--p-base", type=float, default=0.01)
    diff.add_argument("--w", type=float, default=1.0)
    diff.add_argument("--p-a", type=float, default=0.1)
    diff.add_argument("--p-b", type=float, default=0.2)
    diff.add_argument("--init-split", type=float, default=0.5)
    diff.add_argument("--p-diff", type=float, default=0.5)
    diff.add_argument("--recipes", default=None, help="JSON recipe table path")
    diff.set_defaults(handler=_cmd_diffusion)

    return parser


def _apply_config_file(path: str, parser: argparse.ArgumentParser) -> None:
    """Make the values of the JSON config file the command's defaults."""
    with open(path, encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    actions = {action.dest: action for action in parser._actions}
    defaults = {}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r} in {path}")
        defaults[action.dest] = _config_value(parser, action, key, value)
    parser.set_defaults(**defaults)


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, key: str, value):
    """A config-file value, accepted only where its flag accepts its text.

    Switches take a JSON bool, string flags a string (`values` also a
    list of numbers), numeric flags a number.
    """
    if action.dest == "values" and type(value) is list:
        return value  # parse_values checks each element
    # exact types, so that JSON true is not taken for the number 1
    kinds = (bool,) if action.nargs == 0 else (str,) if action.type is None else (int, float)
    try:
        if type(value) not in kinds:
            raise argparse.ArgumentError(action, f"invalid JSON {type(value).__name__} {value!r}")
        if kinds != (bool,):
            value = parser._get_value(action, str(value))
            parser._check_value(action, value)
    except argparse.ArgumentError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    return value


def _sim_config(args, model: ModelKind, vary: str | None = None) -> SimConfig:
    """The config the flags give, as SimConfig checks it. In a sweep the
    swept parameter takes a placeholder that passes those checks, since
    only the cells run; outside one, the other model's parameter is dropped."""
    n, g, r, p = args.n, args.g, args.r, args.p_connect
    if vary is None:
        r, p = (r, None) if model is ModelKind.RANGE else (None, p)
    elif vary in ("r", "p_connect"):
        r, p = (0.0 if r is None else r), (0.0 if p is None else p)
    elif vary == "n":
        n = 1
    elif vary == "g":
        g = n  # n <= g*g for any n >= 1
    return SimConfig(model=model, n=n, g=g, r=r, p_connect=p,
                     steps=args.steps, rounds=args.rounds, seed=args.seed)


def _n_ref(args) -> int | None:
    """Reference graphs per small-world index; None with --no-small-world."""
    if args.n_ref < 1:
        raise ConfigError(f"n_ref must be at least 1, got {args.n_ref}")
    return None if args.no_small_world else args.n_ref


def _cmd_run(args) -> int:
    model = ModelKind(args.model or "range")
    config = _sim_config(args, model)
    write_timeseries_csv(config, args.out, _n_ref(args), workers=args.workers)
    return 0


def _cmd_sweep(args) -> int:
    choice = args.model or "both"
    paired = choice == "both"
    model = ModelKind.RANGE if choice in ("range", "both") else ModelKind.NULL
    vary = VARY_ALIASES[args.vary]
    base = _sim_config(args, model, vary)
    sweep = SweepConfig(base=base, vary=vary, values=parse_values(args.values),
                        paired=paired, n_ref=_n_ref(args), burn_in=args.burn_in)
    write_csv(iter_sweep(sweep, workers=args.workers), args.out)
    return 0


def _process_config(args):
    if args.process == "si":
        return SIConfig(p_infect=args.p_infect, n_init=args.n_init,
                        exposure=args.exposure)
    if args.process == "complex":
        return ComplexContagionConfig(p_base=args.p_base, w=args.w, n_init=args.n_init)
    if args.process == "cultural":
        return CulturalConfig(p_a=args.p_a, p_b=args.p_b, init_split=args.init_split)
    if args.recipes:
        return load_potion_config(args.recipes, p_diff=args.p_diff)
    return default_potion_config(p_diff=args.p_diff)


def _cmd_diffusion(args) -> int:
    model = ModelKind(args.model or "range")
    config = _sim_config(args, model)
    trajectories = run_diffusion_rounds(config, _process_config(args),
                                        workers=args.workers)
    write_trajectories_csv(trajectories, args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args.config, _subparsers(parser)[args.command])
            args = parser.parse_args(argv)  # explicit flags override the file
        for dest in REQUIRED.get(args.command, ()):
            if getattr(args, dest) is None:
                raise ConfigError(f"--{dest} is required, as a flag or a config key")
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        return args.handler(args)
    except ConfigError as exc:
        print(f"rangesim: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rangesim: I/O error: {exc}", file=sys.stderr)
        return 3


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


if __name__ == "__main__":
    sys.exit(main())
