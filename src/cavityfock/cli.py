"""Command-line interface: run, sweep, presets.

Exit codes: 0 success, 2 usage/configuration error, 3 integration failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import numbers
import sys

from .errors import CavityFockError, ConfigError, IntegrationError
from .scenarios import (
    FIELD_KINDS,
    NUMERIC_FIELDS,
    PRESETS,
    SimulationConfig,
    resolve_preset,
    run,
    sweep,
)


def _coerce(key: str, raw: str):
    """The value of a field from its text: an int field's is int(raw), so
    "2.0" is no integer, and every other numeric field's float(raw)."""
    if key not in NUMERIC_FIELDS:
        return raw
    kind, expected = FIELD_KINDS[key]
    try:
        return int(raw) if kind is numbers.Integral else float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects {expected}, got {raw!r}") from None


def _entries(items) -> dict[str, str]:
    """Split (where, text) items at their first "=" into stripped key/value
    entries, each key once; ``where`` (<path>:<line> or --set) names an item."""
    entries: dict[str, str] = {}
    for where, text in items:
        if "=" not in text:
            raise ConfigError(f"{where} expects key=value, got {text!r}")
        key, _, value = (part.strip() for part in text.partition("="))
        if key in entries:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        entries[key] = value
    return entries


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and lines starting with # ignored.
    A UTF-8 byte-order mark at its start is no part of the first line."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = [(f"{path}:{n}", line.strip()) for n, line in enumerate(handle, start=1)]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return _entries((where, text) for where, text in lines if text and not text.startswith("#"))


def _resolve_config(args) -> SimulationConfig:
    overrides = parse_config_file(args.config) if args.config else {}
    overrides.update(_entries(("--set", item) for item in args.set or []))
    if args.command == "sweep" and "output_path" in overrides:
        raise ConfigError("sweep writes its table to --out and takes no output_path")

    scenario = overrides.pop("scenario", None)
    if args.preset is not None and scenario not in (None, args.preset):
        raise ConfigError(f"scenario={scenario} disagrees with --preset {args.preset}")
    scenario = scenario if args.preset is None else args.preset
    config = SimulationConfig() if scenario is None else resolve_preset(scenario)

    for key, raw in overrides.items():
        if key not in FIELD_KINDS:
            raise ConfigError(
                f"unknown configuration key {key!r}; valid keys: "
                + ", ".join(sorted(FIELD_KINDS))
            )
        setattr(config, key, _coerce(key, raw))
    if args.out is not None:
        config.output_path = args.out
    return config


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    path, summary = run(config)
    for line in summary.lines():
        print(line)
    print(f"output_path={path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _resolve_config(args)
    values = [_coerce(args.param, raw) for raw in args.values.split(",")]
    out = "sweep.csv" if args.out is None else args.out
    path = sweep(config, args.param, values, out)
    print(f"rows={len(values)}")
    print(f"output_path={path}")
    return 0


def _cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        settings = " ".join(f"{k}={v}" for k, v in sorted(PRESETS[name].items()))
        print(f"{name}: {settings}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityfock",
        description=(
            "Simulate single-photon production in an atom-cavity system "
            "under adiabatic-passage and shortcut pulse schedules."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--preset", help="named scenario preset")
        p.add_argument("--out", help="output file path")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a configuration key (repeatable)",
        )

    run_parser = sub.add_parser("run", help="run one simulation, write a trajectory CSV")
    add_common(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="re-run while varying one parameter")
    add_common(sweep_parser)
    sweep_parser.add_argument("--param", required=True, help="configuration field to vary")
    sweep_parser.add_argument(
        "--values", required=True, help="comma-separated list of values"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    presets_parser = sub.add_parser("presets", help="list scenario presets")
    presets_parser.set_defaults(handler=_cmd_presets)
    return parser


def main(argv=None) -> int:
    # one parser per process: build_parser is cached, and parsing leaves it as it was
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CavityFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
