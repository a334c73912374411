"""Command-line interface: run, sweep, presets.

Exit codes: 0 success, 2 usage/configuration error, 3 integration failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CavityFockError, ConfigError, IntegrationError
from .scenarios import (
    INT_FIELDS,
    NUMERIC_FIELDS,
    OPTIONAL_FLOAT_FIELDS,
    PRESETS,
    SimulationConfig,
    config_field_names,
    resolve_preset,
    run,
    sweep,
)


def _coerce(key: str, raw: str):
    if key not in NUMERIC_FIELDS:
        return raw
    if key in INT_FIELDS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key} expects an integer, got {raw!r}") from None
    if key in OPTIONAL_FLOAT_FIELDS and raw.lower() in ("", "none"):
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {raw!r}") from None


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and lines starting with # ignored."""
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {stripped!r}"
                )
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value.strip()
    return entries


def _resolve_config(args) -> SimulationConfig:
    overrides: dict[str, str] = {}
    if args.config:
        overrides.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()

    scenario = args.preset or overrides.pop("scenario", None)
    config = resolve_preset(scenario) if scenario else SimulationConfig()

    known = set(config_field_names())
    for key, raw in overrides.items():
        if key not in known:
            raise ConfigError(
                f"unknown configuration key {key!r}; valid keys: "
                + ", ".join(sorted(known))
            )
        setattr(config, key, _coerce(key, raw))
    if args.out:
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
    values = [_coerce(args.param, raw) for raw in args.values.split(",")] if args.values else []
    out = args.out or "sweep.csv"
    path = sweep(config, args.param, values, out)
    print(f"rows={len(values)}")
    print(f"output_path={path}")
    return 0


def _cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        settings = " ".join(f"{k}={v}" for k, v in sorted(PRESETS[name].items()))
        print(f"{name}: {settings}")
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
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
