"""Configuration-driven command line: evolve fields, verify, emit tables.

Configs are flat ``key=value`` text files (``#`` comments, blank lines
allowed) with dotted keys; command-line flags override file values.  Every
run serializes its fully resolved configuration into the output directory,
so re-running from that file reproduces the outputs byte for byte.

Exit codes: 0 success, 1 verification found failing checks, 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .fields import field_rule
from .generator import generator_residuals, mild_identity_residual
from .grid_field import read_field_csv, sample, write_field_csv
from .semigroup import Method, apply, trajectory, write_trajectory
from .verify import (
    SuiteConfig,
    continuity_scan,
    format_complex,
    parse_complex,
    run_suite,
)

__all__ = ["ConfigError", "read_config", "write_config", "main", "console_entry"]


class ConfigError(Exception):
    """A configuration file or configuration value is malformed."""


def read_config(path) -> dict:
    """Parse a flat key=value config file; errors carry the line number."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def write_config(mapping: dict, path) -> None:
    """Write a mapping as sorted key=value lines (the serialized form that
    read_config parses back verbatim)."""
    lines = [f"{key}={mapping[key]}" for key in sorted(mapping)]
    Path(path).write_text("\n".join(lines) + "\n")


def _suite_config(mapping: dict) -> SuiteConfig:
    try:
        return SuiteConfig.from_mapping(mapping)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _resolve(mapping: dict, key: str, flag_value):
    """Flag value if given, else the config-file value, else None."""
    if flag_value is not None:
        return flag_value
    return mapping.get(key) or None


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt_times(times) -> str:
    return ",".join(format(t, ".17g") for t in times)


def _cmd_evolve(args) -> int:
    mapping = read_config(args.config) if args.config else {}
    cfg = _suite_config(mapping)

    rule_name = _resolve(mapping, "evolve.rule", args.rule)
    input_path = _resolve(mapping, "evolve.input", args.input)
    zeta_text = _resolve(mapping, "evolve.zeta", args.zeta)
    times_text = _resolve(mapping, "evolve.times", args.times)
    method_name = _resolve(mapping, "evolve.method", args.method)

    if (rule_name is None) == (input_path is None):
        raise ConfigError("evolve needs exactly one input: --rule NAME or --input FIELD.csv")
    if (zeta_text is None) == (times_text is None):
        raise ConfigError("evolve needs exactly one of --zeta or --times")

    if input_path is not None:
        try:
            f = read_field_csv(input_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read field {input_path}: {exc}") from None
    else:
        try:
            f = sample(cfg.grid, field_rule(rule_name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    method = None
    if method_name is not None:
        try:
            method = Method(method_name.lower())
        except ValueError:
            raise ConfigError(f"unknown method {method_name!r}; use quadrature or spectral") from None

    out = _out_dir(args.out)
    effective = dict(cfg.to_mapping())
    if rule_name is not None:
        effective["evolve.rule"] = rule_name
    else:
        effective["evolve.input"] = str(input_path)
    if method_name is not None:
        effective["evolve.method"] = method.value

    try:
        if zeta_text is not None:
            zeta = parse_complex(zeta_text)
            result = apply(zeta, f, method=method)
            write_field_csv(result, out / "field.csv")
            effective["evolve.zeta"] = format_complex(zeta)
        else:
            times = tuple(float(part) for part in times_text.split(",") if part.strip())
            traj = trajectory(f, times, method=method)
            write_trajectory(traj, out)
            effective["evolve.times"] = _fmt_times(times)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    write_config(effective, out / "effective.cfg")
    return 0


def _cmd_verify(args) -> int:
    mapping = read_config(args.config) if args.config else {}
    cfg = _suite_config(mapping)
    report = run_suite(cfg)
    out = _out_dir(args.out)
    report.write_csv(out / "report.csv")
    report.write_text(out / "report.txt")
    write_config(cfg.to_mapping(), out / "effective.cfg")
    sys.stdout.write(report.to_text())
    return 0 if report.all_pass else 1


def _continuity_table(cfg: SuiteConfig, f):
    for e in continuity_scan(f, cfg.space, cfg.alpha, cfg.rays, cfg.radii, margin=cfg.margin):
        yield e.ray, e.radius, e.residual


def _generator_table(cfg: SuiteConfig, f):
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        res = generator_residuals(f, 0.5, dt, space=cfg.space, margin=cfg.margin)
        yield dt, res.r1, res.r2, res.r3


def _mild_table(cfg: SuiteConfig, f):
    for steps in (32, 64, 128, 256, 512):
        yield steps, mild_identity_residual(f, 1.0, steps=steps, space=cfg.space, margin=cfg.margin)


# check -> (CSV header, SuiteConfig attribute naming the field rule, rows(cfg, field))
_TABLES = {
    "continuity": ("ray,radius,residual", "continuity_rule", _continuity_table),
    "generator": ("dt,r1,r2,r3", "rule", _generator_table),
    "mild": ("steps,residual", "rule", _mild_table),
}


def _cmd_table(args) -> int:
    mapping = read_config(args.config) if args.config else {}
    cfg = _suite_config(mapping)
    check = args.check or mapping.get("table.check")
    if check not in _TABLES:
        raise ConfigError(f"table needs --check {'|'.join(_TABLES)}, got {check!r}")
    header, rule, rows = _TABLES[check]
    out = _out_dir(args.out)
    f = sample(cfg.grid, field_rule(getattr(cfg, rule)))
    lines = [header] + [",".join(format(v, ".17g") for v in row) for row in rows(cfg, f)]
    (out / f"{check}_table.csv").write_text("\n".join(lines) + "\n")
    effective = dict(cfg.to_mapping())
    effective["table.check"] = check
    write_config(effective, out / "effective.cfg")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausspoisson",
        description="Evolve fields under the Gaussian kernel semigroup and verify its identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="apply the evolution operator to a field")
    evolve.add_argument("--config", help="flat key=value configuration file")
    evolve.add_argument("--rule", help="named analytic initial field")
    evolve.add_argument("--input", help="initial field CSV (alternative to --rule)")
    evolve.add_argument("--zeta", help="complex time a+bi (single application)")
    evolve.add_argument("--times", help="comma-separated increasing real times (trajectory)")
    evolve.add_argument("--method", help="quadrature or spectral (default: per-time choice)")
    evolve.add_argument("--out", required=True, help="output directory")
    evolve.set_defaults(func=_cmd_evolve)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--config", help="flat key=value configuration file")
    verify.add_argument("--out", required=True, help="output directory")
    verify.set_defaults(func=_cmd_verify)

    table = sub.add_parser("table", help="emit residual scan tables as CSV")
    table.add_argument("--config", help="flat key=value configuration file")
    table.add_argument("--check", choices=tuple(_TABLES))
    table.add_argument("--out", required=True, help="output directory")
    table.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))
