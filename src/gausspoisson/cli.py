"""Configuration-driven command line: evolve fields, verify, emit tables.

Configs are flat ``key=value`` text files (``#`` comments, blank lines
allowed) with dotted keys; command-line flags override file values.  Every
run serializes its fully resolved configuration into the output directory,
so re-running from that file reproduces the outputs byte for byte.

Exit codes: 0 success, 1 verification found failing checks, 2 usage or
configuration errors, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .fields import field_rule
from .generator import generator_residuals, mild_identity_residual
from .grid_field import read_field_csv, sample, write_field_csv
from .semigroup import apply, trajectory, write_trajectory
from .verify import (
    SuiteConfig,
    _g17,
    _joined,
    _list_of,
    continuity_scan,
    format_complex,
    parse_complex,
    run_suite,
)

__all__ = ["ConfigError", "read_config", "write_config", "main", "console_entry"]


class ConfigError(ValueError):
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


# The command keys of a config file: each is the flag after its dot, for the
# subcommand before it.  Every other key is the suite's.
_COMMAND_KEYS = ("evolve.rule", "evolve.input", "evolve.zeta", "evolve.times", "evolve.method", "table.check")


def _load(args) -> SuiteConfig:
    """Read ``--config``: its command keys for the running subcommand fill the
    flags that were not given, and the other keys form the suite config."""
    mapping = read_config(args.config) if args.config else {}
    for key in _COMMAND_KEYS:
        command, _, flag = key.partition(".")
        value = mapping.pop(key, None) or None
        if command == args.command and getattr(args, flag) is None:
            setattr(args, flag, value)
    return SuiteConfig.from_mapping(mapping)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_evolve(args) -> int:
    cfg = _load(args)
    if (args.rule is None) == (args.input is None):
        raise ConfigError("evolve needs exactly one input: --rule NAME or --input FIELD.csv")
    if (args.zeta is None) == (args.times is None):
        raise ConfigError("evolve needs exactly one of --zeta or --times")

    if args.input is not None:
        try:
            f = read_field_csv(args.input)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read field {args.input}: {exc}") from None
    else:
        f = sample(cfg.grid, field_rule(args.rule))

    method = None if args.method is None else args.method.lower()  # checked by apply_many
    effective = dict(cfg.to_mapping())
    if args.rule is not None:
        effective["evolve.rule"] = args.rule
    else:
        effective["evolve.input"] = str(args.input)
    if args.method is not None:
        effective["evolve.method"] = method

    # the output directory is made only once the evolution has succeeded
    if args.zeta is not None:
        zeta = parse_complex(args.zeta)
        result = apply(zeta, f, method=method)
        write_field_csv(result, _out_dir(args.out) / "field.csv")
        effective["evolve.zeta"] = format_complex(zeta)
    else:
        times = _list_of(float)(args.times)
        write_trajectory(trajectory(f, times, method=method), args.out)
        effective["evolve.times"] = _joined(_g17)(times)

    write_config(effective, Path(args.out) / "effective.cfg")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load(args)
    out = _out_dir(args.out)  # before the suite runs, so a bad --out fails fast
    report = run_suite(cfg)
    report.write_csv(out / "report.csv")
    report.write_text(out / "report.txt")
    write_config(cfg.to_mapping(), out / "effective.cfg")
    sys.stdout.write(report.to_text())
    return 0 if report.all_pass else 1


def _continuity_table(cfg: SuiteConfig, f):
    scans = continuity_scan(f, cfg.space, cfg.alpha, cfg.rays, cfg.radii, margin=cfg.margin)
    for ray, residuals in zip(cfg.rays, scans):
        for radius, residual in zip(cfg.radii, residuals):
            yield ray, radius, residual


def _generator_table(cfg: SuiteConfig, f):
    dts = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
    for dt, res in zip(dts, generator_residuals(f, 0.5, dts, space=cfg.space, margin=cfg.margin)):
        yield dt, res.r1, res.r2, res.r3


def _mild_table(cfg: SuiteConfig, f):
    steps = (32, 64, 128, 256, 512)
    return zip(steps, mild_identity_residual(f, 1.0, steps, space=cfg.space, margin=cfg.margin))


# check -> (CSV header, SuiteConfig attribute naming the field rule, rows(cfg, field))
_TABLES = {
    "continuity": ("ray,radius,residual", "continuity_rule", _continuity_table),
    "generator": ("dt,r1,r2,r3", "rule", _generator_table),
    "mild": ("steps,residual", "rule", _mild_table),
}


def _cmd_table(args) -> int:
    cfg = _load(args)
    if args.check not in _TABLES:
        raise ConfigError(f"table needs --check {'|'.join(_TABLES)}, got {args.check!r}")
    header, rule, rows = _TABLES[args.check]
    out = _out_dir(args.out)
    f = sample(cfg.grid, field_rule(getattr(cfg, rule)))
    lines = [header] + [",".join(format(v, ".17g") for v in row) for row in rows(cfg, f)]
    (out / f"{args.check}_table.csv").write_text("\n".join(lines) + "\n")
    effective = dict(cfg.to_mapping())
    effective["table.check"] = args.check
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
