"""Command-line interface.

Subcommands:

* ``test``           - run the normality test on a data file
* ``critvals``       - simulate critical-value table rows
* ``power``          - power study for one or more alternatives
* ``tables``         - emit the embedded critical-value table
* ``constant-c``     - estimate the centring constant from simulations
* ``verify-moments`` - Monte Carlo check of the fourth-moment formula

Exit codes: 0 success (whether or not H0 is rejected - the decision is a
result, not a failure), 2 usage errors, 3 data errors.

The Monte Carlo handlers import the engine, the samplers and the comparison
tests when they run, so ``tcvm test`` and ``tcvm tables`` load none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .statistic import tcvm_test
from .table import (
    ALPHA_LEVELS, MIN_TCVM_N, CriticalValueTable, TableCoverageError, UnsupportedAlphaError,
    embedded_table,
)

if TYPE_CHECKING:
    from .baselines import BaselineKind

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class DataError(Exception):
    """Invalid input data; maps to exit code 3."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_safe(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(payload, out) -> None:
    """Strict JSON (RFC 8259): a non-finite float is written as null."""
    json.dump(_json_safe(payload), out, indent=2, allow_nan=False)
    out.write("\n")


def _emit_record(record: Dict[str, object], fmt: str, out) -> None:
    if fmt == "json":
        _write_json(record, out)
    else:
        out.write(",".join(record.keys()) + "\n")
        out.write(",".join(_fmt(v) for v in record.values()) + "\n")


def read_sample_file(path: str) -> np.ndarray:
    """One real per line, or a single-column CSV with an optional header."""
    try:
        # utf-8-sig drops a byte-order mark, which float() would refuse
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    values: List[float] = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = [t.strip() for t in raw.strip().split(",") if t.strip()]
        if not tokens:
            continue
        if len(tokens) > 1:
            raise DataError(
                f"{path}:{lineno}: expected a single value per line, got "
                f"{len(tokens)} fields"
            )
        try:
            values.append(float(tokens[0]))
        except ValueError:
            if lineno == 1 and not values:
                continue  # header row
            raise DataError(
                f"{path}:{lineno}: non-numeric value {tokens[0]!r}"
            ) from None
    if len(values) < 3:
        raise DataError(f"{path}: needs at least 3 numeric values, got {len(values)}")
    return np.asarray(values)


def _seed_from(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TCVM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"TCVM_SEED must be an integer, got {env!r}") from None
    return 0


def _parse_alphas(text: Optional[str]) -> Sequence[float]:
    if not text:
        return ALPHA_LEVELS
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise DataError(f"bad alpha list {text!r}") from None


def _parse_sizes(args: argparse.Namespace) -> Sequence[int]:
    from .engine import _check_n

    if args.n_range:
        try:
            lo, hi = args.n_range.split("..")
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise DataError(f"bad n-range {args.n_range!r}; expected A..B") from None
        if lo_i > hi_i:
            raise DataError(f"bad n-range {args.n_range!r}")
        # both ends meet the engine's size rule before any row is simulated,
        # and the range stays lazy, so a huge range allocates nothing
        _check_n(lo_i)
        _check_n(hi_i)
        return range(lo_i, hi_i + 1)
    if args.n is not None:
        return [args.n]
    raise DataError("one of --n or --n-range is required")


def _parse_kinds(text: Optional[str]) -> List[BaselineKind]:
    from .baselines import BaselineKind

    if not text or text.strip().lower() == "all":
        return list(BaselineKind)
    try:
        kinds = [BaselineKind.parse(t) for t in text.split(",")]
    except ValueError as exc:
        raise DataError(str(exc)) from None
    repeated = sorted({k.value for k in kinds if kinds.count(k) > 1})
    if repeated:
        raise DataError(f"test kind given more than once: {', '.join(repeated)}")
    return kinds


def _load_table(path: Optional[str]) -> Optional[CriticalValueTable]:
    if path is None:
        return None
    try:
        # utf-8-sig drops a byte-order mark, as read_sample_file does
        with open(path, "r", encoding="utf-8-sig") as fh:
            return CriticalValueTable.from_csv(fh.read(), provenance=path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load critical-value table {path}: {exc}") from exc


def cmd_test(args: argparse.Namespace, out) -> int:
    data = read_sample_file(args.data)
    table = _load_table(args.table)
    try:
        outcome, result = tcvm_test(data, args.alpha, table)
    except UnsupportedAlphaError:
        raise  # a usage error, although it is a ValueError
    except ValueError as exc:  # DegenerateSampleError included
        raise DataError(f"{args.data}: {exc}") from exc
    except TableCoverageError as exc:
        message = str(exc)
        if data.size >= MIN_TCVM_N:  # below it critvals refuses too; the message says why
            message += f" (simulate one with: tcvm critvals --n {data.size})"
        raise DataError(message) from exc
    record = {
        "n": result.n,
        "a_n": result.a_n,
        "C_n": result.c_n,
        "k": result.k,
        "m": result.m,
        "t_star": result.t_star,
        "critical_value": outcome.critical_value,
        "alpha": outcome.alpha,
        "reject": outcome.reject,
        "interpolated": outcome.interpolated,
    }
    _emit_record(record, args.format, out)
    return EXIT_OK


def cmd_critvals(args: argparse.Namespace, out) -> int:
    from .engine import simulate_table

    sizes = _parse_sizes(args)
    alphas = _parse_alphas(args.alphas)
    table = simulate_table(
        sizes, alphas, reps=args.reps, seed=_seed_from(args), workers=args.workers
    )
    if args.format == "json":
        payload = {
            "provenance": table.provenance,
            "alphas": list(table.alphas),
            "rows": {
                str(n): {
                    "critical_values": {
                        _fmt(a): row.critical_values[a] for a in table.alphas
                    },
                    "a_n": row.a_n,
                    "C_n": row.c_n,
                }
                for n, row in sorted(table.rows.items())
            },
        }
        _write_json(payload, out)
    else:
        out.write(table.to_csv())
    return EXIT_OK


def cmd_power(args: argparse.Namespace, out) -> int:
    from .alternatives import SpecError, parse_spec
    from .engine import estimate_null_critical_values, estimate_power

    kinds = _parse_kinds(args.tests)
    try:
        specs = [parse_spec(s) for s in args.alt]
    except SpecError as exc:
        raise DataError(str(exc)) from exc
    seed = _seed_from(args)
    crits = estimate_null_critical_values(
        kinds, args.n, args.alpha, reps=args.cv_reps, seed=seed + 1, workers=args.workers
    )
    reports = []
    for spec in specs:
        try:
            reports.append(
                estimate_power(
                    kinds,
                    spec,
                    args.n,
                    args.alpha,
                    reps=args.reps,
                    seed=seed,
                    critical_values=crits,
                    workers=args.workers,
                )
            )
        except ValueError as exc:  # name the row: several --alt may be given
            raise ValueError(f"{spec}: {exc}") from exc
    if args.format == "json":
        payload = [
            {
                "alternative": str(r.spec),
                "n": r.n,
                "alpha": r.alpha,
                "reps": r.reps,
                "seed": r.seed,
                "power": {k.value: r.rates[k] for k in kinds},
                "stderr": {k.value: r.stderr[k] for k in kinds},
                "critical_values": {k.value: r.critical_values[k] for k in kinds},
            }
            for r in reports
        ]
        _write_json(payload, out)
    else:
        out.write("alternative," + ",".join(k.value for k in kinds) + "\n")
        for r in reports:
            out.write(
                str(r.spec)
                + ","
                + ",".join(_fmt(r.rates[k]) for k in kinds)
                + "\n"
            )
    return EXIT_OK


def cmd_tables(args: argparse.Namespace, out) -> int:
    out.write(embedded_table().to_csv())
    return EXIT_OK


def cmd_constant_c(args: argparse.Namespace, out) -> int:
    from .engine import estimate_constant_c

    est = estimate_constant_c(
        args.n, reps=args.reps, seed=_seed_from(args), workers=args.workers
    )
    record = {
        "n": est.n,
        "reps": est.reps,
        "seed": est.seed,
        "c_hat": est.value,
        "stderr": est.stderr,
    }
    _emit_record(record, args.format, out)
    return EXIT_OK


def cmd_verify_moments(args: argparse.Namespace, out) -> int:
    from .engine import verify_fourth_moments

    checks = verify_fourth_moments(
        [(args.x, args.y)],
        args.n,
        reps=args.reps,
        seed=_seed_from(args),
        workers=args.workers,
    )
    _emit_record(dataclasses.asdict(checks[0]), args.format, out)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master seed (default: TCVM_SEED or 0)")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker threads, each drawing whole blocks of min(4096, 2^22 // n) rows into one "
        "reused workspace, at most one per core; results do not depend on it. 2 on 2 cores ran "
        "n = 1000 1.4-1.5x and n <= 50 0.84-0.89x as fast as 1",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcvm",
        description="Truncated weighted goodness-of-fit test for normality and "
        "its Monte Carlo toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="test a data file for normality")
    p.add_argument("data", help="file with one value per line (optional header)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--table", default=None, help="CSV critical-value table override")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("critvals", help="simulate critical values")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-range", default=None, metavar="A..B")
    p.add_argument(
        "--alphas", default=None, help="comma-separated levels; each needs --reps >= 1/alpha"
    )
    p.add_argument("--reps", type=int, default=50_000)
    _add_common(p)
    p.set_defaults(func=cmd_critvals)

    p = sub.add_parser("power", help="power study against alternatives")
    p.add_argument("--alt", action="append", required=True, help="e.g. LoConN(0.5,4); repeatable")
    p.add_argument("--tests", default="all", help="comma list of tcvm,cvm,bcmr,ad,sw")
    p.add_argument("--n", type=int, default=50)
    p.add_argument(
        "--alpha", type=float, default=0.05, help="level; needs --cv-reps >= 1/alpha"
    )
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--cv-reps", type=int, default=50_000, help="replications for the critical values")
    _add_common(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("tables", help="emit the embedded critical-value table")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("constant-c", help="estimate the centring constant")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_constant_c)

    p = sub.add_parser("verify-moments", help="Monte Carlo fourth-moment check")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--reps", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=cmd_verify_moments)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except DataError as exc:
        print(f"tcvm: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TableCoverageError, ValueError) as exc:  # SpecError is a ValueError
        print(f"tcvm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = str(exc).splitlines()[0] if str(exc) else "allocation failed"
        print(
            f"tcvm: error: out of memory ({detail}); try a smaller --n or "
            "fewer --workers",
            file=sys.stderr,
        )
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
