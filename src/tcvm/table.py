"""Critical-value table: embedded rows, CSV round-trip, and n-interpolation."""

from __future__ import annotations

import bisect
import io
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Tuple

from . import _table_data
from .normal import endpoint

__all__ = [
    "ALPHA_LEVELS",
    "CriticalValueRow",
    "CriticalValueTable",
    "TableCoverageError",
    "UnsupportedAlphaError",
    "embedded_table",
]

ALPHA_LEVELS: Tuple[float, ...] = (0.15, 0.1, 0.075, 0.05, 0.025, 0.01, 0.001)

MIN_TCVM_N = 4  # at n = 3 all samples with |y_(2)| >= a_3 give one TCVM value


def _check_tcvm_n(n: int, error: type = ValueError) -> None:
    if n < MIN_TCVM_N:
        raise error(
            f"TCVM needs n >= {MIN_TCVM_N}, got {n}: at n = 3 the statistic's null "
            "law has an atom at its maximum (~41% of samples)"
        )


class TableCoverageError(LookupError):
    """Requested sample size is outside the table's range."""


class UnsupportedAlphaError(ValueError):
    """Requested significance level is not a table column."""


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class CriticalValueRow:
    """One table row: critical values per level plus a_n and C_n.

    ``critical_values`` is a read-only view of a copy taken at construction,
    so a row, and the cached embedded table, cannot be changed in place.
    """

    n: int
    critical_values: Mapping[float, float]
    a_n: float
    c_n: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "critical_values", MappingProxyType(dict(self.critical_values)))
        _check_tcvm_n(self.n)
        vals = [self.critical_values[a] for a in sorted(self.critical_values, reverse=True)]
        if not all(math.isfinite(v) for v in vals + [self.a_n, self.c_n]):
            raise ValueError(f"the row for n={self.n} holds a non-finite value")
        if any(lo >= hi for lo, hi in zip(vals, vals[1:])):
            raise ValueError(
                f"critical values for n={self.n} must increase as alpha decreases"
            )

    def to_csv_line(self, alphas: Iterable[float]) -> str:
        cells = [str(self.n)]
        cells += [_fmt(self.critical_values[a]) for a in alphas]
        cells += [_fmt(self.a_n), _fmt(self.c_n)]
        return ",".join(cells)


@dataclass(frozen=True)
class CriticalValueTable:
    """Critical values indexed by sample size, with metadata columns.

    ``provenance`` records where the quantiles came from: the embedded
    published table or a fresh simulation (replications and seed).
    ``rows`` is a read-only view of a copy taken at construction.
    """

    rows: Mapping[int, CriticalValueRow] = field(repr=False)
    provenance: str = "embedded"
    alphas: Tuple[float, ...] = ALPHA_LEVELS
    sizes: Tuple[int, ...] = field(init=False, repr=False, compare=False)  # sorted once

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", MappingProxyType(dict(self.rows)))
        object.__setattr__(self, "sizes", tuple(sorted(self.rows)))
        alphas = self.alphas
        if not alphas or len(set(alphas)) < len(alphas) or not all(0.0 < a < 1.0 for a in alphas):
            raise ValueError(f"levels must be distinct and inside (0, 1), one or more, got {alphas}")
        for row in self.rows.values():
            if not set(alphas) <= set(row.critical_values):
                raise ValueError(f"the row for n={row.n} lacks a level of {alphas}")

    def critical_value(self, n: int, alpha: float) -> Tuple[float, bool]:
        """Critical value at (n, alpha); second element marks interpolation.

        Sample sizes between table rows interpolate linearly in ln(n); sizes
        outside the covered range raise TableCoverageError (below MIN_TCVM_N
        its message names that rule); a non-integer n raises TypeError.
        """
        if not isinstance(n, numbers.Integral):  # int and np.integer, as in endpoint
            raise TypeError(f"n must be an integer, got {type(n).__name__}")
        alpha = float(alpha)
        if alpha not in self.alphas:
            raise UnsupportedAlphaError(
                f"alpha={alpha!r} is not a table level; choose one of {self.alphas}"
            )
        sizes = self.sizes
        if not sizes or n < sizes[0] or n > sizes[-1]:
            _check_tcvm_n(n, TableCoverageError)
            covered = f"[{sizes[0]}, {sizes[-1]}]" if sizes else "(empty)"
            raise TableCoverageError(
                f"n={n} outside the table range {covered}; simulate critical "
                "values instead"
            )
        if n in self.rows:
            return self.rows[n].critical_values[alpha], False
        i = bisect.bisect(sizes, n)  # sizes[i - 1] < n < sizes[i]
        lo, hi = sizes[i - 1], sizes[i]
        w = (math.log(n) - math.log(lo)) / (math.log(hi) - math.log(lo))
        v_lo = self.rows[lo].critical_values[alpha]
        v_hi = self.rows[hi].critical_values[alpha]
        return (1.0 - w) * v_lo + w * v_hi, True

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n," + ",".join(_fmt(a) for a in self.alphas) + ",a_n,C_n\n")
        for n in self.sizes:
            buf.write(self.rows[n].to_csv_line(self.alphas) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, provenance: str = "user") -> "CriticalValueTable":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty critical-value table")
        header = lines[0].split(",")
        if header[0].lower() != "n" or len(header) < 4:
            raise ValueError("critical-value table must start with a header row")
        alphas = tuple(float(a) for a in header[1:-2])
        rows: Dict[int, CriticalValueRow] = {}
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(alphas) + 3:
                raise ValueError(f"malformed table row: {ln!r}")
            n = int(cells[0])
            if n in rows:
                raise ValueError(f"n={n} appears in more than one row")
            crits = {a: float(v) for a, v in zip(alphas, cells[1:-2])}
            rows[n] = CriticalValueRow(
                n=n, critical_values=crits, a_n=float(cells[-2]), c_n=float(cells[-1])
            )
        return cls(rows=rows, provenance=provenance, alphas=alphas)


@lru_cache(maxsize=1)
def embedded_table() -> CriticalValueTable:
    """The package's built-in critical-value table."""
    table = CriticalValueTable.from_csv(
        "n," + ",".join(_fmt(a) for a in ALPHA_LEVELS) + ",a_n,C_n\n"
        + _table_data.CRITICAL_VALUE_ROWS,
        provenance="embedded",
    )
    # metadata sanity: a_n must match the deterministic endpoint to 4 d.p.
    for n, row in table.rows.items():
        if abs(row.a_n - endpoint(n).a_n) > 5e-4:
            raise AssertionError(f"embedded a_n for n={n} is inconsistent")
    return table
