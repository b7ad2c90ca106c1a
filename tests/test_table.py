import math

import numpy as np
import pytest

from conftest import MEANINGLESS_TABLES
from tcvm import normal as nk
from tcvm.statistic import tcvm_test
from tcvm.table import (
    ALPHA_LEVELS,
    CriticalValueRow,
    CriticalValueTable,
    TableCoverageError,
    UnsupportedAlphaError,
    embedded_table,
)

EXPECTED_SIZES = list(range(10, 201)) + [250, 500, 750, 1000, 10000]


@pytest.fixture(scope="module")
def table():
    return embedded_table()


def test_row_count_and_sizes(table):
    assert list(table.sizes) == EXPECTED_SIZES
    assert len(table.rows) == 196


def test_first_row_emits_reference_string(table):
    line = table.rows[10].to_csv_line(table.alphas)
    assert line == "10,0.7547,0.8525,0.9259,1.0203,1.1917,1.4128,1.9025,1.2816,28.5798"


def test_last_printed_row_tail(table):
    line = table.rows[200].to_csv_line(table.alphas)
    assert line.endswith(",2.5758,6160.6415")
    assert line.startswith("200,1.6534,")


def test_a_n_column_matches_endpoint(table):
    # printed values carry 4 decimals and are sometimes truncated rather
    # than rounded, hence the one-ulp tolerance
    for n, row in table.rows.items():
        assert row.a_n == pytest.approx(nk.endpoint(n).a_n, abs=1e-4), n


def test_alpha_monotonicity_every_row(table):
    for n, row in table.rows.items():
        vals = [row.critical_values[a] for a in ALPHA_LEVELS]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:])), n


def test_known_cells(table):
    assert table.critical_value(50, 0.05) == (1.6897, False)
    assert table.critical_value(10, 0.15) == (0.7547, False)
    assert table.critical_value(10000, 0.001) == (5.6259, False)


def test_interpolation_in_log_n(table):
    value, interpolated = table.critical_value(225, 0.05)
    assert interpolated
    lo = table.rows[200].critical_values[0.05]
    hi = table.rows[250].critical_values[0.05]
    assert min(lo, hi) < value < max(lo, hi)
    w = (np.log(225) - np.log(200)) / (np.log(250) - np.log(200))
    assert value == pytest.approx((1 - w) * lo + w * hi, rel=1e-12)


def _scan(table, n):
    """critical_value at n and every level, by linear scans over the rows."""
    if n in table.rows:
        return [(table.rows[n].critical_values[a], False) for a in table.alphas]
    lo = max(s for s in table.rows if s < n)
    hi = min(s for s in table.rows if s > n)
    w = (math.log(n) - math.log(lo)) / (math.log(hi) - math.log(lo))
    v_lo, v_hi = table.rows[lo].critical_values, table.rows[hi].critical_values
    return [((1.0 - w) * v_lo[a] + w * v_hi[a], True) for a in table.alphas]


def test_lookup_equals_a_scan_at_every_n_and_level(table):
    first = min(table.rows)
    for n in range(4, 10**4 + 1):
        if n < first:
            for a in table.alphas:
                with pytest.raises(TableCoverageError):
                    table.critical_value(n, a)
            continue
        # == on the floats: the lookup must keep every bit
        assert [table.critical_value(n, a) for a in table.alphas] == _scan(table, n)


def test_coverage_errors(table):
    with pytest.raises(TableCoverageError):
        table.critical_value(9, 0.05)
    with pytest.raises(TableCoverageError):
        table.critical_value(10001, 0.05)


def test_coverage_error_below_four_names_the_rule(table):
    with pytest.raises(TableCoverageError, match="TCVM needs n >= 4, got 3") as info:
        table.critical_value(3, 0.05)
    assert "simulate" not in str(info.value)


@pytest.mark.parametrize("n", [55.5, 55.0, "55", None])
def test_non_integer_n_is_refused(table, n):
    # 55.5 read (1.712..., True): a value interpolated for a size no sample has
    with pytest.raises(TypeError, match="n must be an integer"):
        table.critical_value(n, 0.05)


def test_numpy_integer_n_is_accepted(table):
    for n in (55, 57):
        assert table.critical_value(np.int64(n), 0.05) == table.critical_value(n, 0.05)


def test_unsupported_alpha(table):
    with pytest.raises(UnsupportedAlphaError):
        table.critical_value(50, 0.07)


def test_csv_round_trip(table):
    parsed = CriticalValueTable.from_csv(table.to_csv())
    assert parsed.alphas == table.alphas
    assert parsed.sizes == table.sizes
    for n in table.sizes:
        assert parsed.rows[n].critical_values == table.rows[n].critical_values
        assert parsed.rows[n].a_n == table.rows[n].a_n
        assert parsed.rows[n].c_n == table.rows[n].c_n


def test_emit_is_byte_stable(table):
    assert table.to_csv() == embedded_table().to_csv()


def test_malformed_csv_rejected():
    with pytest.raises(ValueError):
        CriticalValueTable.from_csv("")
    with pytest.raises(ValueError):
        CriticalValueTable.from_csv("x,y\n1,2")
    with pytest.raises(ValueError):
        CriticalValueTable.from_csv("n,0.05,a_n,C_n\n10,1.0,1.28")


def test_row_monotonicity_enforced():
    with pytest.raises(ValueError, match="increase"):
        CriticalValueRow(
            n=10, critical_values={0.05: 1.0, 0.01: 0.9}, a_n=1.28, c_n=28.0
        )


@pytest.mark.parametrize("text", MEANINGLESS_TABLES.values(), ids=MEANINGLESS_TABLES.keys())
def test_meaningless_tables_refused(text):
    with pytest.raises(ValueError):
        CriticalValueTable.from_csv(text)


def _row(n, crits):
    return CriticalValueRow(n=n, critical_values=crits, a_n=1.28, c_n=28.0)


@pytest.mark.parametrize(
    "alphas",
    [(1.5,), (0.0,), (0.05, 0.05), (float("nan"),), ()],
    ids=["past_one", "zero", "repeated", "nan", "none"],
)
def test_direct_tables_check_their_levels(alphas):
    rows = {10: _row(10, {a: 1.0 for a in alphas})}
    with pytest.raises(ValueError, match="levels must be distinct and inside"):
        CriticalValueTable(rows=rows, alphas=alphas)


def test_direct_tables_need_every_level_in_every_row():
    rows = {10: _row(10, {0.1: 1.0, 0.05: 1.2}), 20: _row(20, {0.05: 1.3})}
    with pytest.raises(ValueError, match="n=20 lacks a level"):
        CriticalValueTable(rows=rows, alphas=(0.1, 0.05))
    # a row may hold more levels than the table
    table = CriticalValueTable(rows=rows, alphas=(0.05,))
    assert table.critical_value(15, 0.05)[1]


def _set_critical_value(table):
    table.rows[50].critical_values[0.05] = -1.0


def _delete_row(table):
    del table.rows[10]


def _pop_row(table):
    table.rows.pop(10)


@pytest.mark.parametrize(
    "attempt, error",
    [(_set_critical_value, TypeError), (_delete_row, TypeError), (_pop_row, AttributeError)],
    ids=["set_critical_value", "delete_row", "pop_row"],
)
def test_cached_table_cannot_be_changed_in_place(attempt, error):
    # embedded_table() is cached, so one caller's change would reach every
    # later tcvm_test in the process
    x = np.linspace(-2.0, 2.5, 50) ** 3
    samples = [x, x[:10]]
    before = [tcvm_test(s) for s in samples]
    with pytest.raises(error):
        attempt(embedded_table())
    assert [tcvm_test(s) for s in samples] == before


def test_tables_copy_what_they_are_built_from():
    crits = {0.1: 1.0, 0.05: 1.2}
    rows = {10: _row(10, crits), 20: _row(20, {0.1: 1.1, 0.05: 1.3})}
    table = CriticalValueTable(rows=rows, alphas=(0.1, 0.05))
    crits[0.05] = 9.0
    del rows[20]
    assert table.rows[10].critical_values[0.05] == 1.2
    assert table.sizes == (10, 20) and 20 in table.rows
