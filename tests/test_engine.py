import gc
import importlib.util
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tcvm import engine
from tcvm import normal as nk
from tcvm.alternatives import _FAMILIES as alt_families
from tcvm.alternatives import TABLE1_ALTERNATIVES, draw, parse_spec
from tcvm.baselines import BaselineKind, batch_statistics
from tcvm.engine import (
    NULL_SPEC,
    _draw_block,
    _Workspace,
    _upper_index,
    estimate_constant_c,
    estimate_critical_values,
    estimate_null_critical_values,
    estimate_power,
    replication_rng,
    simulate_table,
    verify_fourth_moments,
)
from tcvm.process import MomentPoint, b_n, fourth_moment_exact
from tcvm.table import ALPHA_LEVELS


class TestStreams:
    def test_replication_streams_reproduce(self):
        a = replication_rng(123, 7).standard_normal(10)
        b = replication_rng(123, 7).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_replication_streams_independent(self):
        a = replication_rng(123, 7).standard_normal(10)
        b = replication_rng(123, 8).standard_normal(10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("text", sorted({t for _, _, t in TABLE1_ALTERNATIVES}))
    def test_block_rows_equal_per_replication_draws(self, text):
        # the block reuses one bit generator; each row must still be the
        # draw of a freshly built (seed, rep) stream
        spec = parse_spec(text)
        seed, start = 2**64 - 3, 4093
        block = _draw_block(_Workspace(spec, 13, seed, 6), start, 6)
        for i, row in enumerate(block):
            ref = draw(spec, 13, replication_rng(seed, start + i))
            np.testing.assert_array_equal(row, ref)

    @pytest.mark.parametrize("text", sorted({t for _, _, t in TABLE1_ALTERNATIVES}))
    def test_block_spanning_transform_chunks(self, text):
        # n = _CHUNK_ELEMS/4 + 1 gives chunks of 3 rows: 7 rows run as 3, 3
        # and 1, reusing the raw buffers across chunks
        spec = parse_spec(text)
        n, seed, start = engine._CHUNK_ELEMS // 4 + 1, 2**64 - 3, 4093
        assert engine._CHUNK_ELEMS // n == 3
        block = _draw_block(_Workspace(spec, n, seed, 7), start, 7)
        for i, row in enumerate(block):
            ref = draw(spec, n, replication_rng(seed, start + i))
            np.testing.assert_array_equal(row, ref)


# one spec per family, each family's raw calls as the engine fills them
FAMILY_SPECS = (
    "LoConN(0.3,2.5)", "ScConN(0.3,4)", "TruncN(-1.5,0.5)", "SB(0.5,0.707)",
    "SU(0.5,2)", "TriangleI(1.5)", "TriangleII(2)", "Unif(-1,3)", "Beta(2,3)",
    "t(4)", "Logistic(1,2)", "Laplace(1,2)", "Weibull(1.5)", "HalfN(1,2)",
    "ChiSq(3)", "Lognormal(0.5,1)", "Tukey(0.14)", "Normal(1,2)",
)


def _per_row(spec, n, seed, start, count):
    return np.vstack(
        [draw(spec, n, replication_rng(seed, start + i)) for i in range(count)]
    )


def _mixed_draws(gen):
    return [
        gen.integers(0, 2**32, 3, dtype=np.uint32),
        gen.random(3),
        gen.integers(0, 2**32, 7, dtype=np.uint32),
        gen.standard_normal(5),
    ]


def _refuse_check(monkeypatch):
    # no two results of the self-check compare equal, so the setter serves;
    # an empty cache makes the check run, however earlier tests left it
    monkeypatch.setattr(engine, "_after_reset", lambda *args: object())
    monkeypatch.setattr(engine, "_CHECKED_LAYOUTS", set())


def _count_checks(monkeypatch):
    """Empties the layout cache and counts the self-check's calls."""
    calls = []
    check = engine._after_reset

    def counted(*args):
        calls.append(args[2])
        return check(*args)

    monkeypatch.setattr(engine, "_after_reset", counted)
    monkeypatch.setattr(engine, "_CHECKED_LAYOUTS", set())
    return calls


def _path(reset):
    # the copy is a partial of the image stream's readinto; the setter a closure
    return "copy" if isinstance(reset, partial) else reset.__qualname__.rpartition(".")[2]


class TestInPlaceReset:
    """``_draw_block`` resets one Philox per row by copying a fresh state image."""

    def test_family_specs_cover_every_family(self):
        assert {parse_spec(t).family for t in FAMILY_SPECS} == {
            fam.name for fam in alt_families.values()
        }

    @pytest.mark.parametrize("n", [1, 3, 20, 50, 3000])
    @pytest.mark.parametrize("text", FAMILY_SPECS)
    def test_block_equals_per_row_draws(self, text, n):
        spec = parse_spec(text)
        for seed, start in ((11, 0), (2**63 + 5, 2**63 - 2), (2**64 - 1, 2**64 - 2)):
            block = _draw_block(_Workspace(spec, n, seed, 4), start, 4)
            np.testing.assert_array_equal(block, _per_row(spec, n, seed, start, 4))

    @pytest.mark.parametrize("text", ["Normal(1,2)", "LoConN(0.3,2.5)", "Beta(2,3)"])
    def test_setter_fallback_gives_the_same_bits(self, monkeypatch, text):
        spec, n = parse_spec(text), engine._CHUNK_ELEMS // 4 + 1  # chunks of 3 rows
        seed, start = 2**63 + 9, 2**64 - 3
        expected = _draw_block(_Workspace(spec, n, seed, 7), start, 7)
        _refuse_check(monkeypatch)
        block = _draw_block(_Workspace(spec, n, seed, 7), start, 7)  # built after the refusal
        np.testing.assert_array_equal(block, expected)
        np.testing.assert_array_equal(expected, _per_row(spec, n, seed, start, 7))

    def test_check_picks_the_writer(self):
        rng = replication_rng(3, 0)
        reset = engine._stream_resets(rng, 16)(9, 16)
        assert _path(reset) == "copy"
        bit_gen = rng.bit_generator
        del rng
        gc.collect()
        # the copy's view holds the bit generator, so it outlives the Generator
        assert sys.getrefcount(bit_gen) > 2
        reset()
        assert bit_gen.state["state"]["key"].tolist() == [3, 9]

    def test_failed_check_picks_the_setter(self, monkeypatch):
        _refuse_check(monkeypatch)
        reset = engine._stream_resets(replication_rng(3, 0), 4)(0, 4)
        assert _path(reset) == "set_next"

    def test_check_catches_a_writer_that_misses_the_32_bit_half(self, monkeypatch):
        # the writer copies buffer_pos, the buffer, the key and the counter but
        # leaves word 5 (has_uint32 and uinteger) as the used state had it
        class Keeps32BitHalf(np.ndarray):
            def __setitem__(self, index, value):
                half = self[..., 5].copy()
                super().__setitem__(index, value)
                super().__setitem__((..., 5), half)

        calls = _count_checks(monkeypatch)
        view = engine._uint64_view

        def image_view(owner, address, words):
            got = view(owner, address, words)
            return got.view(Keeps32BitHalf) if words == engine._IMAGE_BYTES // 8 else got

        monkeypatch.setattr(engine, "_uint64_view", image_view)
        reset = engine._stream_resets(replication_rng(3, 0), 4)(0, 4)
        assert _path(reset) == "set_next"
        assert calls and not engine._CHECKED_LAYOUTS

    def test_unreadable_layout_picks_the_setter(self, monkeypatch):
        # an image larger than the object fails the address check: no write
        calls = _count_checks(monkeypatch)
        monkeypatch.setattr(engine, "_IMAGE_BYTES", 1 << 20)
        reset = engine._stream_resets(replication_rng(3, 0), 4)(0, 4)
        assert _path(reset) == "set_next"
        assert not calls

    def test_non_contiguous_layout_picks_the_setter(self, monkeypatch):
        # a checked layout is used only while the key and counter follow the
        # struct: a 72-byte struct would leave a gap before the key
        spec, seed, start = parse_spec("Normal(1,2)"), 2**63 + 9, 2**64 - 3
        assert _path(engine._stream_resets(replication_rng(seed, start), 7)(start, 7)) == "copy"
        monkeypatch.setattr(engine, "_STATE_BYTES", 72)
        assert _path(engine._stream_resets(replication_rng(seed, start), 7)(start, 7)) == "set_next"
        np.testing.assert_array_equal(
            _draw_block(_Workspace(spec, 20, seed, 7), start, 7), _per_row(spec, 20, seed, start, 7)
        )

    def test_check_runs_once_per_layout(self, monkeypatch):
        calls = _count_checks(monkeypatch)
        first = engine._stream_resets(replication_rng(3, 0), 4)(0, 4)
        # per key, the image copy and then the setter
        assert calls == [k for k in engine._CHECK_KEYS for _ in range(2)]
        # a second generator of the same type has the same offsets from its address
        second = engine._stream_resets(replication_rng(5, 2**63), 4)(2**63, 4)
        assert _path(first) == _path(second) == "copy"
        assert len(calls) == 2 * len(engine._CHECK_KEYS)
        assert len(engine._CHECKED_LAYOUTS) == 1

    def test_refused_check_is_not_cached(self, monkeypatch):
        _refuse_check(monkeypatch)
        calls = _count_checks(monkeypatch)  # counts the refusing check
        for _ in range(2):
            assert _path(engine._stream_resets(replication_rng(3, 0), 4)(0, 4)) == "set_next"
            assert not engine._CHECKED_LAYOUTS
        assert len(calls) == 4  # both ways at the first key, both times

    @pytest.mark.parametrize("refused", [False, True])
    def test_reset_streams_match_fresh_ones_on_every_path(self, monkeypatch, refused):
        if refused:
            _refuse_check(monkeypatch)
        seed, start = 2**63 + 1, 2**63 - 2
        rng = replication_rng(seed, 0)
        reset = engine._stream_resets(rng, 4)(start, 4)
        for i in range(4):
            # odd counts of 32-bit draws leave has_uint32 and uinteger set
            rng.random(3)
            rng.integers(0, 2**32, 5, dtype=np.uint32)
            reset()
            fresh = replication_rng(seed, start + i)
            assert rng.bit_generator.state["has_uint32"] == 0
            assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
            for a, b in zip(_mixed_draws(rng), _mixed_draws(fresh)):
                np.testing.assert_array_equal(a, b)

    def test_image_keys_wrap_past_2_64(self):
        seed, start = 2**64 - 1, 2**64 - 2
        rng = replication_rng(seed, 0)
        reset = engine._stream_resets(rng, 5)(start, 5)
        assert _path(reset) == "copy"
        for key in [2**64 - 2, 2**64 - 1, 0, 1, 2]:
            reset()
            assert rng.bit_generator.state["state"]["key"].tolist() == [seed, key]
            np.testing.assert_array_equal(
                rng.standard_normal(7), replication_rng(seed, key).standard_normal(7)
            )


class TestWorkspace:
    """``_map_blocks`` draws every block of a worker into one reused workspace."""

    @staticmethod
    def _rows(spec, n, reps, seed, workers=1):
        def keep(block):
            time.sleep(0.002)  # lets another thread draw before this block is read
            return {"rows": block.copy()}

        return engine._map_blocks(spec, n, reps, seed, workers, keep)["rows"]

    @pytest.mark.parametrize(
        "text", ["Normal(1,2)", "LoConN(0.3,2.5)", "Beta(2,3)", "t(4)", "ChiSq(3)"]
    )
    def test_blocks_equal_per_row_draws(self, monkeypatch, text):
        # 2345 reps run as blocks of 1000, 1000 and 345 rows, and a block of
        # 1000 as transform chunks of 655 and 345 rows at n = 50
        monkeypatch.setattr(engine, "_BLOCK", 1000)
        spec, n, seed = parse_spec(text), 50, 2**64 - 5
        assert engine._CHUNK_ELEMS // n == 655
        rows = self._rows(spec, n, 2345, seed)
        np.testing.assert_array_equal(rows, _per_row(spec, n, seed, 0, 2345))

    def test_two_workers_equal_one_on_a_mixture(self, monkeypatch):
        # each thread must draw into its own workspace: a shared one would be
        # overwritten by the other thread while a block is still being read
        monkeypatch.setattr(engine, "_BLOCK", 300)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        spec, n, seed = parse_spec("LoConN(0.3,2.5)"), 50, 31
        one = self._rows(spec, n, 4321, seed)
        np.testing.assert_array_equal(self._rows(spec, n, 4321, seed, workers=2), one)
        np.testing.assert_array_equal(one[-21:], _per_row(spec, n, seed, 4300, 21))

    def test_one_worker_reuses_one_output_buffer(self, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK", 700)
        addresses = []

        def record(block):
            addresses.append(block.__array_interface__["data"][0])
            return {"first": block[:, 0].copy()}

        engine._map_blocks(NULL_SPEC, 20, 2500, 3, 1, record)
        assert len(addresses) == 4 and len(set(addresses)) == 1

    def test_block_rows_cap_values(self, monkeypatch):
        assert engine._BLOCK_VALUES == 2**22
        assert engine._block_rows(20) == engine._block_rows(1024) == 4096
        assert engine._block_rows(1025) == 4092
        assert engine._block_rows(10_000) == 419
        assert engine._block_rows(nk.MAX_ENDPOINT_N) == 1
        counts = []
        draw_block = engine._draw_block

        def recording(*args):
            counts.append(args[2])
            return draw_block(*args)

        monkeypatch.setattr(engine, "_draw_block", recording)
        monkeypatch.setattr(engine, "_BLOCK_VALUES", 1000)
        estimate_critical_values(50, (0.05,), reps=130, seed=0)
        assert counts == [20] * 6 + [10]


def test_fourth_products_evaluate_each_value_once(monkeypatch):
    # (0, 0) and (0.3, 1.1) share nothing but 0: three b_n passes, not four
    block = _per_row(NULL_SPEC, 20, 9, 0, 64)
    points = [(0.0, 0.0), (0.3, 1.1)]
    expected = {j: b_n(block, x) ** 2 * b_n(block, y) ** 2 for j, (x, y) in enumerate(points)}
    calls = []

    def counted(values, x):
        calls.append(x)
        return b_n(values, x)

    monkeypatch.setattr(engine, "b_n", counted)
    got = engine._fourth_products(points, block)
    assert calls == [0.0, 0.3, 1.1]
    assert got.keys() == expected.keys()
    for j in expected:
        np.testing.assert_array_equal(got[j], expected[j])


class TestQuantileIndex:
    def test_exact_indices(self):
        # floating-point products like 0.95 * 50000 must not leak into ceil
        assert _upper_index(0.05, 50_000) == 47_500
        assert _upper_index(0.15, 50_000) == 42_500
        assert _upper_index(0.075, 40_000) == 37_000
        assert _upper_index(0.5, 1001) == 501
        assert _upper_index(0.001, 1000) == 999

    def test_median_convention(self):
        row = estimate_critical_values(10, alphas=(0.5,), reps=501, seed=3)
        block = np.vstack([replication_rng(3, r).standard_normal(10) for r in range(501)])
        stats = np.sort(batch_statistics(block, [BaselineKind.TCVM])[BaselineKind.TCVM])
        assert row.critical_values[0.5] == stats[_upper_index(0.5, 501) - 1]


def test_constant_and_moments_do_not_depend_on_the_worker_count(monkeypatch):
    # 700 rows per block: 2500 reps run as four blocks, 10,001 as fifteen
    monkeypatch.setattr(engine, "_BLOCK", 700)
    points = [(0.0, 0.0), (0.3, 1.1), (-1.2, 0.4)]

    def run(workers):
        return (
            estimate_constant_c(100, reps=2500, seed=21, workers=workers),
            verify_fourth_moments(points, 20, reps=10_001, seed=22, workers=workers),
        )

    assert run(3) == run(1)


@pytest.mark.parametrize(
    "workers,cores,reps,pool",
    [(64, 4, 1000, 4), (3, 8, 1000, 3), (64, 8, 200, 2), (64, 1, 1000, None), (64, None, 1000, None)],
)
def test_worker_pool_is_capped_by_blocks_and_cores(monkeypatch, workers, cores, reps, pool):
    # each thread holds a block in memory: no more threads than blocks or cores
    sizes = []

    class RecordingPool:
        """Stand-in for the thread pool: records its size, maps in this thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    kinds = [BaselineKind.AD]
    serial = estimate_null_critical_values(kinds, 10, 0.05, reps=reps, seed=4)
    monkeypatch.setattr(engine, "_BLOCK", 100)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", RecordingPool)
    capped = estimate_null_critical_values(kinds, 10, 0.05, reps=reps, seed=4, workers=workers)
    assert sizes == ([] if pool is None else [pool])
    assert capped == serial


@pytest.mark.parametrize(
    "cap, block", [("_BLOCK", 1000), ("_BLOCK", 1001), ("_BLOCK_VALUES", 1000)],
    ids=["1000", "1001", "values1000"],
)
def test_results_do_not_depend_on_the_block_size(cap, block, monkeypatch):
    # 2500 reps run as one block of 4096 or as three; each block's rows are
    # sliced differently inside batch_statistics.  The moment check's 12,288
    # reps run as three blocks of 4096 or as thirteen.  A cap of 1,000
    # values makes blocks of 20 rows at n = 50, 50 at n = 20 and 10 at n = 100
    kinds = list(BaselineKind)

    def run():
        row = estimate_critical_values(50, reps=2500, seed=12)
        crits = estimate_null_critical_values(kinds, 50, 0.05, reps=2500, seed=13)
        power = estimate_power(
            kinds, parse_spec("t(5)"), 50, 0.05, reps=2500, seed=14, critical_values=crits
        )
        constant = estimate_constant_c(100, reps=2500, seed=15)
        moments = verify_fourth_moments([(0.0, 0.0), (0.3, 1.1)], 20, reps=12_288, seed=22)
        return row, crits, power, constant, moments

    monkeypatch.setattr(engine, "_BLOCK", 4096)
    whole = run()
    monkeypatch.setattr(engine, cap, block)
    assert run() == whole


class TestCriticalValues:
    def test_row_determinism_and_workers(self):
        r1 = estimate_critical_values(20, reps=2000, seed=9)
        r2 = estimate_critical_values(20, reps=2000, seed=9, workers=4)
        assert r1.critical_values == r2.critical_values

    def test_row_monotone_and_metadata(self):
        row = estimate_critical_values(20, reps=4000, seed=1)
        vals = [row.critical_values[a] for a in (0.15, 0.1, 0.075, 0.05, 0.025, 0.01, 0.001)]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))
        assert row.a_n == pytest.approx(nk.endpoint(20).a_n, rel=1e-12)
        assert row.c_n == pytest.approx(nk.c_n(20), rel=1e-12)

    def test_reasonable_n50_value(self):
        row = estimate_critical_values(50, reps=8000, seed=5)
        assert row.critical_values[0.05] == pytest.approx(1.6897, abs=0.05)

    def test_simulate_table_provenance(self):
        table = simulate_table([10, 11], reps=1000, seed=2)
        assert "simulated" in table.provenance
        assert table.sizes == (10, 11)

    def test_min_reps(self):
        with pytest.raises(ValueError):
            estimate_critical_values(10, reps=50, seed=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            estimate_critical_values(10, alphas=(0.05, alpha), reps=200, seed=0)

    def test_null_critical_values_min_reps(self):
        with pytest.raises(ValueError, match="reps >= 100"):
            estimate_null_critical_values([BaselineKind.TCVM], 10, 0.05, reps=10)

    def test_n3_atom_rejected_before_drawing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a block for n = 3")

        monkeypatch.setattr(engine, "_draw_block", refuse)
        with pytest.raises(ValueError, match="atom"):
            estimate_critical_values(3, reps=200, seed=0)
        with pytest.raises(ValueError, match="atom"):
            simulate_table([3, 4], reps=200, seed=0)
        kinds = [BaselineKind.AD, BaselineKind.TCVM]
        with pytest.raises(ValueError, match="atom"):
            estimate_null_critical_values(kinds, 3, 0.05, reps=200)
        with pytest.raises(ValueError, match="atom"):
            estimate_power(kinds, NULL_SPEC, 3, 0.05, 200, 0, {k: 1.0 for k in kinds})

    @pytest.mark.parametrize(
        "alphas, reps, index", [((0.05, 0.051), 100, 95), ((0.05, 0.05), 200, 190)]
    )
    def test_levels_sharing_an_order_statistic_rejected_before_drawing(
        self, monkeypatch, alphas, reps, index
    ):
        # both levels picked one order statistic, so a table row failed its
        # monotonicity check after every replication was drawn, or printed a
        # repeated column
        def refuse(*args):
            raise AssertionError("drew a block")

        monkeypatch.setattr(engine, "_draw_block", refuse)
        match = f"order statistic {index} of reps = {reps}"
        with pytest.raises(ValueError, match=match):
            estimate_critical_values(20, alphas, reps=reps, seed=0)
        with pytest.raises(ValueError, match=match):
            simulate_table([20], alphas, reps=reps, seed=0)

    @pytest.mark.parametrize(
        "alpha, reps, need", [(0.001, 999, "1,000"), (1e-9, 50_000, "1,000,000,000")]
    )
    def test_levels_finer_than_the_reps_rejected_before_drawing(
        self, monkeypatch, alpha, reps, need
    ):
        # alpha * reps < 1 picks order statistic reps, the sample maximum,
        # whatever alpha is
        def refuse(*args):
            raise AssertionError("drew a block")

        monkeypatch.setattr(engine, "_draw_block", refuse)
        match = f"alpha = {alpha} needs reps >= {need} to resolve, got {reps:,}"
        with pytest.raises(ValueError, match=match):
            estimate_critical_values(20, (0.05, alpha), reps=reps, seed=0)
        with pytest.raises(ValueError, match=match):
            estimate_null_critical_values([BaselineKind.AD], 20, alpha, reps=reps)

    def test_default_levels_pick_distinct_order_statistics(self):
        # past reps = 112 the levels' smallest gap, 0.009, exceeds one index
        for reps in range(100, 1000):
            assert len({_upper_index(a, reps) for a in ALPHA_LEVELS}) == len(ALPHA_LEVELS)

    def test_n4_levels_separate(self):
        row = estimate_critical_values(4, reps=4000, seed=1)
        vals = [row.critical_values[a] for a in (0.15, 0.1, 0.075, 0.05, 0.025, 0.01, 0.001)]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers >= 1"):
            estimate_critical_values(10, reps=200, seed=0, workers=workers)
        with pytest.raises(ValueError, match="workers >= 1"):
            estimate_null_critical_values(
                [BaselineKind.TCVM], 10, 0.05, reps=200, workers=workers
            )


class TestSampleSizeBound:
    """Entry points reject n outside 1..MAX_ENDPOINT_N before drawing."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a block for an invalid n")

        monkeypatch.setattr(engine, "_draw_block", refuse)

    @pytest.mark.parametrize("n", [0, nk.MAX_ENDPOINT_N + 1, 20_000_000])
    def test_every_entry_point(self, n):
        kinds = [BaselineKind.TCVM]
        calls = [
            lambda: estimate_critical_values(n, reps=100),
            lambda: simulate_table([n], reps=100),
            lambda: estimate_null_critical_values(kinds, n, 0.05, reps=100),
            lambda: estimate_power(
                kinds, NULL_SPEC, n, 0.05, 1, 0, {BaselineKind.TCVM: 1.0}
            ),
            lambda: estimate_constant_c(n, reps=100),
            lambda: verify_fourth_moments([(0.0, 0.0)], n, reps=10_000),
            lambda: verify_fourth_moments([(0.3, 1.1)], n, reps=10_000)[0],
        ]
        for call in calls:
            with pytest.raises(ValueError, match="n <= 10,000,000"):
                call()


@pytest.fixture(scope="module")
def crits():
    return estimate_null_critical_values(
        list(BaselineKind), 20, 0.05, reps=20_000, seed=100
    )


class TestPower:
    def test_size_close_to_alpha(self, crits):
        report = estimate_power(
            list(BaselineKind), NULL_SPEC, 20, 0.05, reps=4000, seed=55,
            critical_values=crits,
        )
        for kind, rate in report.rates.items():
            se = math.sqrt(0.05 * 0.95 / 4000)
            assert rate == pytest.approx(0.05, abs=3.5 * se), kind

    def test_power_detects_lognormal(self, crits):
        report = estimate_power(
            list(BaselineKind),
            parse_spec("Lognormal(0,1)"),
            20,
            0.05,
            reps=1500,
            seed=8,
            critical_values=crits,
        )
        assert all(rate > 0.5 for rate in report.rates.values())

    def test_worker_determinism(self, crits):
        kw = dict(reps=3000, seed=4, critical_values=crits)
        r1 = estimate_power([BaselineKind.TCVM], parse_spec("t(5)"), 20, 0.05, **kw)
        r2 = estimate_power(
            [BaselineKind.TCVM], parse_spec("t(5)"), 20, 0.05, workers=3, **kw
        )
        assert r1.rates == r2.rates

    def test_stderr_formula(self, crits):
        report = estimate_power(
            [BaselineKind.AD], parse_spec("Unif(0,1)"), 20, 0.05, reps=1000,
            seed=6, critical_values=crits,
        )
        r = report.rates[BaselineKind.AD]
        assert report.stderr[BaselineKind.AD] == pytest.approx(
            math.sqrt(r * (1 - r) / 1000), rel=1e-12
        )

    @pytest.mark.parametrize(
        "kw",
        [{"reps": 0}, {"reps": -5}, {"alpha": 0.0}, {"alpha": 1.0}, {"workers": -3}],
    )
    def test_rejects_invalid_run(self, crits, kw):
        args = dict(alpha=0.05, reps=100, seed=0, critical_values=crits, workers=1)
        args.update(kw)
        with pytest.raises(ValueError):
            estimate_power([BaselineKind.TCVM], NULL_SPEC, 20, **args)

    def test_missing_critical_values(self):
        with pytest.raises(ValueError, match="missing critical values"):
            estimate_power(
                [BaselineKind.TCVM], NULL_SPEC, 20, 0.05, reps=100, seed=0,
                critical_values={},
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_critical_value_refused_before_drawing(self, crits, value, monkeypatch):
        # nan read power 0.0 and -inf read 1.0, each with stderr 0.0
        def refuse(*args):
            raise AssertionError("drew a block for a non-finite critical value")

        monkeypatch.setattr(engine, "_draw_block", refuse)
        with pytest.raises(ValueError, match="'cvm': " + str(value)):
            estimate_power(
                list(BaselineKind), NULL_SPEC, 20, 0.05, reps=100, seed=0,
                critical_values={**crits, BaselineKind.CVM: value},
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda: estimate_power([], NULL_SPEC, 20, 0.05, reps=100, seed=0, critical_values={}),
        lambda: estimate_null_critical_values([], 20, 0.05, reps=1000),
        lambda: verify_fourth_moments([], 20, reps=200_000),
        lambda: estimate_critical_values(20, alphas=[], reps=50_000),
    ],
    ids=[
        "estimate_power", "estimate_null_critical_values", "verify_fourth_moments",
        "estimate_critical_values",
    ],
)
def test_empty_input_refused_before_drawing(call, monkeypatch):
    # verify_fourth_moments([], 20, reps=200_000) drew every replication, then
    # returned []; estimate_critical_values with no level returned a row of none
    def refuse(*args):
        raise AssertionError("drew a block for an empty input")

    monkeypatch.setattr(engine, "_draw_block", refuse)
    with pytest.raises(ValueError, match="at least one"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda n: estimate_power(
            [BaselineKind.AD], NULL_SPEC, n, 0.05, reps=100, seed=0,
            critical_values={BaselineKind.AD: 1.0},
        ),
        lambda n: estimate_null_critical_values([BaselineKind.AD], n, 0.05, reps=1000),
        lambda n: estimate_null_critical_values([BaselineKind.TCVM], n, 0.05, reps=1000),
    ],
    ids=["estimate_power", "estimate_null_critical_values", "tcvm"],
)
@pytest.mark.parametrize("n", [1, 2])
def test_too_short_samples_refused_before_drawing(call, n, monkeypatch):
    # estimate_null_critical_values([AD], 2, 0.05) drew a 4096-row block first
    def refuse(*args):
        raise AssertionError("drew a block for samples of fewer than 3 values")

    monkeypatch.setattr(engine, "_draw_block", refuse)
    with pytest.raises(ValueError, match=f"a sample needs at least 3 observations, got {n}"):
        call(n)


def test_size_calibration_n20_full_budget():
    """Every kind holds its level at n = 20 with a full 50k calibration."""
    crits = estimate_null_critical_values(
        list(BaselineKind), 20, 0.05, reps=50_000, seed=77
    )
    report = estimate_power(
        list(BaselineKind), NULL_SPEC, 20, 0.05, reps=10_000, seed=301,
        critical_values=crits,
    )
    for kind, rate in report.rates.items():
        assert abs(rate - 0.05) <= 0.007, f"{kind.value}: {rate}"


class TestConstantC:
    def test_two_seeds_agree_within_error(self):
        a = estimate_constant_c(150, reps=400, seed=1)
        b = estimate_constant_c(150, reps=400, seed=2)
        assert abs(a.value - b.value) <= 4.0 * math.hypot(a.stderr, b.stderr)

    def test_domain(self):
        with pytest.raises(ValueError):
            estimate_constant_c(50, reps=400, seed=1)
        with pytest.raises(ValueError):
            estimate_constant_c(500, reps=10, seed=1)


class TestMoments:
    def test_binomial_point(self):
        check = verify_fourth_moments([(0.0, 0.0)], n=20, reps=50_000, seed=42)[0]
        assert check.exact == pytest.approx(3.0 / 16.0 - 1.0 / 160.0, abs=1e-15)
        assert abs(check.z_score) <= 5.0

    def test_multi_point_shares_draws(self):
        checks = verify_fourth_moments([(0.0, 0.0), (0.3, 1.1)], 20, reps=20_000, seed=1)
        single = verify_fourth_moments([(0.3, 1.1)], 20, reps=20_000, seed=1)[0]
        assert checks[1].empirical == single.empirical
        for ch in checks:
            exact = fourth_moment_exact(MomentPoint.of(ch.x, ch.y), 20)
            assert ch.exact == exact
            assert abs(ch.z_score) <= 5.0

    def test_min_reps(self):
        with pytest.raises(ValueError):
            verify_fourth_moments([(0.0, 0.0)], 20, reps=100, seed=0)[0]

    @pytest.mark.parametrize("x, z", [(10.0, 0.0), (-37.0, -math.inf)])
    def test_z_score_without_spread(self, x, z):
        # cdf(10) rounds to 1, so every product and the exact moment are 0.
        # At -37 every product underflows to 0, but the exact moment does not
        check = verify_fourth_moments([(x, x)], 20, reps=10_000)[0]
        assert (check.empirical, check.stderr) == (0.0, 0.0)
        assert (check.exact > 0.0) == (z == -math.inf)
        assert check.z_score == z

    @pytest.mark.parametrize(
        "point", [(math.nan, 0.0), (0.3, math.inf), (-math.inf, 1.1)]
    )
    def test_non_finite_point_rejected_before_drawing(self, point, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a block for a non-finite point")

        monkeypatch.setattr(engine, "_draw_block", refuse)
        with pytest.raises(ValueError, match="finite"):
            verify_fourth_moments([(0.0, 0.0), point], 20, reps=10_000)
        with pytest.raises(ValueError, match="finite"):
            verify_fourth_moments([point], 20, reps=10_000)[0]


# sha256 of the engine's outputs on the small seeded runs of scripts/parity.py,
# digested the same way (the float.hex of each value, comma-joined); any
# change to the bits of drawing, the kernels or the reductions shows here
PINNED_OUTPUTS = {
    "critvals_n5": "d6aaa69d6ccb9d215c4ae83b01e71bb40f14abe13fb277072437b706b0b524e7",
    "critvals_n50": "3a6dca6f8f86048af907ad0f06486727b66934a335b01a88106664e6521e4d7b",
    "critvals_table": "3f0c8571a8b5c5da5cbaf4535ec7acb30ebf9861b76a6b7ab84f275d310d512d",
    "null_crits": "9516f46ca01d289448837d09e9913b2a0514c9c86d59c61d4fad38364acf4a54",
    "power_LoConN(0.5,4)": "3d3836adfd86219e30bf4b47851a8dc998ef2bc81812a3f9b02bd08d1dfbaf12",
    "power_Lognormal(0,3)": "14ff6a211a3fe8417472b23db83628deedaf9f6d16eaa189f25ad74845fbf831",
    "moments": "c5b43fa5687e7a5644956aab32478869224525b9f331677302b06600213ba085",
    "constant_c": "5569e86c50368a93953a931ea1f5391f0b899a6d60d97cb5473a2b5616c8a979",
}
# the rest of scripts/parity.py's digests: batch kernels, scalar statistics,
# the CLI's test command, the normal primitives and the seeded draws
PINNED_PARITY = {
    "H": "a96b71823040a563e2d34cec0b5aa4d72a3ed7816ddc2655c277949db9372479",
    "a_n": "2db9b865737b0d256147514fe54d9b242ed2e8d6b532f60f1478f0b577e97fcf",
    "batch_ad_n1000": "8ad8860dcb2bad416fc53a7b6574d9cd0036ea1a3dc3d03a219e8cbda0f948d2",
    "batch_ad_n3000": "7c3b69780961b31d64336f93f4ca412f1f9f4ae715109da8c3f0f0222e44b8c1",
    "batch_ad_n5": "88953f8b6ea9d3921b2099847ce82b03997fe55fa36b143bc9b7508db1d048c9",
    "batch_ad_n50": "16ceab358c120949cad36d17cc07eb3659a1fa98ef95f0faa57942f8f3930a07",
    "batch_all_n1000": "b45cc21836dc1f354b845d2154612b6c8b78da915bab9e6664e777783927230b",
    "batch_all_n3000": "b971e6ac4212bc73b2d5c8f4762d509beebb42b5162f9471a2bac7ee6933136b",
    "batch_all_n5": "25c7f95722ee2014654e155aaaf6804ef531fe1f8ae7c4b758fe828cbf7f7563",
    "batch_all_n50": "7e9337f307fa80f70f5e8dc238231078510a88e6e2977c80b78b77d55c229bb6",
    "batch_bcmr_n1000": "88cfcbba61254dd5551c1e1ffc54702bc8149377b585fa4b1ffc0b736304a843",
    "batch_bcmr_n3000": "0fa59658e224fe9fe3b435bd2a0e88042d161821ddd8e6fe779c746dd2cf8565",
    "batch_bcmr_n5": "2d26bdf9b672af3602432ea8dd26b832d454ce30de8066c73ef47338f02ce48e",
    "batch_bcmr_n50": "378e96f58ed16ac4f3c822acfd5145a44ac98fdede33bc87d6cc489f77f5adc9",
    "batch_cvm_inf_rows_n1000": "9143cf77faae5a703c2ba5395be1f34638bb8699186ede40c303111879b20358",
    "batch_cvm_inf_rows_n3000": "3097bf9fdf86e99180c1210a3759e14555d54e24897f38a2a5f3f12217d3d322",
    "batch_cvm_inf_rows_n5": "4af9ba4262a011748a0ea9a09e9b9a97c63bd0894db76c7924de1ed208f7b1df",
    "batch_cvm_inf_rows_n50": "8c6731969868914f200ed6fa3dd9de739b08cff7e698718124b768cc2442edb9",
    "batch_cvm_n1000": "fa0cfbd3921050dab2e66e81f8358a43e02e9bf0b7a2d9474b84bf9ac860ae50",
    "batch_cvm_n3000": "cbd3bce17287c013bc749f895eb8b0a32ae799ba420b4e4a81df8c86b42fdcab",
    "batch_cvm_n5": "bb513b0d5c5104346787aaee6db79e239a320fa7c0f3fdd4fa4677d6d41aaf8e",
    "batch_cvm_n50": "dbd82855dd17f8a7ca00e59d3531876bbb4f0519e44ee72c9d3bc662ce05e9e6",
    "batch_sw_n1000": "8737367eefa7885273662cf7f35fffa0e871a84edc0dc6f4cfee4ee706c749ff",
    "batch_sw_n3000": "719202755bb0d7fd0b4f7022f4fcfc2affeea9ef0ea663f9bd5b272ec6bac5a9",
    "batch_sw_n5": "d0ea37c70ffb23c2009398095fbd4b24f550ae657f4031dbf799f02c3589619d",
    "batch_sw_n50": "67b45d256bd5c3b72effafaf4b8bb4a4e17a1ee5dea9110edee51f427fca0948",
    "batch_tcvm_n1000": "be055466e892d6b62de6ee20118860f40d7a8c95d303e4da2c34cfa6cd96de52",
    "batch_tcvm_n3000": "dcb69a7bd1d544d1d2a10e14efff925b1069ac021044e6f6bc56c5a0192fac99",
    "batch_tcvm_n5": "2f231a2ba3d8f56f03a0780fc06fc2f68e56e9b66b7ffac50b771b2f051d19af",
    "batch_tcvm_n50": "3960b74e273b446f43d4dd7ce266650cb185774350ae9629e3e950dd09fc8c66",
    "c_n": "d6ff002365362d54ad74d49b71aa68763aff42f8080a9d4d33369bc0fcc38824",
    "cli_test": "af594c1b0dff568f03c212cf54857920b82ad8ebd036caeb3e38da544f525e89",
    "cli_test_errors": "24e2b5e0511563303c173534845d050d2ef94ab42b2234805e040c94e8bd632c",
    "d_n": "813325275a9e85c29a7d699ce19e317ae8272275d96feba0f080e646e6365e14",
    "psi": "f73114af880b1e5164d5c6c0fe27bdd10777803c0bd8e0749655b964f19c2b44",
    "replication_rng": "db24d6926f90233086b82615562541f44b46ec982ec305cbcb659138d38ebe3b",
    "sample": "a88a0ed27ed5eb1354f7b82ce2797db6198c7fc269368751e552be7ab5f7731b",
    "scalar_ad": "8baf10da7c3008faf7c7dcb231615f6daa918c30a6632243707e6fdedc14fd89",
    "scalar_bcmr": "2eb48d78b503e349dd4c2ec4b253b3ec105d64c20fd8b0ec7f23ab6becb8d0bd",
    "scalar_sf": "dd714ed5fd4b38904a3f645034b3217cf56c9fbd7084cce1bd18cc484cf03e50",
    "scalar_sw": "b4c23a76c807ebf0d5857eec78ebec54e9cac41bf0e113462df944708b1bb904",
    "scalar_tcvm_test": "c31e415fcc04c15b9373fcaca078ee8de8e9b080dd43e82567288d0e6a325b69",
    "scalar_tstar": "c4c02ef4b2ed07eebdab159d2521bba9a9478ecf4f0bd45e50c69376ec735e7d",
    "scalar_tstar_direct": "fcecfe0c6bbdde5ecb18b3888d6050165bd0715c28c81ab7d043b00b10e92a9b",
    "scalar_untruncated": "bc9fc6b680dcf90dfcd3ae609aa4e41cab7cc7080274505661f473d4eea7773f",
}


def _parity():
    path = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workers", [1, 2])
def test_engine_outputs_match_pinned_digests(workers):
    # every digest of scripts/parity.py, its engine runs with 1 and 2 workers
    assert _parity().digests(workers) == {**PINNED_OUTPUTS, **PINNED_PARITY}
