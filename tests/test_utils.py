"""Tests of the utility helpers (parallel map, bounded pool, text rendering)."""

import math
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.telemetry import metrics, set_enabled
from repro.utils import ParallelTaskError, ascii_plot, format_table, parallel_map
from repro.utils.parallel import BoundedPool


def _square(x):
    return x * x


def _kill_own_worker():
    os.kill(os.getpid(), signal.SIGKILL)


def _square_or_boom(x):
    if x == 3:
        raise ValueError("boom at three")
    return x * x


class TestParallelMap:
    def test_serial(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_two_workers(self):
        assert parallel_map(_square, list(range(8)), workers=2) == [x * x for x in range(8)]

    def test_all_cpus(self):
        assert parallel_map(_square, [3, 4], workers=0) == [9, 16]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_item_runs_serially(self):
        assert parallel_map(_square, [5], workers=8) == [25]


class TestBoundedPool:
    def test_broken_process_pool_respawns(self):
        """A SIGKILLed worker breaks the executor; the next submit replaces
        it, retries once and counts the restart."""
        previous = set_enabled(True)
        metrics.reset()
        pool = BoundedPool(workers=1, queue_limit=1, kind="process")
        try:
            with pytest.raises(BrokenProcessPool):
                pool.submit(_kill_own_worker).result(timeout=60)
            assert pool.submit(_square, 7).result(timeout=60) == 49
            assert pool.submit(_square, 8).result(timeout=60) == 64
            assert metrics.value("parallel.pool_restarts") == 1
            assert pool.depth == 0
        finally:
            pool.shutdown()
            metrics.reset()
            set_enabled(previous)


class TestParallelMapExceptionCapture:
    """Regression: a crashing task used to abort the whole pool and discard
    every completed result; now it is captured per task."""

    def test_pool_crash_does_not_discard_siblings(self):
        outcomes = parallel_map(_square_or_boom, list(range(8)), workers=2, capture=True)
        assert [o.index for o in outcomes] == list(range(8))  # input order restored
        failed = [o for o in outcomes if not o.ok]
        assert len(failed) == 1 and failed[0].index == 3
        assert "ValueError" in failed[0].error and "boom at three" in failed[0].error
        assert [o.value for o in outcomes if o.ok] == [x * x for x in range(8) if x != 3]

    def test_serial_capture(self):
        outcomes = parallel_map(_square_or_boom, list(range(5)), workers=1, capture=True)
        assert [o.ok for o in outcomes] == [True, True, True, False, True]

    def test_fail_fast_raises_with_traceback_pool(self):
        with pytest.raises(ParallelTaskError, match="boom at three"):
            parallel_map(_square_or_boom, list(range(8)), workers=2)

    def test_fail_fast_raises_with_traceback_serial(self):
        with pytest.raises(ParallelTaskError, match="boom at three"):
            parallel_map(_square_or_boom, list(range(8)), workers=1)

    def test_on_result_streams_every_outcome(self):
        seen = []
        parallel_map(
            _square_or_boom,
            list(range(6)),
            workers=2,
            capture=True,
            on_result=seen.append,
        )
        assert sorted(o.index for o in seen) == list(range(6))

    def test_on_result_sees_completed_work_before_fail_fast_raise(self):
        seen = []
        with pytest.raises(ParallelTaskError):
            parallel_map(_square_or_boom, list(range(8)), workers=2, on_result=seen.append)
        # every task's outcome streamed out before the error was raised
        assert sorted(o.index for o in seen) == list(range(8))


class TestAsciiPlot:
    def test_contains_legend_and_axes(self):
        series = {
            "takum16": [(10.0, -3.0), (50.0, -2.5), (100.0, -2.0)],
            "bfloat16": [(10.0, -2.0), (50.0, -1.5), (100.0, -1.0)],
        }
        text = ascii_plot(series)
        assert "takum16" in text and "bfloat16" in text
        assert "percentile" in text
        assert "log10" in text

    def test_empty_series(self):
        assert "no finite data points" in ascii_plot({"a": []})

    def test_non_finite_points_skipped(self):
        text = ascii_plot({"a": [(10.0, -1.0), (20.0, math.inf), (30.0, -2.0)]})
        assert "a" in text

    def test_degenerate_single_point(self):
        text = ascii_plot({"a": [(50.0, -1.0)]})
        assert "a" in text


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["name", "value"], [["x", 1], ["longer", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text
