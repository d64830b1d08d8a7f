"""bench/common.py: the paired ratios, the scaling of times to the
reference speed, and the runner's refusal of processes that disagree."""

import importlib.util
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_common",
                                               BENCH / "common.py")
common = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(common)


def timing():
    """The names TIMING defines, as a MEASURE body sees them."""
    namespace: dict = {}
    exec(common.TIMING, namespace)
    return namespace


def test_paired_ratios_median_and_won():
    runs = {"parent": {"fire": [10.0, 20.0, 40.0], "run": [5.0, 5.0, 5.0]},
            "change": {"fire": [5.0, 30.0, 20.0], "run": [5.0, 6.0, 4.0]}}
    assert common.paired(runs) == {"change": {
        "fire": {"ratios": [0.5, 1.5, 0.5], "median": 0.5, "won": 2},
        "run": {"ratios": [1.0, 1.2, 0.8], "median": 1.0, "won": 1},
    }}


def test_summary_pairs_only_two_or_more_sources():
    one = common.summary({"a": {"x": [1.0, 3.0, 2.0]}})
    assert one == {"us_median": {"a": {"x": 2.0}},
                   "us_runs": {"a": {"x": [1.0, 3.0, 2.0]}}}
    two = common.summary({"a": {"x": [1.0]}, "b": {"x": [2.0]}})
    assert two["ratio_to_first"]["b"]["x"]["median"] == 2.0


def test_a_batch_at_half_the_reference_speed_reads_half():
    t = timing()
    slow = 2 * t["REFERENCE_NS"]  # the speed loop takes twice as long
    assert t["scaled_us"]([1000, 3000], slow, slow) == [0.5, 1.5]
    assert t["scaled_us"]([1000], t["REFERENCE_NS"], slow) == [2 / 3]


def test_timed_us_scales_each_batch_by_its_own_speed_loops():
    t = timing()
    ref = t["REFERENCE_NS"]
    speeds = iter([ref, 2 * ref, 2 * ref, ref])
    t["speed_ns"] = lambda: next(speeds)
    clock = iter(range(0, 10**9, 3000))  # each call takes 3000 ns
    t["time"] = types.SimpleNamespace(perf_counter_ns=lambda: next(clock))
    t["BATCH"] = 2
    took = t["timed_us"]([lambda: None] * 5)
    # Batches of 2, 2 and 1, between loops of ref, 2ref, 2ref and ref.
    assert took == pytest.approx([2.0, 2.0, 1.5, 1.5, 2.0])
    assert t["median"]([3, 1, 2]) == 2


def test_the_runner_names_rows_by_cell_and_pairs_the_sources():
    measure = "import sys\nreport({'x': float(sys.argv[1])}, 'same')\n"
    times, checks = common.compare(
        {"a": "src", "b": "src"}, measure, 1, ["1", "2"],
        lambda cell, proc: [cell])
    assert times["us_median"] == {"a": {"x.1": 1.0, "x.2": 2.0},
                                  "b": {"x.1": 1.0, "x.2": 2.0}}
    assert times["ratio_to_first"]["b"]["x.2"]["median"] == 1.0
    assert checks == {"1": "same", "2": "same"}


def test_the_runner_refuses_processes_that_check_differently():
    measure = "import sys\nreport({'x': 1.0}, sys.argv[1])\n"
    with pytest.raises(SystemExit, match="disagrees"):
        common.compare({"a": "src", "b": "src"}, measure, 1,
                       argv=lambda cell, proc: [proc])
