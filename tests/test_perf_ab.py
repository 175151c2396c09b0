"""The verdict of ``tools/perf_ab.py`` on synthetic pairs (no runs)."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "perf_ab.py")
_SPEC = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

LATENCY = {"name": "p50", "unit": "ms", "better": "lower", "bound": 0.25}
THROUGHPUT = {"name": "ops", "unit": "ops/s", "better": "higher",
              "bound": 0.25}


def pairs_of(base: list, change: list, name: str) -> list:
    return [({name: b}, {name: c}) for b, c in zip(base, change)]


def verdict_of(metric: dict, base: list, change: list) -> str:
    summary = perf_ab.compare(pairs_of(base, change, metric["name"]),
                              [metric])
    return summary[metric["name"]]["verdict"]


BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]


def test_clear_improvement_is_a_win():
    assert verdict_of(LATENCY, BASE, [b * 0.8 for b in BASE]) == "win"
    assert verdict_of(THROUGHPUT, BASE, [b * 1.2 for b in BASE]) == "win"


def test_eight_of_ten_pairs_is_not_a_win():
    change = [b * 0.8 for b in BASE[:8]] + [b * 1.1 for b in BASE[8:]]
    assert verdict_of(LATENCY, BASE, change) == "within"


def test_gap_inside_the_base_iqr_is_not_a_win():
    # Every pair won by a hair: the medians differ by less than the
    # base's interquartile range.
    assert verdict_of(LATENCY, BASE, [b - 0.01 for b in BASE]) == "within"


def test_worse_beyond_the_bound_is_a_loss():
    assert verdict_of(LATENCY, BASE, [b * 1.3 for b in BASE]) == "loss"
    assert verdict_of(THROUGHPUT, BASE, [b * 0.7 for b in BASE]) == "loss"


def test_worse_inside_the_bound_is_within():
    assert verdict_of(LATENCY, BASE, [b * 1.2 for b in BASE]) == "within"
    assert verdict_of(THROUGHPUT, BASE, [b * 0.8 for b in BASE]) \
        == "within"


def test_an_a_a_run_gives_no_verdict():
    assert verdict_of(LATENCY, BASE, list(BASE)) == "within"
    assert verdict_of(THROUGHPUT, BASE, list(reversed(BASE))) == "within"


def test_summary_carries_bound_and_verdict():
    summary = perf_ab.compare(pairs_of(BASE, BASE, "p50"), [LATENCY])
    row = summary["p50"]
    assert row["bound"] == 0.25 and row["verdict"] == "within"
    assert row["won"] == 0 and row["pairs"] == 10
