"""Self-tests of the benchmark's statistics, span arithmetic and recounts.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nsdeg  # noqa: E402
import pytest  # noqa: E402

from checks import cdeg_recount, count_ideals  # noqa: E402
from stats import percentile, tail, tail_percentile  # noqa: E402
from tracer import Tracer, aggregate_spans  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (99, None), (100, 90), (199, 90), (200, 95), (960, 95), (999, 95), (1000, 99), (44000, 99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_falls_back_to_max_and_names_it():
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max")
    values = [float(i) for i in range(1, 201)]
    assert tail(values) == (190.0, "p95")


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile([5.0], 95) == 5.0


def test_self_time_subtracts_direct_children_only():
    names = ["a", "b", "c"]
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]
    name_id = [0, 1, 2, 1]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    stats, children = aggregate_spans(names, name_id, parent, start, end)
    assert (stats["a"].total_s, stats["a"].self_s) == (10.0, 5.0)
    assert (stats["b"].spans, stats["b"].total_s, stats["b"].self_s) == (2, 5.0, 4.0)
    assert (stats["c"].total_s, stats["c"].self_s) == (1.0, 1.0)
    assert children == {("a", "b"): 2, ("b", "c"): 1}


def test_tracer_catches_cross_module_calls_and_uninstalls():
    original = nsdeg.degrees.cdeg
    tracer = Tracer()
    tracer.install()
    try:
        assert nsdeg.degrees.cdeg is not original and nsdeg.herzog.cdeg is nsdeg.degrees.cdeg
        nsdeg.cdeg(nsdeg.NumericalSemigroup([5, 7, 9]))
        stats, children = tracer.aggregate()
    finally:
        tracer.uninstall()
    assert nsdeg.degrees.cdeg is original and nsdeg.herzog.cdeg is original
    assert stats["degrees.cdeg"].calls == 1
    assert stats["semigroup.construct"].calls == 1
    assert children[("degrees.cdeg", "ideals.canonical_ideal")] == 1
    assert stats["degrees.cdeg"].total_s >= stats["degrees.cdeg"].self_s > 0


@pytest.mark.parametrize(
    "gens, cdeg, ddeg",
    [((5, 7, 9), 2, 1), ((13, 14, 15, 16, 17, 18, 21, 23), 8, 9)],
)
def test_plain_set_cdeg_recount_matches_nsdeg(gens, cdeg, ddeg):
    S = nsdeg.NumericalSemigroup(gens)
    assert cdeg_recount(S.gaps) == nsdeg.cdeg(S) == cdeg
    assert nsdeg.ddeg(S) == ddeg


@pytest.mark.parametrize("gens", [(3, 4, 5), (5, 7, 9), (4, 9, 11), (6, 7, 8, 9, 10, 11)])
def test_ideal_count_matches_enumeration(gens):
    S = nsdeg.NumericalSemigroup(gens)
    n = sum(1 for _ in nsdeg.enumerate_ideals(S))
    assert count_ideals(S.gaps, S.generators, 10**6) == n
    assert count_ideals(S.gaps, S.generators, n - 1) == n


def test_only_the_reduction_cap_is_the_known_defect():
    from workloads import is_known_defect

    assert is_known_defect(nsdeg.InternalInvariantViolation("reduction number exceeded 64 iterations"))
    assert not is_known_defect(nsdeg.InternalInvariantViolation("matrix relations fail"))
    assert not is_known_defect(nsdeg.NsdegError("reduction number exceeded 64 iterations"))
