"""The percentile / tail rule, the spread rule and the comparator."""

import pytest
from spine import compare, stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (19, None),        # p75 would leave 4 beyond
    (40, 75.0),        # exactly 10 beyond p75
    (99, 75.0),        # p90 would leave 9
    (100, 90.0),       # exactly 10 beyond p90
    (1000, 99.0),
    (10_000, 99.9),
    (100_000, 99.99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    found = stats.tail(list(range(count)))
    if expected is None:
        assert found is None
        return
    pct, value = found
    assert pct == expected
    assert sum(1 for s in range(count) if s > value) >= 10
    higher = [p for p in stats.TAIL_CANDIDATES if p > pct]
    assert all(stats.samples_beyond(count, p) < 10 for p in higher)


def test_better_half_spread_ignores_the_disturbed_half():
    quiet = [1.00, 1.01, 1.02, 1.5, 1.9, 2.4]
    assert stats.better_half_spread(quiet, "lower") == pytest.approx(0.02)
    rates = [100.0, 99.0, 98.0, 60.0, 50.0]
    assert stats.better_half_spread(rates, "higher") == pytest.approx(0.02)
    assert stats.better_half_spread([3.0], "lower") == 0.0


def _run(p50, passes, ops=1000.0, setup=1.0):
    return {"workloads": [{
        "workload": "w", "metrics": {"p50_ms": p50, "ops_per_s": ops,
                                     "setup_s": setup},
        "passes": {"p50_ms": passes, "ops_per_s": [ops, ops],
                   "setup_s": [setup, setup, setup]}}]}


def test_compare_verdicts():
    bound = compare.END_TO_END["p50_ms"][2]
    steady = [1.0, 1.01, 1.02, 1.9]

    def p50_verdict(base, other):
        rows = compare.compare(base, other)
        return next(r for r in rows if r["metric"] == "p50_ms")

    row = p50_verdict(_run(1.0, steady), _run(1.0 + 1.5 * bound, steady))
    assert row["verdict"] == "worse"
    assert row["ratio"] == pytest.approx(1.0 + 1.5 * bound)
    assert p50_verdict(_run(1.0, steady), _run(1.0 - 1.5 * bound, steady)
                       )["verdict"] == "better"
    assert p50_verdict(_run(1.0, steady), _run(1.0 + 0.5 * bound, steady)
                       )["verdict"] == "within bound"
    noisy = [1.0, 1.0 + 1.5 * bound, 2.0, 2.5]
    assert p50_verdict(_run(1.0, noisy), _run(1.0 + 1.5 * bound, noisy)
                       )["verdict"] == "unresolved"
    # Direction: more operations per second is better, not worse.
    rows = compare.compare(_run(1.0, steady, ops=1000.0),
                           _run(1.0, steady, ops=1000.0 * (1 + 1.5 * bound)))
    assert {r["metric"]: r["verdict"] for r in rows} == {
        "p50_ms": "within bound", "ops_per_s": "better",
        "setup_s": "within bound"}


def test_compare_exit_code(tmp_path, capsys):
    import json
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_run(1.0, [1.0, 1.01])))
    b.write_text(json.dumps(_run(1.5, [1.5, 1.51])))
    assert compare.main(str(a), str(a)) == 0
    assert compare.main(str(a), str(b)) == 1
    assert "worse" in capsys.readouterr().out
