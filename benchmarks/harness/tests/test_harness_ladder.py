"""The traced run: honest rungs, a monotonic ladder, repeatable counts."""

import functools

import pytest
from spine import ladder
from spine.workloads import WORKLOADS

SCALE = 0.05
#: Metrics that are timings (everything else must repeat exactly).
TIMED = {"ms", "us", "%"}


@functools.lru_cache(maxsize=None)
def climb(name, seed, seconds=0.0):
    return ladder.climb(WORKLOADS[name], seed, seconds, SCALE)


@pytest.mark.parametrize("name", WORKLOADS)
def test_rungs_agree_with_each_other_and_the_oracle(name):
    result, trace = climb(name, 3)
    workload = WORKLOADS[name]
    assert result["failed"] == 0, result["first_error"]
    assert list(result["rung_median_ms"]) == list(workload.rungs)
    assert set(result["metrics"]) == set(ladder.LAYER_METRICS)
    # The lower rungs replay exactly the page pins and atom reads the
    # engine made for the same operations.
    assert result["rung_work"]["storage_fixes_per_op"] == \
        result["metrics"]["storage.fixes_per_op"]
    assert result["rung_work"]["access_atoms_read_per_op"] == \
        result["metrics"]["access.atoms_read_per_op"]
    # One root span per op and rung, one child per statement step.
    spans = trace["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == len(workload.rungs) * result["ops_per_round"]
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        assert span["end_us"] >= span["start_us"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["op"] == span["op"]
            assert parent["start_us"] <= span["start_us"]
            assert span["end_us"] <= parent["end_us"]
            assert span["name"].startswith(parent["name"] + "/")


@pytest.mark.parametrize("name", ["wisc_point.daemon", "wisc_write.local",
                                  "wisc_point.shard4"])
def test_ladder_is_monotonic(name):
    result, _trace = climb(name, 3, seconds=0.5)
    medians = list(result["rung_median_ms"].values())
    assert medians == sorted(medians) and result["monotonic"]
    selfs = [result["metrics"][m] for m, (rung, _below)
             in ladder.SELF_TIME.items() if rung in result["rung_median_ms"]]
    assert all(value >= 0 for value in selfs)
    assert sum(selfs) == pytest.approx(medians[-1])


@pytest.mark.parametrize("name", ["wisc_point.cold", "brep_scan.daemon"])
def test_count_metrics_repeat_exactly_for_a_seed(name):
    def counts(run):
        result, _trace = run
        return {metric: value for metric, value in result["metrics"].items()
                if ladder.LAYER_METRICS[metric][0] not in TIMED}
    first = counts(climb(name, 3))
    assert first == counts(climb.__wrapped__(name, 3))   # a second run
    assert first["storage.fixes_per_op"] > 0
    if name == "wisc_point.cold":
        assert 0 < first["storage.hit_ratio"] < 1
        assert first["storage.evictions_per_op"] > 0
        assert first != counts(climb(name, 4))  # other keys and misses
    else:
        assert first["serve.messages_per_op"] > 0


def test_layers_above_a_workload_report_zero():
    result, _trace = climb("wisc_point.cold", 3)
    assert all(result["metrics"][m] == 0.0 for m in result["metrics"]
               if m.startswith(("serve.", "shard.")))
    routed, _trace = climb("wisc_point.shard4", 3)
    assert routed["metrics"]["shard.routed_share"] == 1.0
    assert routed["metrics"]["serve.daemon_self_ms_per_op"] == 0.0
