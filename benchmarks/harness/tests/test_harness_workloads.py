"""Seeding, the oracle, and the contract file."""

import itertools
import json
import re
from pathlib import Path

import pytest
from spine import measure
from spine.cli import RUN_SECONDS
from spine.ladder import LAYER_METRICS
from spine.workloads import WORKLOADS

SCALE = 0.05
ROOT = Path(__file__).resolve().parents[3]


def first_ops(workload, seed, count=12):
    fixture = workload.open(seed, (), SCALE)
    try:
        return list(itertools.islice(workload.ops(fixture, seed), count))
    finally:
        fixture.close()


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_seed_one_operation_sequence(name):
    workload = WORKLOADS[name]
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_answer_satisfies_the_oracle(name):
    workload = WORKLOADS[name]
    (result,) = measure.measure([workload], 3, 0.2, passes=2, setups=1,
                                scale=SCALE)
    assert result["failed"] == 0, result["first_error"]
    assert result["attempted"] > result["timed_ops"] > 0   # + warm-up
    assert set(result["metrics"]) == set(measure.END_TO_END)
    assert len(result["passes"]["p50_ms"]) == 2


def test_oracle_catches_a_wrong_row():
    workload = WORKLOADS["wisc_point.daemon"]
    fixture, ops, warmup, _s = measure.set_up(workload, 3, (workload.top,),
                                              SCALE)
    try:
        assert warmup.failed == 0
        op = next(ops)
        key = op.steps[0].args[0]
        surrogate = fixture.db.access.atoms.find_by_key("tenk", key)
        fixture.db.modify_atom(surrogate, {"tenpct": 11})
        tally = measure.run_ops(workload, fixture.targets[workload.top],
                                iter([op, next(ops)]), count=2)
        assert tally.failed == 1 and len(tally.latencies) == 1
        assert "oracle" in tally.first_error
    finally:
        fixture.close()


def test_oracle_catches_a_wrong_solid_and_a_missing_molecule():
    workload = WORKLOADS["brep_scan.embedded"]
    fixture, ops, warmup, _s = measure.set_up(workload, 5, (workload.top,),
                                              SCALE)
    try:
        assert warmup.failed == 0
        op = next(ops)
        target = fixture.targets[workload.top]
        answers = [target.run(step) for step in op.steps]
        assert workload.check(op, answers) is not None
        (full, n), topk = answers
        assert workload.check(op, [(full[:-1], n), topk]) is None
        full[0].components["face"][0].atom["square_dim"] += 1.0
        assert workload.check(op, [(full, n), topk]) is None
        # The top-k must be the *shortest* edges, each a real edge.
        answers = [target.run(step) for step in op.steps]
        molecules, n = answers[1]
        molecules[0].atom["length"] *= 2
        assert workload.check(op, [answers[0], (molecules, n)]) is None
    finally:
        fixture.close()


def test_an_exception_is_a_failed_operation_not_a_crash():
    workload = WORKLOADS["wisc_write.local"]
    fixture, ops, _warmup, _s = measure.set_up(workload, 3, (workload.top,),
                                               SCALE)
    try:
        op = next(ops)
        target = fixture.targets[workload.top]
        target.run(op.steps[0])            # the row now exists:
        tally = measure.run_ops(workload, target, iter([op]), count=1)
        assert tally.failed == 1           # ... a second INSERT is refused
        assert "DuplicateKeyError" in tally.first_error
    finally:
        fixture.close()


def test_benchmark_json_states_what_the_code_measures():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/harness"]
    assert contract["command"] == ["python3", "benchmarks/harness/run.py"]
    assert contract["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in contract["per_layer"]} == LAYER_METRICS
    names = [x["name"] for section in ("workloads", "end_to_end",
                                       "per_layer")
             for x in contract[section]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", n)
               for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    units = [m["unit"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", u) for u in units)
