"""BENCHMARK.json meets the driver's contract and matches the code."""

import copy
import json

import pytest

from mprbench import validate

TEXT = (validate.ROOT / "BENCHMARK.json").read_text()
MANIFEST = json.loads(TEXT)


def test_checked_in_manifest_has_no_problems():
    assert validate.check_manifest(TEXT) == []


def _problems(mutate):
    manifest = copy.deepcopy(MANIFEST)
    mutate(manifest)
    return validate.check_manifest(json.dumps(manifest))


@pytest.mark.parametrize("mutate, expect", [
    (lambda m: m.update(extra=1), "top-level keys"),
    (lambda m: m["end_to_end"][1].update(bound=0.3), "bound must be"),
    (lambda m: m["end_to_end"].pop(0), "needs setup_s"),
    (lambda m: m["per_layer"][0].update(name=m["per_layer"][1]["name"]), "more than once"),
    (lambda m: m["per_layer"][0].update(name="bad name"), "bad name"),
    (lambda m: m["per_layer"][0].update(unit="milli seconds"), "bad unit"),
    (lambda m: m["workloads"][0].update(why="two\nlines"), "one line"),
    (lambda m: m.update(run_seconds=45), "cannot end within"),
    (lambda m: m.update(command=["python3", "tools/bench_repo.py"]), "outside paths"),
    (lambda m: m.update(paths=["../bench"]), "plain relative path"),
    (lambda m: m["end_to_end"][2].update(name="rq_p99_ms"), "differs from mprbench.spec"),
    (lambda m: m["workloads"].pop(), "differ from mprbench.spec"),
])
def test_broken_manifests_are_reported(mutate, expect):
    assert any(expect in problem for problem in _problems(mutate))


def test_result_line_must_print_exactly_the_listed_metrics():
    metrics = {
        row["name"]: {"value": 1.5, "unit": row["unit"]}
        for row in MANIFEST["end_to_end"]
    }
    line = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    assert validate.check_result(MANIFEST, 0, json.dumps(line)) == []
    assert validate.check_result(MANIFEST, 1, json.dumps(line)) != []
    del metrics["rq_p50_ms"]
    assert validate.check_result(MANIFEST, 0, json.dumps(line)) != []
