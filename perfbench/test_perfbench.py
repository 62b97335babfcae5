"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Sizes(
    oracle=(2,),
    geometry=(2, 4),
    geometry_per_size=1,
    prior_calls_per_case=1,
    cli_tensors=(),
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def child_env(monkeypatch):
    src = str(ROOT / "src")
    paths = (src, os.environ.get("PYTHONPATH"))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))


def test_benchmark_json_names_every_metric():
    assert {w["name"] for w in SPEC["workloads"]} <= set(harness.WORKLOADS)
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert end_to_end == list(harness.END_TO_END)
    per_layer = [(name, unit, better) for name, unit, better, _ in harness.per_layer_specs()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == per_layer


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(name):
    result = harness.measure(name, 3, 0.0, ROOT, TINY)
    line = harness.report(result, [(m["name"], m["unit"]) for m in SPEC["end_to_end"]])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]) and entry["value"] > 0


def test_every_per_layer_metric_is_emitted():
    result = harness.traced(3, 0.0, ROOT, TINY)
    assert not result["failures"]
    names = [metric for metric, *_ in harness.per_layer_specs(TINY)]
    assert list(result["values"]) == names
    assert all(math.isfinite(v) for v in result["values"].values())
    assert all(v > 0 for name, v in result["values"].items() if "overhead" not in name)
    assert result["spans"]


def inputs(name, seed):
    w = harness.build(name, seed, ROOT, TINY)
    try:
        files = sorted((p.name, p.read_bytes()) for p in w.workdir.iterdir()) if w.workdir else []
        return json.dumps(w.inputs).encode(), files
    finally:
        w.close()


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    assert inputs(name, 7) == inputs(name, 7)
    assert inputs(name, 7) != inputs(name, 8)


def test_perturbed_residual_counts_as_failed():
    w = wl.build_oracle(1, TINY)
    index = next(i for i, item in enumerate(w.items) if item.kind == "oracle_compare")
    honest = w.items[index].run
    w.items[index].run = lambda: {**honest(), "metric": 1e-3}
    times, failures = harness.one_pass(w, {})
    assert [label for label, _ in failures] == ["oracle_compare.n2"]
    result = {"values": {}, "attempted": len(times), "failures": failures}
    line = harness.report(result, [])
    assert line["failed"] == 1 and not line["correct"]


def ricci0_miss_line(n):
    f = wl.arma_filter(wl.draw_roots(np.random.default_rng(n), n))
    reason = wl.oracle_compare_check(f)({"metric": 1e-15, "ricci0": 1e-3, "max": 1e-3})
    result = {"values": {}, "attempted": 5, "failures": [(f"oracle_compare.n{n}", reason)]}
    return reason, harness.report(result, [])


def test_ill_conditioned_ricci0_miss_is_known_red_and_keeps_correct():
    reason, line = ricci0_miss_line(16)
    assert reason.startswith(wl.KNOWN_RED)
    assert line["failed"] == 1 and line["correct"]


def test_well_conditioned_ricci0_miss_is_a_real_failure():
    reason, line = ricci0_miss_line(2)
    assert not reason.startswith(wl.KNOWN_RED)
    assert line["failed"] == 1 and not line["correct"]


def test_output_that_changes_between_runs_counts_as_failed():
    w = wl.build_geometry(1, TINY)
    verdicts = {}
    harness.one_pass(w, verdicts)
    honest = w.items[0].run
    w.items[0].run = lambda: honest()[:3] + (-1.0,) + honest()[4:]
    _, failures = harness.one_pass(w, verdicts)
    assert failures == [("bundle.n2", "output differs from an earlier run of the same item")]
    assert "det g" in w.items[0].check(w.items[0].run())


def test_wrong_exit_code_counts_as_failed():
    w = harness.build("cli", 1, ROOT, TINY)
    try:
        runner = wl.CliRunner(ROOT, dict(os.environ))
        missing = str(w.workdir / "missing.json")
        bad = wl.CliCase("validate", [missing], "n3", lambda t, fs, key: None)
        w.items = [runner.item(bad)]
        _, failures = harness.one_pass(w, {})
    finally:
        w.close()
    assert failures == [("validate.n3", "exit code 2")]


def test_prior_recount_must_match():
    w = wl.build_priors(1, TINY)
    index = next(i for i, item in enumerate(w.items) if item.key == "psi2-arma11")
    report = w.items[index].run()
    assert w.items[index].check(report) is None
    forged = dataclasses.replace(report, violations=report.violations + 1)
    assert "do not repeat" in w.items[index].check(forged)


def test_schedule_spreads_repeats_between_single_runs():
    item = lambda repeats: wl.Item("k", "", None, None, None, repeats)  # noqa: E731
    assert harness.schedule([item(4), item(1), item(1), item(1), item(1)]) == [1, 0, 2, 0, 3, 0, 4, 0]
    assert harness.schedule([item(1), item(2), item(1)]) == [0, 1, 2, 1]


def test_harrell_davis_is_a_weighted_mean_of_the_order_statistics():
    assert harness.harrell_davis([5.0] * 7, 0.9) == pytest.approx(5.0)
    values = list(range(1, 121))
    assert harness.harrell_davis(values, 0.5) == pytest.approx(60.5, abs=1e-6)
    high = harness.harrell_davis(values, 0.92)
    assert float(np.percentile(values, 91)) < high < float(np.percentile(values, 93))
