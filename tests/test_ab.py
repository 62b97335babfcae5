"""The A/B comparison's schedule and summary arithmetic, with a fake runner: no timing here."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

SPECS = [
    {"name": "item_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]
# per commit: the metric values in slot 0; slot 1 adds 0.1 to item_p50_ms
VALUES = {
    "b0": {"item_p50_ms": 1.0, "items_per_s": 100.0, "setup_s": 0.1},
    "h1": {"item_p50_ms": 0.8, "items_per_s": 90.0, "setup_s": 0.2},
}


def fake_export(commit, dest):
    dest.mkdir(parents=True)
    (dest / "COMMIT").write_text(commit)


def fake_runner(checkout, workload, seed):
    commit = (checkout / "COMMIT").read_text()
    values = dict(VALUES[commit])
    values["item_p50_ms"] += 0.1 * (checkout.name == "slot1")
    return {
        "machine": "# machine: {}",
        "result": {
            "correct": True,
            "attempted": 10,
            "failed": int(commit == "h1"),
            "metrics": {name: {"value": v, "unit": ""} for name, v in values.items()},
        },
    }


@pytest.fixture
def runs(tmp_path):
    plan = ab.schedule(4, 2, seed=100)
    return ab.drive("b0", "h1", plan, tmp_path,
                    export=fake_export, runner=fake_runner, probe=lambda: 1.0)


def test_schedule_balances_slot_and_order():
    plan = ab.schedule(4, 2, seed=100)
    assert [p["kind"] for p in plan] == ["ab", "ab", "aa", "ab", "aa", "ab"]
    assert [p["seed"] for p in plan] == list(range(100, 106))
    ab_pairs = [p for p in plan if p["kind"] == "ab"]
    # over four pairs each side runs first and second in each slot once
    combos = {(p["slots"].index("base"), p["order"][0]) for p in ab_pairs}
    assert combos == {(0, "base"), (1, "base"), (0, "head"), (1, "head")}
    for p in plan:
        assert sorted(p["slots"]) == sorted(p["order"])
    assert {p["slots"] for p in plan if p["kind"] == "aa"} == {("base", "base2"), ("base2", "base")}


def test_drive_runs_every_side_in_its_slot_and_restores_the_checkouts(runs, tmp_path):
    assert len(runs) == 6 * len(ab.WORKLOADS) * 2
    assert {r["commit"] for r in runs if r["kind"] == "aa"} == {"b0"}
    assert {(r["side"], r["commit"]) for r in runs} == {
        ("base", "b0"), ("base2", "b0"), ("head", "h1")
    }
    assert all(r["first"] == runs[i - (i % 2)]["side"] for i, r in enumerate(runs))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["base", "base2", "head"]


def test_summary_arithmetic(runs):
    summary = ab.summarize(runs, SPECS)
    assert list(summary) == ab.WORKLOADS == ["oracle", "geometry", "cli"]
    p50 = summary["oracle"]["item_p50_ms"]
    # base alternates slot 0 and slot 1: 1.0, 1.1, 1.0, 1.1; head 0.9, 0.8, 0.9, 0.8
    assert p50["pairs"] == pytest.approx([(1.0, 0.9), (1.1, 0.8), (1.0, 0.9), (1.1, 0.8)])
    assert p50["base"] == pytest.approx({"median": 1.05, "q1": 1.0, "q3": 1.1, "n": 4})
    assert p50["head"] == pytest.approx({"median": 0.85, "q1": 0.8, "q3": 0.9, "n": 4})
    assert p50["head_wins"] == "4/4"
    assert p50["change"] == pytest.approx(-0.2 / 1.05)
    assert p50["noise"] == pytest.approx(0.1) and p50["verdict"] == "within bound"
    assert p50["gap_over_base_iqr"] == pytest.approx(2.0)
    # the A/A pairs differ only by the slot
    assert p50["aa_pairs"] == pytest.approx([(1.0, 1.1), (1.1, 1.0)])
    assert p50["aa_spread"] == pytest.approx(0.1)
    rate = summary["oracle"]["items_per_s"]
    assert rate["head_wins"] == "0/4" and rate["change"] == pytest.approx(0.1)
    assert rate["verdict"] == "within bound" and rate["gap_over_base_iqr"] is None
    assert rate["aa_spread"] == 0.0
    setup = summary["cli"]["setup_s"]
    assert setup["change"] == pytest.approx(1.0) and setup["verdict"] == "worse"
    assert summary["cli"]["failed_frac"] == pytest.approx({"base": 0.0, "head": 0.1})


def _runs(ab_pairs, aa_pairs):
    """Run records of one workload and metric, ``item_tail_ms``, from (base, other) pairs."""
    runs = []
    for kind, pairs, other in (("ab", ab_pairs, "head"), ("aa", aa_pairs, "base2")):
        for k, values in enumerate(pairs):
            for side, value in zip(("base", other), values):
                runs.append({
                    "kind": kind, "pair": k, "workload": "cli", "side": side,
                    "result": {"attempted": 1, "failed": 0,
                               "metrics": {"item_tail_ms": {"value": value}}},
                })
    return runs


TAIL = [{"name": "item_tail_ms", "better": "lower", "bound": 0.25}]


@pytest.mark.parametrize(
    "ab_pairs, aa_pairs, verdict",
    [
        # the medians read 5% better, but an A/A pair spreads by 40%
        ([(100, 90), (100, 95), (100, 130)], [(100, 140)], "unresolved"),
        # the same pairs with a narrow A/A spread
        ([(100, 90), (100, 95), (100, 130)], [(100, 110)], "within bound"),
        # no A/A pairs, but the base IQR is 40% of its median
        ([(60, 90), (100, 95), (140, 130)], [], "unresolved"),
        # a wide spread, but every head run beats every base run
        ([(100, 90), (100, 95), (100, 80)], [(100, 140)], "within bound"),
        # a narrow spread and the head median 30% worse
        ([(100, 130), (100, 125), (100, 140)], [(100, 105)], "worse"),
        # 30% worse, but the spread is wider than the bound
        ([(100, 130), (100, 125), (100, 140)], [(100, 130)], "unresolved"),
    ],
)
def test_a_spread_wider_than_the_bound_leaves_the_verdict_unresolved(ab_pairs, aa_pairs, verdict):
    assert ab.summarize(_runs(ab_pairs, aa_pairs), TAIL)["cli"]["item_tail_ms"]["verdict"] == verdict


def test_stats_of_one_value():
    assert ab.stats([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}
