"""A/B comparison for the benchmark: ``perfbench/run.py`` on two commits, in alternating pairs.

    python3 tools/ab.py --base <commit> --head <commit> --pairs 5 --aa-pairs 2 \
        --seed 4100 --out BENCH.json

Each commit is exported with ``git archive`` into a checkout of its own.
Every run takes place in one of two slot directories, ``<work>/slot0`` and
``<work>/slot1``, whose paths have equal length: the two checkouts of a pair
are renamed into the slots before it and back out after it.  From pair to
pair the commit in slot 0 swaps, and every second pair so does the side that
runs first, so over four pairs each side runs first and second in each slot
once and an effect of the directory or of the order cancels.  A/A pairs run
the base commit against a second export of itself in the same slots: their
spread is what the directory and the order give on identical code.  Before
every run a calibration probe, the median time of a 256 x 256 complex matrix
product on one BLAS thread, shows a slow spell of the machine.

``run.py`` runs unchanged, one workload per process, from the root of its
slot, on every workload of ``BENCHMARK.json`` for its ``run_seconds``.  The
JSON written to ``--out`` holds every run and, per workload and end-to-end
metric, the pairs, each side's median and quartiles, the pairs the head
wins, the relative change of the medians, the A/A spread, and a verdict
against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = """
import time
import numpy as np
a = np.random.default_rng(0).random((256, 256)) * (1 + 1j)
times = []
for _ in range(21):
    start = time.perf_counter()
    a @ a
    times.append(time.perf_counter() - start)
print(1e3 * sorted(times)[10])
"""
ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
SECONDS = BENCH["run_seconds"]


def schedule(pairs: int, aa_pairs: int, seed: int) -> list[dict]:
    """The pairs in run order: A/A pairs spread among the A/B ones, one seed per pair.

    Within each kind, pair k puts its first side in slot k % 2 and runs its
    first side first when (k // 2) is even.
    """
    total = pairs + aa_pairs
    aa_at = {round((j + 1) * total / (aa_pairs + 1)) for j in range(aa_pairs)}
    counts = {"ab": 0, "aa": 0}
    plan = []
    for position in range(total):
        kind = "aa" if position in aa_at else "ab"
        k = counts[kind]
        counts[kind] += 1
        sides = ("base", "head") if kind == "ab" else ("base", "base2")
        slots = sides if k % 2 == 0 else sides[::-1]  # slots[i] is the side in slot i
        order = sides if (k // 2) % 2 == 0 else sides[::-1]
        plan.append(
            {"kind": kind, "pair": k, "seed": seed + position, "slots": slots, "order": order}
        )
    return plan


def git_export(commit: str, dest: Path) -> None:
    """The tree of ``commit`` in this repository, written into the new directory ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One unchanged ``perfbench/run.py`` process in ``checkout``: its machine line and result."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"run.py in {checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {
        "wall_s": round(time.perf_counter() - start, 2),
        "machine": next((line for line in lines if line.startswith("# machine:")), None),
        "result": json.loads(lines[-1]),
    }


def probe_ms() -> float:
    """The calibration probe, in a fresh process on one BLAS thread."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, **ONE_THREAD},
        capture_output=True, text=True, check=True, timeout=300,
    )
    return float(proc.stdout)


@contextlib.contextmanager
def occupying(checkouts: dict[str, Path], slots: tuple[Path, Path], sides: tuple[str, str]):
    """The checkouts of ``sides`` renamed into the two slots for the duration of the block."""
    for slot, side in zip(slots, sides):
        checkouts[side].rename(slot)
    try:
        yield
    finally:
        for slot, side in zip(slots, sides):
            slot.rename(checkouts[side])


def drive(base, head, plan, work: Path,
          export=git_export, runner=run_perfbench, probe=probe_ms, log=None) -> list[dict]:
    """Every run of ``plan``, each pair over every workload, as records in run order."""
    commits = {"base": base, "head": head, "base2": base}
    checkouts = {side: work / "store" / side for side in commits}
    for side, commit in commits.items():
        export(commit, checkouts[side])
    slots = (work / "slot0", work / "slot1")
    runs = []
    for pair in plan:
        with occupying(checkouts, slots, pair["slots"]):
            for workload in WORKLOADS:
                for side in pair["order"]:
                    slot = pair["slots"].index(side)
                    record = {
                        "kind": pair["kind"], "pair": pair["pair"], "seed": pair["seed"],
                        "workload": workload, "side": side, "commit": commits[side],
                        "slot": slot, "first": pair["order"][0], "probe_ms": round(probe(), 3),
                    }
                    record.update(runner(slots[slot], workload, pair["seed"]))
                    runs.append(record)
                    if log:
                        log(f"{pair['kind']} {pair['pair']} {workload} {side} slot{slot}: "
                            f"probe {record['probe_ms']} ms, wall {record.get('wall_s')} s")
    return runs


def stats(values: list[float]) -> dict:
    """Median, quartiles (linear interpolation, as numpy's default) and count."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _pairs(runs, kind, workload, value):
    """(base, other side) values per pair of ``kind``, in pair order."""
    by_pair = {}
    for run in runs:
        if run["kind"] == kind and run["workload"] == workload:
            by_pair.setdefault(run["pair"], [None, None])[run["side"] != "base"] = value(run)
    return [tuple(by_pair[k]) for k in sorted(by_pair)]


def _failed_share(run):
    return run["result"]["failed"], run["result"]["attempted"]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric: pairs, each side's stats, head wins, change, spreads, verdict.

    ``change`` is the head median relative to the base median, signed so that
    a positive value is worse.  ``aa_spread`` is the largest relative gap
    between the two sides of an A/A pair, None without A/A pairs, and
    ``noise`` the larger of it and the base IQR over the base median.  The
    ``verdict`` is "unresolved" when the noise exceeds the metric's bound and
    some head run is no better than some base run: the medians cannot then
    tell a move within the bound from one beyond it.  Otherwise it is "worse"
    when the change exceeds the bound and "within bound" when it does not.
    ``failed_frac`` is each side's failed items over its attempted items,
    over all its runs.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        failed = _pairs(runs, "ab", workload, _failed_share)
        entry = {"failed_frac": {
            side: sum(p[i][0] for p in failed) / max(sum(p[i][1] for p in failed), 1)
            for i, side in enumerate(("base", "head"))
        }}
        for spec in end_to_end:
            name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0

            def value(run, name=name):
                return run["result"]["metrics"][name]["value"]

            pairs, aa = _pairs(runs, "ab", workload, value), _pairs(runs, "aa", workload, value)
            base, head = stats([b for b, _ in pairs]), stats([h for _, h in pairs])
            gap, iqr = head["median"] - base["median"], base["q3"] - base["q1"]
            change = sign * gap / base["median"]
            aa_spread = max((abs(b - a) / abs(a) for a, b in aa), default=None)
            noise = max(aa_spread or 0.0, iqr / abs(base["median"]))
            # every head run better than every base run
            clear = max(sign * h for _, h in pairs) < min(sign * b for b, _ in pairs)
            if noise > spec["bound"] and not clear:
                verdict = "unresolved"
            else:
                verdict = "worse" if change > spec["bound"] else "within bound"
            entry[name] = {
                "better": spec["better"],
                "pairs": pairs,
                "base": base,
                "head": head,
                "head_wins": f"{sum(sign * (b - h) > 0 for b, h in pairs)}/{len(pairs)}",
                "change": change,
                "bound": spec["bound"],
                "gap_over_base_iqr": abs(gap) / iqr if iqr > 0 else None,
                "aa_pairs": aa,
                "aa_spread": aa_spread,
                "noise": noise,
                "verdict": verdict,
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent commit")
    parser.add_argument("--head", default="HEAD", help="the changed commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--aa-pairs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--work", type=Path, help="an empty directory for the checkouts")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    def resolve(commit):
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", commit],
                              capture_output=True, text=True, check=True).stdout.strip()

    base, head = resolve(args.base), resolve(args.head)
    plan = schedule(args.pairs, args.aa_pairs, args.seed)
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="ab-")))
        runs = drive(base, head, plan, work,
                     log=lambda line: print(line, file=sys.stderr, flush=True))
    probes = [run["probe_ms"] for run in runs]
    args.out.write_text(json.dumps({
        "what": "perfbench/run.py end-to-end metrics, base commit against head in alternating "
                "pairs with swapped slot directories, plus A/A pairs of the base commit",
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {SECONDS:g}",
        "base": base,
        "head": head,
        "machine": sorted({run["machine"] for run in runs if run["machine"]}),
        "probe_ms": {**stats(probes), "min": min(probes), "max": max(probes)},
        "summary": summarize(runs, BENCH["end_to_end"]),
        "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
