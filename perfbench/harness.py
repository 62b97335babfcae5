"""Measurement loops, the traced run, and the metric tables.

End-to-end metrics come from untraced runs: whole passes over the
workload's fixed item list, one call at a time (a closed loop with a single
caller), as many passes as fill the requested seconds at a nominal speed.  Per-layer
metrics come from a separate traced run over every workload, which replays
the items as their public calls; so every traced run reports the whole
per-layer table from the same work.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import workloads as wl
from spans import Tracer, layer_self_share, median_call_us, median_item_ms

WORKLOADS = ("oracle", "geometry", "priors", "cli")
# The layers whose self time each workload's replay records.
SHARE_LAYERS = {
    "oracle": ("closed_form", "quadrature"),
    "geometry": ("closed_form",),
    "priors": ("closed_form", "priors", "sampling"),
    "cli": ("filters", "closed_form", "quadrature", "priors", "serialization", "cli"),
}
# Workloads whose replay does the same work as their items, so that traced
# against untraced time is the cost of the spans alone.  A priors replay
# makes each call and then its parts; a cli replay makes in this process the
# calls an item makes in a cold one.
OVERHEAD_WORKLOADS = ("oracle", "geometry")
# Rough seconds per pass on a shared 2-core VM.  A run makes a number of
# passes fixed by --seconds, so the sample count, and with it the tail
# percentile, is the same on every run and every commit.
NOMINAL_PASS_S = {"oracle": 5.0, "geometry": 1.0, "priors": 2.0, "cli": 3.0}
SETUP_REPEATS = 9  # fresh set-up processes per run, spread between the passes
TAIL_BEYOND = 10  # item runs that must lie beyond the reported tail percentile

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def build(name: str, seed: int, root: Path, sizes: wl.Sizes = wl.FULL) -> wl.Workload:
    if name == "cli":
        return wl.build_cli(seed, root, dict(os.environ), sizes)
    return {"oracle": wl.build_oracle, "geometry": wl.build_geometry, "priors": wl.build_priors}[
        name
    ](seed, sizes)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ------------------------------------------------------------ untraced


def verify(verdicts: dict, index: int, item: wl.Item, result) -> str | None:
    """Check an item's output; a repeat of an item must repeat its output exactly.

    The full check runs on an item's first output; later runs of the same
    item are compared with that output, so costly oracle checks run once.
    """
    digest = hashlib.sha256(pickle.dumps(result)).digest()
    seen = verdicts.get(index)
    if seen is None:
        seen = verdicts[index] = (digest, item.check(result))
    elif seen[0] != digest:
        return "output differs from an earlier run of the same item"
    return seen[1]


def schedule(items: list[wl.Item]) -> list[int]:
    """The order of one timed pass, as item indices.

    An item runs ``repeats`` times in a pass.  The runs of a repeated item
    are spread evenly between the items that run once, so that they sample
    the whole pass and not one moment of it.
    """
    once = [i for i, item in enumerate(items) if item.repeats == 1]
    slots = [(j / len(once), i) for j, i in enumerate(once)]
    slots += [
        ((k + 0.5) / item.repeats, i)
        for i, item in enumerate(items)
        if item.repeats > 1
        for k in range(item.repeats)
    ]
    return [i for _, i in sorted(slots)]


def one_pass(
    w: wl.Workload, verdicts: dict, order: list[int] | None = None
) -> tuple[list[int], list[tuple[str, str]]]:
    """Each call's time in ns, in the order made, and the failures.

    Without ``order`` every item runs once, in list order."""
    times, failures = [], []
    for index in range(len(w.items)) if order is None else order:
        item = w.items[index]
        start = perf_counter_ns()
        try:
            result = item.run()
        except Exception as exc:  # an item that raises counts as failed
            times.append(perf_counter_ns() - start)
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            times.append(perf_counter_ns() - start)
            reason = verify(verdicts, index, item, result)
        if reason:
            failures.append((f"{item.kind}.{item.key}", reason))
    return times, failures


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, weighted by how likely each is to be the
    q-quantile (a Beta(q(n+1), (1-q)(n+1)) density over its slice of [0, 1]),
    so that it does not hang on the one or two calls nearest the percentile.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n, steps = len(x), 64  # midpoint rule, 64 steps per order statistic
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    mids = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1.0) * np.log(mids) + (b - 1.0) * np.log1p(-mids)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ x / weights.sum())


def tail(times_ms: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND calls above it, and
    its Harrell-Davis estimate."""
    arr = np.asarray(times_ms)
    for p in range(99, 0, -1):
        if np.count_nonzero(arr > np.percentile(arr, p)) >= TAIL_BEYOND:
            return p, harrell_davis(arr, p / 100)
    return 50, harrell_davis(arr, 0.5)


def pass_count(name: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[name]))


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_probe(name: str, seed: int, root: Path) -> float:
    """Set-up time of a fresh benchmark process, as that process measured it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setups_before(index: int, passes: int) -> int:
    """How many set-up probes run before timed pass ``index``: SETUP_REPEATS in
    all, spread evenly over the passes."""
    return sum(k * passes // SETUP_REPEATS == index for k in range(SETUP_REPEATS))


def measure(name: str, seed: int, seconds: float, root: Path, sizes: wl.Sizes = wl.FULL) -> dict:
    w = build(name, seed, root, sizes)
    try:
        verdicts: dict = {}
        one_pass(w, verdicts)  # warm-up; checks each item's first output
        order = schedule(w.items)
        passes, failures, setups = [], [], []
        count = pass_count(name, seconds)
        for index in range(count):
            setups += [setup_probe(name, seed, root) for _ in range(setups_before(index, count))]
            times, fails = one_pass(w, verdicts, order)
            passes.append(times)
            failures += fails
        rss = peak_rss_mb(name)
    finally:
        w.close()
    calls_ms: list[list[float]] = [[] for _ in w.items]  # every run of each item
    item_ms = []  # one run of every item in every pass: the item-time distribution
    for times in passes:
        for index, t in zip(order, times):
            if len(calls_ms[index]) % w.items[index].repeats == 0:
                item_ms.append(t / 1e6)
            calls_ms[index].append(t / 1e6)
    # The shared VM runs the same call at one of two speeds, about 1.7x apart,
    # switching many times a second, and the share of slow time drifts over
    # minutes.  A call of a few ms runs at one speed: the fastest of its many
    # runs spread over the whole run is the uncontended speed.  A call of a
    # second or more mixes both: its mean over the run is steadier than its
    # luckiest run.
    best_ms = [min(calls) for calls in calls_ms]
    mean_ms = [statistics.fmean(calls) for calls in calls_ms]
    p, tail_ms = tail(item_ms)
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(mean_ms) / (sum(mean_ms) / 1e3),
        "item_p50_ms": statistics.median(best_ms),
        "item_tail_ms": tail_ms,
        "peak_rss_mb": rss,
    }
    return {
        "values": values,
        "attempted": sum(map(len, calls_ms)),
        "failures": failures,
        "notes": [
            f"{len(passes)} timed passes of {len(order)} calls over {len(w.items)} items"
            f" after one warm-up pass, {sum(map(sum, calls_ms)) / 1e3:.2f} s timed",
            f"item_tail_ms is p{p} of {len(item_ms)} item runs (Harrell-Davis)",
            f"setup_s is the median of {len(setups)} fresh processes: "
            + ", ".join(f"{s:.4f}" for s in setups),
        ],
    }


def report(result: dict, units: list[tuple[str, str]]) -> dict:
    """The result line: known-red failures count as failed but keep it correct."""
    failures = result["failures"]
    return {
        "correct": all(reason.startswith(wl.KNOWN_RED) for _, reason in failures),
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": result["values"][name], "unit": unit} for name, unit in units},
    }


# -------------------------------------------------------------- traced


def per_layer_specs(sizes: wl.Sizes = wl.FULL) -> list[tuple[str, str, str, tuple]]:
    """(name, unit, better, source) for every per-layer metric."""

    def timed(name: str, span: str, key: str | None) -> tuple:
        unit = name.split(".")[1].rsplit("_", 1)[1]  # "ms" or "us"
        return (name, unit, "lower", ("call_us" if unit == "us" else "item_ms", span, key))

    def gauge(name: str, unit: str) -> tuple:
        return (name, unit, "lower", ("gauge", name))

    specs = [
        timed("filters.validate_us", "filters.validate", None),
        timed("filters.cepstrum_ms", "filters.cepstrum", None),
        timed("sampling.sample_root_tuples_ms", "sampling.sample_root_tuples", None),
    ]
    for fn in ("kahler_potential", "inverse_metric", "alpha_connection", "alpha_ricci"):
        specs += [
            timed(f"closed_form.{fn}_ms.n{n}", f"closed_form.{fn}", f"n{n}")
            for n in sizes.geometry
        ]
    for fn in (
        "metric_numeric", "connection_numeric", "t_tensor_numeric", "ricci_numeric",
        "duality_check", "invariance_suite", "divergence",
    ):
        specs += [
            timed(f"quadrature.{fn}_ms.n{n}", f"quadrature.{fn}", f"n{n}") for n in sizes.oracle
        ]
    specs += [gauge(f"quadrature.oracle_residual.n{n}", "1") for n in sizes.oracle]
    for psi, shape in wl.PRIOR_CASES:
        key = wl.case_key(psi, shape)
        name = f"priors.check_superharmonic_ms.{key}"
        specs.append(timed(name, "priors.check_superharmonic", key))
    for psi in sorted({psi for psi, _ in wl.PRIOR_CASES}):
        specs.append(timed(f"priors.laplace_beltrami_us.{psi}", "priors.laplace_beltrami", psi))
    for n in sizes.serialization:
        name = "serialization.tensor_to_document"
        specs.append(timed(f"{name}_ms.n{n}", name, f"n{n}"))
        name = "serialization.dumps_report"
        specs.append(timed(f"{name}_ms.n{n}", name, f"tensors.n{n}"))
        specs.append(gauge(f"serialization.report_bytes.n{n}", "count"))
    specs += [gauge(f"cli.{p}_ms", "ms") for p in ("interpreter", "numpy_import", "package_import")]
    specs += [timed(f"cli.main_ms.{sub}", "cli.main", sub) for sub in wl.SUBCOMMANDS]
    specs += [
        (f"{layer}.self_share.{name}", "1", "lower", ("share", name, layer))
        for name, layers in SHARE_LAYERS.items()
        for layer in layers
    ]
    specs += [
        (f"trace_overhead_frac.{name}", "1", "lower", ("overhead", name))
        for name in OVERHEAD_WORKLOADS
    ]
    return specs


class TraceRun:
    """Spans and gauges of one traced run; each replayed item gets an id."""

    def __init__(self):
        self.tracer = Tracer()
        self.gauges: dict[str, float] = {}
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0

    def replay(self, label: str, replay) -> None:
        self.tracer.item += 1
        self.attempted += 1
        try:
            out = replay(self.tracer)
        except Exception as exc:  # a replay that raises counts as failed
            self.failures.append((label, f"replay raised {type(exc).__name__}: {exc}"))
            return
        if isinstance(out, dict):
            for name, value in out.items():
                self.gauges[name] = max(value, self.gauges.get(name, value))


def traced(seed: int, seconds: float, root: Path, sizes: wl.Sizes = wl.FULL) -> dict:
    """One traced run over every workload: untraced and traced passes in turn."""
    run = TraceRun()
    shares, overhead, notes = {}, {}, []
    for name in WORKLOADS:
        w = build(name, seed, root, sizes)
        try:
            verdicts: dict = {}
            one_pass(w, verdicts)  # warm-up; checks each item's first output
            untraced_ns, traced_ns, own_items = [], [], set()
            for _ in range(pass_count(name, seconds / (2 * len(WORKLOADS)))):
                times, failures = one_pass(w, verdicts)
                untraced_ns.append(sum(times))
                run.failures += failures
                run.attempted += len(times)
                start = perf_counter_ns()
                for item in w.items:
                    run.replay(f"{item.kind}.{item.key}", item.replay)
                    own_items.add(run.tracer.item)
                traced_ns.append(perf_counter_ns() - start)
            for label, step in w.traced_extras:
                run.replay(label, step)
        finally:
            w.close()
        shares[name] = layer_self_share(run.tracer.spans, sum(traced_ns), own_items)
        overhead[name] = min(traced_ns) / min(untraced_ns) - 1.0
        notes.append(
            f"{name}: {len(traced_ns)} traced and {len(untraced_ns)} untraced passes"
            f" x {len(w.items)} items"
        )
    spans = run.tracer.spans
    values = {}
    for metric, _, _, source in per_layer_specs(sizes):
        kind = source[0]
        if kind == "item_ms":
            value = median_item_ms(spans, source[1], source[2])
        elif kind == "call_us":
            value = median_call_us(spans, source[1], source[2])
        elif kind == "gauge":
            value = run.gauges.get(source[1])
        elif kind == "share":
            value = shares[source[1]][source[2]]
        else:
            value = overhead[source[1]]
        if value is None:
            raise RuntimeError(f"traced run produced no data for {metric}")
        values[metric] = value
    return {
        "values": values,
        "attempted": run.attempted,
        "failures": run.failures,
        "spans": run.tracer.records(),
        "notes": [*notes, f"{len(spans)} spans"],
    }
