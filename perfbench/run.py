"""cepgeo benchmark: one workload per run, measured from outside the library.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads: oracle, geometry, priors, cli, or ``all`` to run the
four one after another.  ``--trace 0`` reports the named workload's
end-to-end metrics.  ``--trace 1`` reports the per-layer table, which one
traced run over all four workloads makes whichever workload is named, and
writes its spans to ``perfbench/out/trace.json``.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oracle", "geometry", "priors", "cli")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_threads() -> None:
    """One BLAS thread, set before numpy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CEPGEO_THREADS"):
        os.environ[var] = "1"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, src)


def run_all(args) -> int:
    """Every workload in its own process; their results merged by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cepgeo").is_dir():
        print(f"no cepgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.trace:
        return run_all(args)
    pin_threads()
    import harness

    if args.setup_probe:
        w = harness.build(args.workload, args.seed, ROOT)
        try:
            w.items[0].run()
        finally:
            w.close()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    info = harness.machine()
    print(f"# machine: {json.dumps(info)}")
    if args.trace:
        result = harness.traced(args.seed, args.seconds, ROOT)
        specs = [(name, unit) for name, unit, _, _ in harness.per_layer_specs()]
        label, prefix = "traced", ""
    else:
        result = harness.measure(args.workload, args.seed, args.seconds, ROOT)
        specs = [(name, unit) for name, unit, _ in harness.END_TO_END]
        label, prefix = args.workload, f"{args.workload}."
    failures = result["failures"]
    attempted = result["attempted"]
    for note in result["notes"]:
        print(f"# {label}: {note}")
    for item, reason in sorted(set(failures)):
        count = failures.count((item, reason))
        print(f"#   {count} x {item}: {reason}")
    print(f"{label}.failed_frac = {len(failures) / attempted:.6g} 1"
          f" ({len(failures)} of {attempted})")
    for name, unit in specs:
        print(f"{prefix}{name} = {result['values'][name]:.6g} {unit}")
    if args.trace:
        out = ROOT / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        (out / "trace.json").write_text(json.dumps({
            "seed": args.seed, "machine": info,
            "per_layer": result["values"], "spans": result["spans"],
        }))
    print(json.dumps(harness.report(result, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
