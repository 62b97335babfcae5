"""The four workloads: inputs made from the seed, the timed calls, their checks.

Every workload is a fixed list of items.  An item is one call into the
library (``run``), a correctness check on its output that runs outside the
timed region (``check``), and a replay of the same work as the sequence of
public calls it is made of, each inside a span (``replay``).

A check returns None or the reason the item failed.  Reasons that start
with ``KNOWN_RED`` are defects of the program that the benchmark reports
without treating them as a fault of the run; see ``oracle_compare_check``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from cepgeo import cli, closed_form, filters, priors, quadrature, sampling, serialization
from cepgeo.closed_form import ModelPoint
from cepgeo.quadrature import QuadratureConfig
from spans import NullTracer

KNOWN_RED = "known-red: "

CFG = QuadratureConfig(nodes=4096)
ROOT_RADIUS = 0.9
ROOT_SEPARATION = 0.05
ORACLE_TOL = 1e-8  # acceptance criterion 1
DUALITY_ALPHA = 0.5
DUALITY_TOL = 1e-6
INVARIANCE_TOL = 1e-10
DIVERGENCE_ALPHAS = (-1.0, 0.0)
GEOMETRY_ALPHA = 0.5
GEOMETRY_ORACLE_MAX_N = 8
# Relative accuracy of the quadrature metric (observed: <= 3e-15).  Checks
# that invert or take the determinant of it amplify this by its condition
# number, so their tolerance grows with cond(g).
QUADRATURE_EPS = 1e-14
# A ricci0 miss is the known oracle defect only where cond(g) amplifies the
# quadrature error to within a tenth of the tolerance (observed: every miss
# has cond(g) >= 3e6, every n <= 4 filter cond(g) <= 1e4).
RICCI_COND_LIMIT = 0.1 * ORACLE_TOL / QUADRATURE_EPS
PRIOR_SAMPLES = 1000
PSI3_RATIO = -6.0  # acceptance criterion 2
PSI3_TOL = 1e-8
PRIOR_CASES = (
    ("psi1", (2, 0)),
    ("psi1", (1, 1)),
    ("psi2", (2, 0)),
    ("psi2", (1, 1)),
    ("psi3", (2, 0)),
)
# psi2 on ARMA(1,1) is not superharmonic (a property of the geometry): its
# violation count is data, checked only for exact repetition.
PRIOR_ZERO_VIOLATIONS = ("psi1-ar2", "psi1-arma11", "psi2-ar2", "psi3-ar2")
SUBCOMMANDS = (
    "validate",
    "cepstrum",
    "tensors",
    "divergence",
    "check-prior",
    "oracle-compare",
    "duality-check",
    "invariance-check",
)
SUBCOMMAND_TENSORS_N = 4  # the filter size of the subcommand mix's tensors command
# Items of a few milliseconds, at n up to the first number, run the second
# number of times in each timed pass, so that some of their ~100 runs in a
# 30-second run catch the machine at its faster speed.
LIGHT = {"oracle": (2, 16), "geometry": (8, 4)}


@dataclass(frozen=True)
class Sizes:
    """How much work each workload's item list holds."""

    oracle: tuple[int, ...] = (2, 4, 8, 16)
    geometry: tuple[int, ...] = (2, 4, 8, 16, 32)
    geometry_per_size: int = 4
    prior_calls_per_case: int = 4
    cli_tensors: tuple[int, ...] = (8, 16)

    @property
    def serialization(self) -> tuple[int, ...]:
        """Sizes of the cli workload's tensors reports."""
        return (SUBCOMMAND_TENSORS_N, *self.cli_tensors)


FULL = Sizes()


@dataclass
class Item:
    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    replay: Callable[[Any], dict[str, float] | None]
    repeats: int = 1  # runs in each timed pass


def repeats(workload: str, n: int) -> int:
    max_n, times = LIGHT[workload]
    return times if n <= max_n else 1


@dataclass
class Workload:
    name: str
    items: list[Item]
    inputs: list  # JSON description of every generated input
    workdir: Path | None = None
    # Steps made only by a traced run, after the items; each returns gauges.
    traced_extras: list[tuple[str, Callable[[Any], dict[str, float]]]] = field(
        default_factory=list
    )

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------- inputs


def workload_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, *name.encode()])


def draw_roots(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points uniform in the disk of radius 0.9, pairwise at least 0.05 apart.

    Drawn here rather than by ``sampling.sample_root_tuples`` so that a change
    to the library's sampler cannot change the benchmark's inputs.
    """
    while True:
        roots = ROOT_RADIUS * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        if n < 2:
            return roots
        dist = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(dist, np.inf)
        if dist.min() >= ROOT_SEPARATION:
            return roots


def arma_filter(roots: np.ndarray) -> filters.ValidatedFilter:
    """Unit-gain-term filter whose first ceil(n/2) roots are poles."""
    p = math.ceil(len(roots) / 2)
    return filters.validate(
        filters.FilterSpec(
            gain=filters.GAIN_TERM_UNIT, poles=tuple(roots[:p]), zeros=tuple(roots[p:])
        )
    )


def filter_document(roots: np.ndarray) -> dict:
    p = math.ceil(len(roots) / 2)
    pair = lambda z: {"re": float(z.real), "im": float(z.imag)}  # noqa: E731
    return {
        "gain": filters.GAIN_TERM_UNIT,
        "poles": [pair(z) for z in roots[:p]],
        "zeros": [pair(z) for z in roots[p:]],
    }


# --------------------------------------------------------------- helpers


def relative_residual(closed: np.ndarray, numeric: np.ndarray) -> float:
    scale = float(np.max(np.abs(numeric)))
    if scale == 0.0:
        return float(np.max(np.abs(closed)))
    return float(np.max(np.abs(closed - numeric)) / scale)


def replay_oracle_compare(t, f: filters.ValidatedFilter, key: str) -> dict[str, float]:
    """``cli.oracle_compare`` as its eight calls; returns the worst leg."""
    point = t.call("closed_form.ModelPoint.from_filter", key, ModelPoint.from_filter, f)
    legs = (
        (
            t.call("closed_form.metric", key, closed_form.metric, point).mixed,
            t.call("quadrature.metric_numeric", key, quadrature.metric_numeric, f, CFG).mixed,
        ),
        (
            t.call("closed_form.connection0", key, closed_form.connection0, point).gamma_mixed,
            t.call(
                "quadrature.connection_numeric", key, quadrature.connection_numeric, f, 0.0, CFG
            ).gamma_mixed,
        ),
        (
            t.call("closed_form.t_tensor", key, closed_form.t_tensor, point).t_mixed,
            t.call("quadrature.t_tensor_numeric", key, quadrature.t_tensor_numeric, f, CFG).t_mixed,
        ),
        (
            t.call("closed_form.ricci0", key, closed_form.ricci0, point).ricci,
            t.call("quadrature.ricci_numeric", key, quadrature.ricci_numeric, f, CFG),
        ),
    )
    worst = max(relative_residual(a, b) for a, b in legs)
    return {f"quadrature.oracle_residual.{key}": worst}


def single_call(name: str, key: str, fn, *args):
    def replay(t):
        t.call(name, key, fn, *args)

    return replay


# ---------------------------------------------------------------- oracle


def oracle_compare_check(f: filters.ValidatedFilter):
    def check(residuals: dict[str, float]) -> str | None:
        bad = {leg: v for leg, v in residuals.items() if leg != "max" and not v < ORACLE_TOL}
        if not bad:
            return None
        reason = ", ".join(f"{leg} residual {v:.2e}" for leg, v in bad.items())
        reason += f" not below {ORACLE_TOL:g}"
        if set(bad) == {"ricci0"}:
            cond = float(np.linalg.cond(quadrature.metric_numeric(f, CFG).mixed))
            reason += f" at cond(g) {cond:.1e}"
            if cond > RICCI_COND_LIMIT:
                # quadrature.ricci_numeric inverts this ill-conditioned numeric
                # metric with np.linalg.inv: the oracle, not the closed form, is off
                return KNOWN_RED + reason
        return reason

    return check


def duality_check_check(report) -> str | None:
    worst = max(report.duality_residual, report.reciprocal_residual)
    if worst < DUALITY_TOL:
        return None
    return (
        f"duality residual {report.duality_residual:.2e}, reciprocal residual "
        f"{report.reciprocal_residual:.2e}, not below {DUALITY_TOL:g}"
    )


def invariance_check(report) -> str | None:
    worst = report.max_metric_residual
    if worst < INVARIANCE_TOL:
        return None
    return f"metric residual {worst:.2e} not below {INVARIANCE_TOL:g}"


def divergence_check(value) -> str | None:
    ok = value.converged and math.isfinite(value.value)
    return None if ok else f"divergence not converged (residual {value.residual:.2e})"


def oracle_items(f: filters.ValidatedFilter, key: str, allpass) -> list[Item]:
    items = [
        Item(
            "oracle_compare",
            key,
            lambda: cli.oracle_compare(f, CFG),
            oracle_compare_check(f),
            lambda t: t.call("bench.oracle_compare", key, replay_oracle_compare, t, f, key),
        ),
        Item(
            "duality_check",
            key,
            lambda: quadrature.duality_check(f, DUALITY_ALPHA, CFG),
            duality_check_check,
            single_call(
                "quadrature.duality_check", key, quadrature.duality_check, f, DUALITY_ALPHA, CFG
            ),
        ),
        Item(
            "invariance_suite",
            key,
            lambda: quadrature.invariance_suite(f, CFG),
            invariance_check,
            single_call("quadrature.invariance_suite", key, quadrature.invariance_suite, f, CFG),
        ),
    ]
    for alpha in DIVERGENCE_ALPHAS:
        items.append(
            Item(
                "divergence",
                key,
                lambda alpha=alpha: quadrature.divergence(allpass, f, alpha, CFG),
                divergence_check,
                single_call(
                    "quadrature.divergence", key, quadrature.divergence, allpass, f, alpha, CFG
                ),
            )
        )
    return items


def build_oracle(seed: int, sizes: Sizes = FULL) -> Workload:
    rng = workload_rng(seed, "oracle")
    allpass = filters.validate(filters.FilterSpec(gain=filters.GAIN_TERM_UNIT))
    items, inputs = [], []
    for n in sizes.oracle:
        roots = draw_roots(rng, n)
        inputs.append(filter_document(roots))
        for item in oracle_items(arma_filter(roots), f"n{n}", allpass):
            item.repeats = repeats("oracle", n)
            items.append(item)
    return Workload("oracle", items, inputs)


# -------------------------------------------------------------- geometry

BUNDLE = (
    ("kahler_potential", closed_form.kahler_potential, False),
    ("metric", closed_form.metric, False),
    ("inverse_metric", closed_form.inverse_metric, False),
    ("metric_determinant", closed_form.metric_determinant, False),
    ("alpha_connection", closed_form.alpha_connection, True),
    ("alpha_ricci", closed_form.alpha_ricci, True),
)


def bundle(point: ModelPoint, alpha: float) -> tuple:
    """The six closed-form calls ``cepgeo tensors`` makes, without rendering."""
    return tuple(fn(point, alpha) if takes_alpha else fn(point) for _, fn, takes_alpha in BUNDLE)


def replay_bundle(t, point: ModelPoint, alpha: float, key: str) -> tuple:
    return tuple(
        t.call(f"closed_form.{name}", key, fn, point, *((alpha,) if takes_alpha else ()))
        for name, fn, takes_alpha in BUNDLE
    )


def geometry_check(f: filters.ValidatedFilter, alpha: float):
    n = f.dimension

    def check(result) -> str | None:
        potential, g, ginv, det, conn, curv = result
        problems = []
        if not (math.isfinite(det) and det > 0.0):
            problems.append(f"det g = {det!r} is not positive")
        ricci = curv.ricci
        asym = float(np.max(np.abs(ricci - ricci.conj().T)))
        if not asym <= 1e-12 * float(np.max(np.abs(ricci))):
            problems.append(f"Ricci block not Hermitian ({asym:.2e})")
        if not (math.isfinite(curv.scalar) and math.isfinite(potential.value)):
            problems.append("scalar curvature or potential not finite")
        if n <= GEOMETRY_ORACLE_MAX_N:
            g_num = quadrature.metric_numeric(f, CFG).mixed
            conn_num = quadrature.connection_numeric(f, alpha, CFG)
            t_num = quadrature.t_tensor_numeric(f, CFG).t_mixed
            families = ("gamma_mixed", "gamma_pure", "gamma_cross", "gamma_cross_bar")
            scale = max(float(np.max(np.abs(getattr(conn_num, k)))) for k in families)
            amplified = float(np.linalg.cond(g_num)) * QUADRATURE_EPS
            residuals = {
                "metric": (relative_residual(g.mixed, g_num), ORACLE_TOL),
                "inverse_metric": (
                    float(np.max(np.abs(ginv @ g_num.T - np.eye(n)))),
                    ORACLE_TOL + amplified,
                ),
                "metric_determinant": (
                    abs(det - float(np.linalg.det(g_num).real)) / det,
                    ORACLE_TOL + n * amplified,
                ),
                "t_tensor": (relative_residual(conn.t_mixed, t_num), ORACLE_TOL),
            }
            for k in families:
                diff = getattr(conn, k) - getattr(conn_num, k)
                residuals[k] = (float(np.max(np.abs(diff))) / scale, ORACLE_TOL)
            problems += [
                f"{name} differs from quadrature by {v:.2e} (tolerance {tol:.1e})"
                for name, (v, tol) in residuals.items()
                if not v < tol
            ]
        return "; ".join(problems) or None

    return check


def build_geometry(seed: int, sizes: Sizes = FULL) -> Workload:
    rng = workload_rng(seed, "geometry")
    items, inputs = [], []
    for n in sizes.geometry:
        for _ in range(sizes.geometry_per_size):
            roots = draw_roots(rng, n)
            inputs.append(filter_document(roots))
            f = arma_filter(roots)
            point = ModelPoint.from_filter(f)
            key = f"n{n}"
            items.append(
                Item(
                    "bundle",
                    key,
                    lambda point=point: bundle(point, GEOMETRY_ALPHA),
                    geometry_check(f, GEOMETRY_ALPHA),
                    lambda t, point=point, key=key: t.call(
                        "bench.bundle", key, replay_bundle, t, point, GEOMETRY_ALPHA, key
                    ),
                    repeats("geometry", n),
                )
            )
    return Workload("geometry", items, inputs)


# ---------------------------------------------------------------- priors


def case_key(psi: str, shape: tuple[int, int]) -> str:
    return f"{psi}-{'ar2' if shape == (2, 0) else 'arma11'}"


def prior_values(t, psi_name: str, psi, shape, seed: int):
    """``check_superharmonic``'s sampling and per-point Laplace-Beltrami calls,
    made one by one, as its check recounts them and its replay times them."""
    tuples = t.call(
        "sampling.sample_root_tuples",
        "",
        sampling.sample_root_tuples,
        seed,
        PRIOR_SAMPLES,
        sum(shape),
        1.0 - filters.EPS_STAB_DEFAULT,
        priors.REJECT_RADIUS_DEFAULT,
    )
    signature = (-1,) * shape[0] + (1,) * shape[1]
    points = [
        t.call("closed_form.ModelPoint", "", ModelPoint, tuple(row), signature) for row in tuples
    ]
    values = np.array(
        [
            t.call("priors.laplace_beltrami", psi_name, priors.laplace_beltrami, psi, p)
            for p in points
        ]
    )
    return points, values


def prior_check(psi_name: str, psi, shape, seed: int):
    key = case_key(psi_name, shape)

    def check(report) -> str | None:
        if report.samples != PRIOR_SAMPLES:
            return f"report covers {report.samples} samples, not {PRIOR_SAMPLES}"
        if key in PRIOR_ZERO_VIOLATIONS and report.violations != 0:
            return f"{report.violations} superharmonicity violations"
        if psi_name == "psi3" or key not in PRIOR_ZERO_VIOLATIONS:
            points, values = prior_values(NullTracer(), psi_name, psi, shape, seed)
            recount = int(np.sum(values > 0.0))
            if recount != report.violations or float(values.max()) != report.worst_value:
                return f"violations {report.violations} do not repeat (recount {recount})"
            if psi_name == "psi3":
                ratio = values / np.array([psi.evaluate(p) for p in points])
                worst = float(np.max(np.abs(ratio - PSI3_RATIO)))
                if not worst < PSI3_TOL:
                    return f"Delta psi3 / psi3 is off -6 by {worst:.2e}"
        return None

    return check


def prior_item(psi_name: str, shape, seed: int) -> Item:
    psi = priors.BUILTINS[psi_name](n=2)
    key = case_key(psi_name, shape)
    return Item(
        "check_superharmonic",
        key,
        lambda: priors.check_superharmonic(psi, shape, PRIOR_SAMPLES, seed),
        prior_check(psi_name, psi, shape, seed),
        lambda t: replay_prior(t, key, psi_name, psi, shape, seed),
    )


def replay_prior(t, key: str, psi_name: str, psi, shape, seed: int) -> None:
    """The call itself, then the same work again as the public calls it makes."""
    t.call(
        "priors.check_superharmonic",
        key,
        priors.check_superharmonic,
        psi,
        shape,
        PRIOR_SAMPLES,
        seed,
    )
    t.call("bench.prior_values", key, prior_values, t, psi_name, psi, shape, seed)


def build_priors(seed: int, sizes: Sizes = FULL) -> Workload:
    rng = workload_rng(seed, "priors")
    items, inputs = [], []
    for _ in range(sizes.prior_calls_per_case):
        for psi_name, shape in PRIOR_CASES:
            call_seed = int(rng.integers(2**31))
            inputs.append([psi_name, list(shape), call_seed])
            items.append(prior_item(psi_name, shape, call_seed))
    return Workload("priors", items, inputs)


# ------------------------------------------------------------------- cli

HOL, BAR = cli.HOL, cli.BAR


def tensor_documents(t, labels, alpha, g, ginv, conn, curv, key) -> None:
    """The five ``tensor_to_document`` calls of a tensors report."""
    to_doc = serialization.tensor_to_document
    name = "serialization.tensor_to_document"
    t.call(name, key, to_doc, labels, None, [(g.mixed, (HOL, BAR)), (g.pure, (HOL, HOL))])
    t.call(name, key, to_doc, labels, None, [(ginv, (HOL, BAR))])
    t.call(
        name,
        key,
        to_doc,
        labels,
        alpha,
        [
            (conn.gamma_mixed, (HOL, HOL, BAR)),
            (conn.gamma_pure, (HOL, HOL, HOL)),
            (conn.gamma_cross, (HOL, BAR, HOL)),
            (conn.gamma_cross_bar, (HOL, BAR, BAR)),
        ],
    )
    t_blocks = [(conn.t_mixed, (HOL, HOL, BAR)), (conn.t_pure, (HOL, HOL, HOL))]
    t.call(name, key, to_doc, labels, None, t_blocks)
    t.call(name, key, to_doc, labels, alpha, [(curv.ricci, (HOL, BAR))])


def cli_in_process(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def run_process(argv: list[str], env: dict, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=120)


@dataclass
class CliCase:
    """One ``python -m cepgeo`` command and the calls its report is made of."""

    sub: str
    args: list[str]
    key: str
    compute: Callable[[Any, list], None]
    main: bool = True  # whether the replay also times the in-process cli.main call


def tensors_compute(t, fs: list, key: str) -> None:
    point = ModelPoint.from_filter(fs[0])
    potential, g, ginv, det, conn, curv = replay_bundle(t, point, 0.0, key)
    tensor_documents(t, point.labels, 0.0, g, ginv, conn, curv, key)


def tensors_case(paths: dict[str, str], n: int, main: bool = True) -> CliCase:
    return CliCase("tensors", [paths[f"n{n}"]], f"n{n}", tensors_compute, main)


def subcommand_cases(paths: dict[str, str], prior_seed: int) -> list[CliCase]:
    """One command per subcommand, on filters with n <= 4."""
    cfg = QuadratureConfig()
    psi1 = priors.BUILTINS["psi1"](n=2)
    prior_args = ["--psi", "psi1", "--model", "ar:2", "--samples", str(PRIOR_SAMPLES)]
    return [
        CliCase("validate", [paths["n3"]], "n3", lambda t, fs, key: None),
        CliCase(
            "cepstrum",
            [paths["n3"]],
            "n3",
            lambda t, fs, key: t.call("filters.cepstrum", key, filters.cepstrum, fs[0]),
        ),
        tensors_case(paths, SUBCOMMAND_TENSORS_N),
        CliCase(
            "divergence",
            [paths["n2"], paths["n3"]],
            "n3",
            lambda t, fs, key: t.call(
                "quadrature.divergence", key, quadrature.divergence, fs[0], fs[1], 0.0, cfg, 1e-9
            ),
        ),
        CliCase(
            "check-prior",
            [*prior_args, "--seed", str(prior_seed)],
            "psi1-ar2",
            lambda t, fs, key: t.call(
                "priors.check_superharmonic",
                key,
                priors.check_superharmonic,
                psi1,
                (2, 0),
                PRIOR_SAMPLES,
                prior_seed,
            ),
        ),
        CliCase(
            "oracle-compare",
            [paths["n4"]],
            "n4",
            lambda t, fs, key: replay_oracle_compare(t, fs[0], key),
        ),
        CliCase(
            "duality-check",
            [paths["n4"]],
            "n4",
            lambda t, fs, key: t.call(
                "quadrature.duality_check", key, quadrature.duality_check, fs[0], DUALITY_ALPHA, cfg
            ),
        ),
        CliCase(
            "invariance-check",
            [paths["n4"]],
            "n4",
            lambda t, fs, key: t.call(
                "quadrature.invariance_suite", key, quadrature.invariance_suite, fs[0], cfg
            ),
        ),
    ]


class CliRunner:
    """Runs commands in cold processes and keeps their in-process references."""

    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env
        self.references: dict[tuple[str, ...], tuple[int, bytes]] = {}

    def run(self, argv: list[str]) -> tuple[int, bytes]:
        proc = run_process([sys.executable, "-m", "cepgeo", *argv], self.env, self.root)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return proc.returncode, proc.stdout

    def reference(self, argv: list[str]) -> tuple[int, bytes]:
        if tuple(argv) not in self.references:
            self.references[tuple(argv)] = cli_in_process(argv)
        return self.references[tuple(argv)]

    def check(self, argv: list[str]):
        def check(result) -> str | None:
            code, stdout = result
            if code != 0:
                return f"exit code {code}"
            try:
                doc = json.loads(stdout)
            except ValueError as exc:
                return f"stdout is not JSON: {exc}"
            if doc.get("passed", True) is not True:
                return "report says passed: false"
            if (code, stdout) != self.reference(argv):
                return "stdout differs from the in-process cli.main report"
            return None

        return check

    def replay(self, case: CliCase):
        """Cold start-up, then the command's calls made in this process."""
        argv = [case.sub, *case.args]

        def replay(t) -> dict[str, float]:
            t.call(
                "cli.startup",
                "",
                run_process,
                [sys.executable, "-c", "import cepgeo.cli"],
                self.env,
                self.root,
            )
            paths = [a for a in case.args if a.endswith(".json")]
            specs = [
                t.call("serialization.load_filter", case.key, serialization.load_filter, p)
                for p in paths
            ]
            fs = [t.call("filters.validate", case.key, filters.validate, s) for s in specs]
            case.compute(t, fs, case.key)
            if case.main:
                stdout = t.call("cli.main", case.sub, cli_in_process, argv)[1]
            else:
                stdout = self.reference(argv)[1]
            text = t.call(
                "serialization.dumps_report",
                f"{case.sub}.{case.key}",
                serialization.dumps_report,
                json.loads(stdout),
            )
            if case.sub != "tensors":
                return {}
            return {f"serialization.report_bytes.{case.key}": float(len(text) + 1)}

        return lambda t: t.call("bench.cli_command", case.key, replay, t)

    def item(self, case: CliCase) -> Item:
        argv = [case.sub, *case.args]
        return Item(case.sub, case.key, lambda: self.run(argv), self.check(argv), self.replay(case))


def build_cli(seed: int, root: Path, env: dict, sizes: Sizes = FULL) -> Workload:
    rng = workload_rng(seed, "cli")
    workdir = root / "perfbench" / "out" / f"work-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    dims = sorted({2, 3, 4, *sizes.cli_tensors})
    roots = {f"n{n}": draw_roots(rng, n) for n in dims}
    prior_seed = int(rng.integers(2**31))
    paths = {}
    for name, r in roots.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(filter_document(r)))
        paths[name] = str(path)
    runner = CliRunner(root, env)
    subcommands = subcommand_cases(paths, prior_seed)
    tensors = [tensors_case(paths, n, main=False) for n in sizes.cli_tensors]
    inputs = [{k: filter_document(r) for k, r in roots.items()}, prior_seed]
    return Workload(
        "cli",
        [runner.item(c) for c in subcommands + tensors],
        inputs,
        workdir,
        [("cli.startup_split", lambda t: startup_split(runner))],
    )


IMPORT_TIMES = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import cepgeo.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def startup_split(runner: CliRunner, repeats: int = 5) -> dict[str, float]:
    """Cold-process start-up: bare interpreter, numpy import, package import.

    The interpreter is timed from outside a ``python -c pass`` process; the
    two imports are timed inside a fresh process, one after the other.
    """
    interpreter, numpy_import, package_import = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        run_process([sys.executable, "-c", "pass"], runner.env, runner.root)
        interpreter.append(time.perf_counter() - start)
        proc = run_process([sys.executable, "-c", IMPORT_TIMES], runner.env, runner.root)
        numpy_s, package_s = map(float, proc.stdout.split())
        numpy_import.append(numpy_s)
        package_import.append(package_s)
    return {
        "cli.interpreter_ms": statistics.median(interpreter) * 1e3,
        "cli.numpy_import_ms": statistics.median(numpy_import) * 1e3,
        "cli.package_import_ms": statistics.median(package_import) * 1e3,
    }
