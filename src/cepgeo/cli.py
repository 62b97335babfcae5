"""Command-line front end.

One binary, subcommand style; reports go to stdout as deterministic JSON
(or ``--format table`` for human reading, ``--out`` for a file).  Exit
codes: 0 success, 2 validation or input error (a size too large to
allocate included), 3 when ``--strict`` turns warnings or failed tolerance
checks into an error.  An ``--out`` that cannot be written exits 2 too,
with the JSON error report on stdout.

A cold start imports only what every subcommand needs (argparse,
:mod:`~cepgeo.filters`, :mod:`~cepgeo.serialization`, but not numpy); each
command imports the modules it runs.  ``validate`` loads nothing more, not
even numpy (``NUMPY_FREE_COMMANDS`` names it), ``cepstrum`` loads numpy,
``tensors`` loads :mod:`~cepgeo.closed_form`, ``check-prior`` loads
:mod:`~cepgeo.priors` (with ``closed_form`` and ``sampling``), and the four
quadrature commands load :mod:`~cepgeo.quadrature`; ``oracle-compare`` and
``invariance-check`` load ``closed_form`` too, ``divergence`` and
``duality-check`` do not.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from typing import TYPE_CHECKING

from . import filters, serialization

if TYPE_CHECKING:  # for annotations; each command imports the modules it runs
    import numpy as np

    from .quadrature import QuadratureConfig

HOL = False
BAR = True
# quadrature.NODES_DEFAULT and sorted(priors.BUILTINS), held here so that
# building the parser imports neither module; a test keeps them equal
_NODES_DEFAULT = 4096
_PSI_CHOICES = ("psi1", "psi2", "psi3")
# the subcommands that run no numpy code, so the entry point does not import it for them
NUMPY_FREE_COMMANDS = frozenset({"validate"})


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    common.add_argument("--out", help="write the report to a file instead of stdout")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 when warnings are raised or a tolerance check fails",
    )
    common.add_argument("--eps-stab", type=float, default=filters.EPS_STAB_DEFAULT)

    parser = argparse.ArgumentParser(
        prog="cepgeo",
        description=(
            "Information geometry of minimum-phase filters: cepstrum, metric, "
            "connections, curvature, divergences, and prior checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check stability and minimum phase")
    p.add_argument("input")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("cepstrum", parents=[common], help="complex-cepstrum series of a filter")
    p.add_argument("input")
    p.add_argument("--trunc", type=int, default=filters.TRUNCATION_DEFAULT)
    p.set_defaults(run=_cmd_cepstrum)

    p = sub.add_parser(
        "tensors", parents=[common], help="closed-form geometry at the filter's coordinates"
    )
    p.add_argument("input")
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(run=_cmd_tensors)

    p = sub.add_parser("divergence", parents=[common], help="alpha-divergence between two filters")
    p.add_argument("input")
    p.add_argument("input2")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--nodes", type=int, default=_NODES_DEFAULT)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(run=_cmd_divergence)

    p = sub.add_parser("check-prior", parents=[common], help="sampled superharmonicity check")
    p.add_argument("--psi", choices=_PSI_CHOICES, required=True)
    p.add_argument("--model", required=True, help="shape like ar:2 or ar:1,ma:1")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_check_prior)

    p = sub.add_parser("oracle-compare", parents=[common], help="closed forms against quadrature")
    p.add_argument("input")
    p.add_argument("--nodes", type=int, default=_NODES_DEFAULT)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(run=_cmd_oracle_compare)

    p = sub.add_parser(
        "duality-check",
        parents=[common],
        help="alpha-duality and reciprocal-swap residuals",
        description="Residuals of the alpha-duality identity, which is metric compatibility and "
        "the same at every alpha, and of the reciprocal filter's pole/zero swap, by quadrature.",
    )
    p.add_argument("input")
    p.add_argument("--nodes", type=int, default=_NODES_DEFAULT)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(run=_cmd_duality_check)

    p = sub.add_parser(
        "invariance-check", parents=[common], help="residuals under unimodular factors"
    )
    p.add_argument("input")
    p.add_argument("--nodes", type=int, default=_NODES_DEFAULT)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(run=_cmd_invariance_check)

    return parser


def _parse_model_shape(text: str) -> tuple[int, int]:
    counts = {}
    for token in text.split(","):
        token = token.strip().lower()
        if ":" not in token:
            raise ValueError(f"malformed model token {token!r}; expected ar:p or ma:q")
        kind, _, count = token.partition(":")
        if kind not in ("ar", "ma"):
            raise ValueError(f"unknown model kind {kind!r}")
        if kind in counts:
            raise ValueError(f"model kind {kind!r} given more than once in {text!r}")
        counts[kind] = int(count)
    p, q = counts.get("ar", 0), counts.get("ma", 0)
    if p < 0 or q < 0 or p + q == 0:
        raise ValueError(f"model shape must have at least one coordinate, got {text!r}")
    return p, q


def _load_validated(args, path: str) -> filters.ValidatedFilter:
    return filters.validate(serialization.load_filter(path), args.eps_stab)


def _cmd_validate(args) -> dict:
    f = _load_validated(args, args.input)
    return {
        "valid": True,
        "dimension": f.dimension,
        "signature": list(f.signature),
        "labels": list(f.labels),
        "has_exact_cancellation": f.has_exact_cancellation,
        "eps_stab": args.eps_stab,
    }


def _cmd_cepstrum(args) -> dict:
    f = _load_validated(args, args.input)
    series = filters.cepstrum(f, args.trunc)
    return {
        "truncation": series.truncation,
        "phi0": serialization.complex_to_json(series.phi0),
        "coeffs": [serialization.complex_to_json(c) for c in series.coeffs],
        "blaschke_coeffs": [serialization.complex_to_json(b) for b in series.blaschke_coeffs],
        "tail_bound": series.tail_bound,
    }


def _cmd_tensors(args) -> dict:
    from . import closed_form

    f = _load_validated(args, args.input)
    point = closed_form.ModelPoint.from_filter(f)
    potential = closed_form.kahler_potential(point)
    g = closed_form.metric(point)
    conn = closed_form.alpha_connection(point, args.alpha)
    curv = closed_form.alpha_ricci(point, args.alpha)  # with g^{i jbar}
    labels = point.labels
    return {
        "alpha": args.alpha,
        "labels": list(labels),
        "potential": {"value": potential.value},
        "metric": serialization.tensor_to_document(
            labels, None, [(g.mixed, (HOL, BAR)), (g.pure, (HOL, HOL))]
        ),
        "inverse_metric": serialization.tensor_to_document(
            labels, None, [(curv.inverse, (HOL, BAR))]
        ),
        "metric_determinant": closed_form.metric_determinant(point),
        "connection": serialization.tensor_to_document(
            labels,
            args.alpha,
            [
                (conn.gamma_mixed, (HOL, HOL, BAR)),
                (conn.gamma_pure, (HOL, HOL, HOL)),
                (conn.gamma_cross, (HOL, BAR, HOL)),
                (conn.gamma_cross_bar, (HOL, BAR, BAR)),
            ],
        ),
        "t_tensor": serialization.tensor_to_document(
            labels, None, [(conn.t_mixed, (HOL, HOL, BAR)), (conn.t_pure, (HOL, HOL, HOL))]
        ),
        "ricci": serialization.tensor_to_document(labels, args.alpha, [(curv.ricci, (HOL, BAR))]),
        "scalar_curvature": curv.scalar,
    }


def _cmd_divergence(args) -> dict:
    from . import quadrature

    f1 = _load_validated(args, args.input)
    f2 = _load_validated(args, args.input2)
    cfg = quadrature.QuadratureConfig(nodes=args.nodes)
    result = quadrature.divergence(f1, f2, args.alpha, cfg, tol=args.tol)
    return dataclasses.asdict(result)


def _cmd_check_prior(args) -> dict:
    from . import priors

    shape = _parse_model_shape(args.model)
    psi = priors.BUILTINS[args.psi](n=shape[0] + shape[1])
    report = priors.check_superharmonic(psi, shape, args.samples, args.seed, args.eps_stab)
    head = {"psi": report.psi, "model": args.model}  # psi, model lead
    return {**head, **dataclasses.asdict(report)}


def _passed(residuals, tol: float) -> bool:
    """Whether every residual is below ``tol``; np.max, unlike max(), keeps a NaN."""
    import numpy as np

    return bool(np.max(list(residuals)) < tol)


def _relative_residual(closed: np.ndarray, numeric: np.ndarray) -> float:
    import numpy as np

    scale = float(np.max(np.abs(numeric), initial=0.0))
    return float(np.max(np.abs(closed - numeric), initial=0.0) / (scale or 1.0))


def oracle_compare(f: filters.ValidatedFilter, cfg: QuadratureConfig) -> dict[str, float]:
    """Max-norm relative residuals of each closed form against one quadrature sample."""
    import numpy as np

    from . import closed_form, quadrature

    point = closed_form.ModelPoint.from_filter(f)
    g, gamma, t, ricci = quadrature.oracle_tensors(f, cfg)
    conn = closed_form.alpha_connection(point, 0.0)  # Gamma^0 and T
    with warnings.catch_warnings():  # the report holds no scalar curvature
        warnings.simplefilter("ignore", closed_form.ScalarCancellationWarning)
        ricci0 = closed_form.alpha_ricci(point, 0.0).ricci
    residuals = {
        "metric": _relative_residual(closed_form.metric(point).mixed, g),
        "connection0": _relative_residual(conn.gamma_mixed, gamma),
        "t_tensor": _relative_residual(conn.t_mixed, t),
        "ricci0": _relative_residual(ricci0, ricci),
    }
    residuals["max"] = float(np.max(list(residuals.values())))  # np.max, unlike max(), keeps a NaN
    return residuals


def _cmd_oracle_compare(args) -> dict:
    from . import quadrature

    f = _load_validated(args, args.input)
    residuals = oracle_compare(f, quadrature.QuadratureConfig(nodes=args.nodes))
    return {
        "nodes": args.nodes,
        "tol": args.tol,
        "residuals": residuals,
        "passed": _passed(residuals.values(), args.tol),
    }


def _cmd_duality_check(args) -> dict:
    from . import quadrature

    f = _load_validated(args, args.input)
    cfg = quadrature.QuadratureConfig(nodes=args.nodes)
    report = quadrature.duality_check(f, 0.0, cfg)  # alpha is not read
    return {
        **dataclasses.asdict(report),
        "tol": args.tol,
        "passed": _passed([report.duality_residual, report.reciprocal_residual], args.tol),
    }


def _cmd_invariance_check(args) -> dict:
    from . import quadrature

    f = _load_validated(args, args.input)
    report = quadrature.invariance_suite(f, quadrature.QuadratureConfig(nodes=args.nodes))
    legs = dataclasses.asdict(report)
    reflection = legs["outer_reflection"] or {}
    residuals = [legs["z_power_sdf_residual"], legs["blaschke_sdf_residual"], *reflection.values()]
    return {
        **legs,
        "max_metric_residual": report.max_metric_residual,
        "tol": args.tol,
        "passed": _passed(residuals, args.tol),
    }


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if not 0.0 < getattr(args, "tol", 1.0) < math.inf:  # checked before any work
                raise ValueError(f"--tol must be finite and > 0, got {args.tol!r}")
            if not math.isfinite(getattr(args, "alpha", 0.0)):
                raise ValueError(f"--alpha must be finite, got {args.alpha!r}")
            report = {"command": args.command, **args.run(args)}
            if caught:
                report["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
            # rendered here, so a value JSON cannot hold (inf, nan) is an input error
            if args.format == "table":
                text = serialization.render_table(report)
            else:
                text = serialization.dumps_report(report) + "\n"
            _emit(args, text)
        except (OSError, ValueError, MemoryError) as exc:  # a size too large to allocate
            # FilterError and closed_form's CoincidentRootsError carry their code on the class
            code = getattr(type(exc), "code", "INVALID_INPUT")
            error = {"code": code, "message": str(exc)}
            text = serialization.dumps_report({"command": args.command, "error": error}) + "\n"
            try:
                _emit(args, text)
            except OSError:  # an --out that cannot be written
                sys.stdout.write(text)
            return 2
    if args.strict and (caught or report.get("passed") is False):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
