import cmath
import json
import math
import re
import shlex
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cepgeo import filters
from cepgeo.cli import main
from cepgeo.closed_form import ModelPoint
from cepgeo.filters import FilterSpec, reciprocal, validate
from cepgeo.quadrature import NODES_DEFAULT, _nodes
from cepgeo.serialization import BAR

# sigma for which the transfer-function prefactor sigma^2/(2 pi) is exactly 1,
# i.e. the zeroth cepstrum coefficient vanishes
GAIN = filters.GAIN_TERM_UNIT
# the largest root modulus that validate accepts by default
MARGIN = 1.0 - filters.EPS_STAB_DEFAULT


def make_filter(poles=(), zeros=(), blaschke=(), z_power=0, gain=GAIN):
    return validate(
        FilterSpec(
            gain=gain,
            poles=tuple(poles),
            zeros=tuple(zeros),
            blaschke_points=tuple(blaschke),
            z_power=z_power,
        )
    )


def broken_reciprocal(kind):
    """``filters.reciprocal`` with one fault: a pole moved by 1e-3, a NaN zero or a pole too many."""

    def reciprocal_of(f):
        rec = reciprocal(f)
        if kind == "nudged":
            return replace(rec, poles=(rec.poles[0] + 1e-3, *rec.poles[1:]))
        if kind == "nan":
            return replace(rec, zeros=(complex(math.nan), *rec.zeros[1:]))
        assert kind == "extra-pole", kind
        return replace(rec, poles=(*rec.poles, 0.1))

    return reciprocal_of


def _moduli(top):
    """Moduli in [0, top], and log-uniform ones down to about 1e-300."""
    return st.one_of(st.floats(0.0, top), st.floats(-300.0, 0.0).map(lambda e: top * 10.0**e))


@st.composite
def schema_filters(draw):
    """Filters that validate accepts, drawn over the whole schema.

    Gain 10^U(-300, 300), |z_power| <= 1e20, up to three roots from about
    1e-300 out to the margin, and at most one Blaschke point.
    """
    polar = st.tuples(_moduli(MARGIN), st.floats(0.0, 1.0))
    root = polar.map(lambda rt: rt[0] * np.exp(2j * np.pi * rt[1])).filter(
        lambda x: abs(x) <= MARGIN  # r e^{i theta} can round past r
    )
    xi = draw(st.lists(st.tuples(root, st.booleans()), max_size=3))
    points = draw(st.lists(_moduli(1.0).filter(lambda r: r < 1.0), max_size=1))
    return FilterSpec(
        gain=10.0 ** draw(st.floats(-300.0, 300.0)),
        poles=tuple(x for x, pole in xi if pole),
        zeros=tuple(x for x, pole in xi if not pole),
        blaschke_points=tuple(r * np.exp(2.4j) for r in points),
        z_power=draw(st.integers(-(10**20), 10**20)),
    )


def replace_param(m, index, value):
    """The model point with coordinate ``index`` moved to ``value``."""
    params = list(m.params)
    params[index] = value
    return ModelPoint(tuple(params), m.signature)


def wirtinger_mixed_hessian(evaluate, m, step=1e-4):
    """Central-difference d_i d_jbar of a real evaluator at a ModelPoint.

    A test oracle for analytic mixed Hessians (priors, the potential, log det g).
    """
    n = m.n

    def at(shifts):
        pt = m
        for idx, dz in shifts.items():
            pt = replace_param(pt, idx, pt.params[idx] + dz)
        return evaluate(pt)

    hess = np.empty((n, n), dtype=complex)
    f0 = at({})
    for i in range(n):
        for j in range(n):
            if i == j:
                dxx = (at({i: step}) - 2 * f0 + at({i: -step})) / step**2
                dyy = (at({i: 1j * step}) - 2 * f0 + at({i: -1j * step})) / step**2
                # the i(dxdy - dydx) part vanishes for a single coordinate
                hess[i, i] = 0.25 * (dxx + dyy)
            else:

                def cross(d1, d2):
                    return (
                        at({i: d1, j: d2})
                        - at({i: d1, j: -d2})
                        - at({i: -d1, j: d2})
                        + at({i: -d1, j: -d2})
                    ) / (4.0 * step**2)

                dxx = cross(step, step)
                dyy = cross(1j * step, 1j * step)
                dxy = cross(step, 1j * step)
                dyx = cross(1j * step, step)
                hess[i, j] = 0.25 * ((dxx + dyy) + 1j * (dxy - dyx))
    return hess


def input_error(capsys, tmp_path, run):
    """(code, message) of the input error that ``run`` meets.

    A list is a CLI argv, whose non-string items are written as JSON files
    first; it must exit 2.  A callable is a library call that the CLI cannot
    reach; its exception gets the code the CLI would report.
    """
    if callable(run):
        with pytest.raises(ValueError) as exc_info:
            run()
        return getattr(exc_info.value, "code", "INVALID_INPUT"), str(exc_info.value)
    argv = []
    for k, item in enumerate(run):
        if not isinstance(item, str):
            path = tmp_path / f"input{k}.json"
            path.write_text(json.dumps(item))
            item = str(path)
        argv.append(item)
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    return error["code"], error["message"]


def peak_mib(fn):
    """The tracemalloc peak of ``fn()`` in MiB, counting only what it allocates, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1] / 2**20, result
    finally:
        tracemalloc.stop()


def gain_term(f):
    """The transfer function's prefactor sigma^2/(2 pi), formed here, not read from the library."""
    return f.gain * f.gain / (2.0 * math.pi)


def transfer_values(f, z):
    """h at an array of points, its factors multiplied out in complex arithmetic.

    The test suite's evaluator of the transfer function: the library forms
    only log|h|^2 on the circle, from logarithms of bounded products of its
    factors, and this checks it, the unimodular factors off the circle and
    their winding on it.
    """
    z = np.asarray(z, dtype=complex)
    h = np.full(z.shape, gain_term(f), dtype=complex)
    if f.z_power:
        h = h * z**f.z_power
    for zt in f.zeros:
        h = h * (1.0 - zt / z)
    for p in f.poles:
        h = h / (1.0 - p / z)
    for zs in f.blaschke_points:
        if zs == 0.0:
            h = h * z
        else:
            # |zs|/zs as a phase: exact modulus even for subnormal zs
            h = h * cmath.exp(-1j * cmath.phase(zs)) * (zs - z) / (1.0 - np.conj(zs) * z)
    return h


def cepstrum_fft(f, trunc):
    """Cepstrum coefficients phi_0..phi_N from an FFT of sampled log h.

    Samples log h as a sum of per-factor principal logarithms (each factor
    1 - root/z stays in the right half-plane, so no unwrapping is needed)
    and reads the z^{-r} coefficients off the inverse FFT.  Independent of
    the closed-form power sums in :func:`cepgeo.filters.cepstrum`.  Requires
    a winding-free log, i.e. no z power and no Blaschke factors.
    """
    if f.z_power or f.blaschke_points:
        raise ValueError("FFT cepstrum requires z_power == 0 and no Blaschke points")
    if trunc >= NODES_DEFAULT // 2:
        raise ValueError("truncation must be below half the node count")
    z = _nodes(NODES_DEFAULT, 0, NODES_DEFAULT)
    logh = np.full(NODES_DEFAULT, math.log(gain_term(f)), dtype=complex)
    for zt in f.zeros:
        logh += np.log(1.0 - zt / z)
    for p in f.poles:
        logh -= np.log(1.0 - p / z)
    return np.fft.ifft(logh)[: trunc + 1]


def parse_index(token):
    """(position, barred) of a tensor-document index token."""
    if isinstance(token, int):
        return token, False
    if isinstance(token, str) and token.endswith(BAR):
        return int(token[: -len(BAR)]), True
    raise ValueError(f"malformed tensor index {token!r}")


def parse_tensor_document(doc):
    """Dense arrays rebuilt from a tensor document, keyed by bar pattern."""
    n = len(doc["labels"])
    grouped = {}
    for entry in doc["entries"]:
        positions, bars = zip(*(parse_index(tok) for tok in entry["idx"]))
        pattern = tuple(bars)
        if pattern not in grouped:
            grouped[pattern] = np.zeros((n,) * len(pattern), dtype=complex)
        grouped[pattern][positions] = complex(entry["re"], entry["im"])
    return grouped


def mp_inverse_metric(mp, m):
    """High-precision B = g^{i jbar}, i.e. the inverse of the transposed metric."""
    xi = [mp.mpc(p) for p in m.params]
    c = m.signature
    g = mp.matrix(m.n, m.n)
    for i in range(m.n):
        for j in range(m.n):
            g[i, j] = c[i] * c[j] / (1 - xi[i] * mp.conj(xi[j]))
    return g.T**-1


def serial_root_tuples(
    seed_or_rng, samples, n, radius, min_separation=0.0, max_rejections=100_000
):
    """Reference sampler: one tuple per draw (n radii, then n angles), rejected one at a time.

    The loop ``sampling.sample_root_tuples`` must reproduce bitwise, with the
    generator left in the same state and the same rejection budget.
    """
    rng = np.random.default_rng(seed_or_rng)
    out = np.empty((samples, n), dtype=complex)
    filled = 0
    rejections = 0
    while filled < samples:
        r = radius * np.sqrt(rng.random(n))
        theta = 2.0 * np.pi * rng.random(n)
        cand = r * np.exp(1j * theta)
        if n > 1 and min_separation > 0.0:
            dist = np.abs(cand[:, None] - cand[None, :])
            np.fill_diagonal(dist, np.inf)
            if dist.min() < min_separation:
                rejections += 1
                if rejections > max_rejections:
                    raise ValueError("rejection sampling failed")
                continue
        out[filled] = cand
        filled += 1
    return out


def arma_from_roots(row, p):
    """Validated filter with the first p roots as poles, the rest as zeros."""
    row = tuple(row)
    return make_filter(poles=row[:p], zeros=row[p:])


@pytest.fixture
def ar1():
    return make_filter(poles=(0.5,))


@pytest.fixture
def arma11():
    return make_filter(poles=(0.5,), zeros=(0.3,))


def _readme_block(heading: str, language: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def readme_cli_argvs(tmp_path: Path) -> list[list[str]]:
    """The README's CLI lines, with each filter*.json written as its example ARMA(1,1) filter."""
    doc = _readme_block("### Filter JSON schema", "json")
    argvs = []
    for line in _readme_block("## CLI", "sh").splitlines():
        if not line.strip():
            continue
        argv = shlex.split(line)
        for k, arg in enumerate(argv):
            if re.fullmatch(r"filter\d*\.json", arg):
                argv[k] = str(tmp_path / arg)
                Path(argv[k]).write_text(doc)
        argvs.append(argv)
    return argvs
