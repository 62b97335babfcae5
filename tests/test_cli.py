import cmath
import dataclasses
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import cepgeo
from cepgeo import cli, closed_form, priors, quadrature
from cepgeo.cli import BAR, HOL, main, oracle_compare
from cepgeo.filters import FilterSpec, _RootViolation, reciprocal, validate
from cepgeo.sampling import sample_root_tuples
from cepgeo.serialization import (
    complex_from_json,
    complex_to_json,
    dumps_report,
    tensor_to_document,
)

from conftest import (
    _readme_block,
    broken_reciprocal,
    input_error,
    parse_tensor_document,
    readme_cli_argvs,
    schema_filters,
)

GAIN_UNIT = math.sqrt(2.0 * math.pi)

AR1_DOC = {
    "gain": GAIN_UNIT,
    "poles": [{"re": 0.5, "im": 0.0}],
    "zeros": [],
    "blaschke": [],
    "z_power": 0,
}


@pytest.fixture
def ar1_path(tmp_path):
    path = tmp_path / "ar1.json"
    path.write_text(json.dumps(AR1_DOC))
    return str(path)


@pytest.fixture
def empty_path(tmp_path):
    # no poles or zeros: a zero-dimensional model
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"gain": GAIN_UNIT}))
    return str(path)


@pytest.fixture
def arma_path(tmp_path):
    doc = dict(AR1_DOC, zeros=[{"re": 0.3, "im": 0.0}])
    path = tmp_path / "arma.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _roots_document(tmp_path, roots):
    """A filter file whose first half of ``roots`` are poles, the rest zeros."""
    p = len(roots) // 2
    doc = {
        "gain": GAIN_UNIT,
        "poles": [complex_to_json(z) for z in roots[:p]],
        "zeros": [complex_to_json(z) for z in roots[p:]],
    }
    path = tmp_path / f"roots{len(roots)}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidateCommand:
    def test_valid_filter(self, capsys, ar1_path):
        code, report = run_json(capsys, ["validate", ar1_path])
        assert code == 0
        assert report["valid"] is True
        assert report["dimension"] == 1
        assert report["signature"] == [-1]

    def test_pole_outside_disk_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"gain": 1.0, "poles": [{"re": 1.0, "im": 0.0}]}))
        code, report = run_json(capsys, ["validate", str(path)])
        assert code == 2
        assert report["error"]["code"] == "POLE_OUTSIDE_DISK"

    @pytest.mark.parametrize(
        "root, eps, code",
        [
            ({"poles": [{"re": 1.0, "im": 0.0}]}, "1e-300", "INVALID_INPUT"),
            ({"zeros": [{"re": 0.0, "im": 1.0}]}, "1e-300", "INVALID_INPUT"),
            ({"poles": [{"re": 1.0, "im": 0.0}]}, "1e-16", "POLE_OUTSIDE_DISK"),
            ({"zeros": [{"re": 0.0, "im": 1.0}]}, "1e-16", "ZERO_ON_CIRCLE"),
        ],
    )
    def test_root_on_circle_exits_2_at_the_smallest_margins(self, capsys, tmp_path, root, eps, code):
        # at 1e-300, 1 - eps_stab rounds to 1 and the margin would let the root pass
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"gain": 1.0, **root}))
        exit_code, report = run_json(capsys, ["validate", str(path), "--eps-stab", eps])
        assert exit_code == 2
        assert report["error"]["code"] == code

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, report = run_json(capsys, ["validate", str(tmp_path / "absent.json")])
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"

    @pytest.mark.parametrize("out", ["absent/r.json", "."], ids=["missing-dir", "a-directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, ar1_path, out):
        code, report = run_json(capsys, ["validate", ar1_path, "--out", str(tmp_path / out)])
        assert code == 2
        assert report["command"] == "validate"
        assert report["error"]["code"] == "INVALID_INPUT"

    def test_error_report_with_unwritable_out_goes_to_stdout(self, capsys, tmp_path):
        argv = ["validate", str(tmp_path / "absent.json"), "--out", str(tmp_path / "absent/r.json")]
        code, report = run_json(capsys, argv)
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"
        assert "absent.json" in report["error"]["message"]

    def test_unknown_document_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(dict(AR1_DOC, extra=1)))
        code, report = run_json(capsys, ["validate", str(path)])
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"

    def test_unknown_flag_is_an_error(self, ar1_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["validate", "--frobnicate", ar1_path])
        assert exc_info.value.code == 2


def test_validate_and_tensors_share_labels(capsys, arma_path):
    _, validated = run_json(capsys, ["validate", arma_path])
    _, tensors = run_json(capsys, ["tensors", arma_path])
    assert validated["labels"] == tensors["labels"] == ["pole0", "zero1"]


class TestTensorsCommand:
    def test_ar1_anchor_values(self, capsys, ar1_path):
        code, report = run_json(capsys, ["tensors", "--alpha", "0", ar1_path])
        assert code == 0
        metric_doc = parse_tensor_document(report["metric"])
        assert metric_doc[(False, True)][0, 0] == pytest.approx(4.0 / 3.0, rel=1e-11)
        conn_doc = parse_tensor_document(report["connection"])
        assert conn_doc[(False, False, True)][0, 0, 0] == pytest.approx(8.0 / 9.0, rel=1e-11)
        ricci_doc = parse_tensor_document(report["ricci"])
        assert ricci_doc[(False, True)][0, 0] == pytest.approx(-16.0 / 9.0, rel=1e-11)
        assert report["scalar_curvature"] == pytest.approx(-4.0 / 3.0, rel=1e-11)
        assert report["potential"]["value"] == pytest.approx(0.267652639083, rel=1e-11)
        assert report["metric_determinant"] == pytest.approx(4.0 / 3.0, rel=1e-11)

    def test_t_tensor_matches_quadrature_sign(self, capsys, ar1_path):
        code, report = run_json(capsys, ["tensors", ar1_path])
        t_doc = parse_tensor_document(report["t_tensor"])
        assert t_doc[(False, False, True)][0, 0, 0] == pytest.approx(16.0 / 9.0, rel=1e-11)

    def test_deterministic_output(self, tmp_path, ar1_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["tensors", "--alpha", "0.5", "--out", str(out1), ar1_path]) == 0
        assert main(["tensors", "--alpha", "0.5", "--out", str(out2), ar1_path]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_potential_is_one_exact_value(self, capsys, arma_path):
        code, report = run_json(capsys, ["tensors", arma_path])
        assert code == 0
        assert list(report["potential"]) == ["value"]
        # Li2(0.25) - 2 Li2(0.15) + Li2(0.09) for pole 0.5, zero 0.3
        assert report["potential"]["value"] == pytest.approx(0.0476929238236, rel=1e-11)

    def test_trunc_flag_is_rejected(self, arma_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["tensors", arma_path, "--trunc", "4"])
        assert exc_info.value.code == 2

    def test_near_coincident_roots_warn_once(self, capsys, tmp_path):
        # g^{i jbar} comes from the one curvature call and det g from
        # metric_determinant, which does not warn, so the nearly singular
        # metric is reported once
        poles = (0.5, 0.5 + 1e-12)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"gain": GAIN_UNIT, "poles": list(map(complex_to_json, poles))}))
        code, report = run_json(capsys, ["tensors", str(path)])
        assert code == 0
        assert [w.split(":")[0] for w in report["warnings"]] == ["CoincidentRootsWarning"]
        point = closed_form.ModelPoint(poles, (-1, -1))
        with pytest.warns(closed_form.CoincidentRootsWarning):
            ginv = closed_form.inverse_metric(point)
        with pytest.warns(closed_form.CoincidentRootsWarning):
            curv = closed_form.alpha_ricci(point, 0.0)
        assert np.array_equal(curv.inverse, ginv)
        direct = {
            "inverse_metric": tensor_to_document(point.labels, None, [(ginv, (HOL, BAR))]),
            "metric_determinant": closed_form.metric_determinant(point),
        }
        assert json.loads(dumps_report(direct)) == {k: report[k] for k in direct}

    def test_determinant_is_metric_determinant(self, capsys, monkeypatch, ar1_path):
        # det g has one path; the curvature report holds none
        calls = []

        def determinant(point):
            calls.append(point)
            return 0.125

        monkeypatch.setattr(closed_form, "metric_determinant", determinant)
        code, report = run_json(capsys, ["tensors", ar1_path])
        assert code == 0
        assert report["metric_determinant"] == 0.125
        assert calls == [closed_form.ModelPoint((0.5,), (-1,))]

    def test_one_signature_scalar(self, capsys, tmp_path):
        # 50-digit mpmath: -142.5167667...; the contraction printed -145.089
        poles = sample_root_tuples(1, 1, 16, 0.5, 0.05)[0]
        path = tmp_path / "ar16.json"
        path.write_text(json.dumps({"gain": GAIN_UNIT, "poles": list(map(complex_to_json, poles))}))
        code, report = run_json(capsys, ["tensors", str(path)])
        assert code == 0
        assert report["scalar_curvature"] == -142.516766742
        assert "warnings" not in report

    def test_determinant_below_the_double_range_warns(self, capsys, tmp_path):
        # 30-digit det g is about 1.56e-406; the printed 0.0 is not a coincidence
        path = _roots_document(tmp_path, list(sample_root_tuples(1, 1, 32, 0.5, 0.02)[0]))
        code, report = run_json(capsys, ["tensors", path])
        assert code == 0
        assert report["metric_determinant"] == 0.0
        assert [w.split(":")[0] for w in report["warnings"]] == ["DeterminantUnderflowWarning"]
        assert main(["tensors", path, "--strict"]) == 3

    def test_cancelled_scalar_warns(self, capsys, tmp_path):
        # two poles 1e-7 apart: the contracted scalar is off by 6.3e-4 (50-digit mpmath)
        path = _roots_document(tmp_path, [0.5, 0.5 + 1e-7, -0.3 + 0.2j, 0.1 - 0.4j])
        code, report = run_json(capsys, ["tensors", path])
        assert code == 0
        assert report["warnings"] == [
            "ScalarCancellationWarning: the contracted scalar curvature cancelled; "
            "it may be off by about 3.1e-03 relative"
        ]
        assert main(["tensors", path, "--strict", "--out", os.devnull]) == 3
        # oracle-compare reads only the Ricci block, so it does not warn of the scalar
        code, report = run_json(capsys, ["oracle-compare", path])
        assert "warnings" not in report

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "roots, alpha",
        [
            pytest.param(None, "0", id="spiral-alpha0"),
            pytest.param([0j, 0.5 + 0.2j, -0.4j], "0", id="origin-alpha0"),
            pytest.param([0j, 0.5 + 0.2j, -0.4j], "0.5", id="origin-alpha0.5"),
        ],
    )
    def test_no_negative_zeros(self, capsys, tmp_path, roots, alpha, fmt):
        # -0.0 * T takes on T's signs at alpha = 0, and a root at the origin
        # zeroes T's entries along its axis
        path = _spiral_document(tmp_path, 8) if roots is None else _roots_document(tmp_path, roots)
        assert main(["tensors", path, "--alpha", alpha, "--format", fmt]) == 0
        text = capsys.readouterr().out
        assert re.search(r"(?<![\w.])-0(\.0)?(?![\d.e])", text) is None
        if fmt == "json":
            floats = []
            json.loads(text, parse_float=lambda x: floats.append(float(x)) or 0.0)
            assert not any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in floats)
            assert 0.0 in floats

    def test_report_round_trips_through_schema(self, capsys, arma_path):
        code, report = run_json(capsys, ["tensors", "--alpha", "1", arma_path])
        assert code == 0
        reparsed = json.loads(json.dumps(report))
        for key in ("metric", "inverse_metric", "connection", "t_tensor", "ricci"):
            blocks = parse_tensor_document(reparsed[key])
            assert all(np.all(np.isfinite(b)) for b in blocks.values())


class TestDivergenceCommand:
    def test_zero_alpha_value(self, capsys, tmp_path, ar1_path):
        allpass = tmp_path / "allpass.json"
        allpass.write_text(json.dumps({"gain": GAIN_UNIT}))
        code, report = run_json(
            capsys, ["divergence", str(allpass), ar1_path, "--alpha", "0"]
        )
        assert code == 0
        li2 = sum(0.25**r / r**2 for r in range(1, 201))
        assert report["value"] == pytest.approx(li2, rel=1e-10)
        assert report["converged"] is True
        # z^3 and a Blaschke factor have modulus 1 on the circle: the same density
        unimodular = tmp_path / "unimodular.json"
        unimodular.write_text(json.dumps(dict(AR1_DOC, blaschke=[{"re": 0.99, "im": 0.0}], z_power=3)))
        for alpha in ("-1", "0", "0.5"):
            argv = ["divergence", ar1_path, str(unimodular), f"--alpha={alpha}"]
            code, report = run_json(capsys, argv)
            assert code == 0
            assert (report["value"], report["residual"], report["converged"]) == (0.0, 0.0, True)

    @pytest.mark.parametrize("alpha", ["1e-20", "1e-200"])
    def test_tiny_alpha_gives_the_alpha_zero_value(self, capsys, tmp_path, alpha):
        # alpha^2 is 1e-40 and, at 1e-200, underflows to 0
        allpass = tmp_path / "allpass.json"
        allpass.write_text(json.dumps({"gain": GAIN_UNIT}))
        argv = ["divergence", str(allpass), _spiral_document(tmp_path, 16), "--alpha"]
        _, zero = run_json(capsys, [*argv, "0"])
        code, report = run_json(capsys, [*argv, alpha])
        assert code == 0
        assert report["value"] == zero["value"] == pytest.approx(0.147622907997, rel=1e-11)
        assert report["converged"] is True

    def test_exact_large_value_is_converged_under_strict(self, capsys, tmp_path):
        # the same roots, so the log-ratio is constant and the value exact;
        # with the gain read as 4 ln sigma the even and odd means agree
        # (they were one ulp apart, 2^-11 at 3.3e12, when S was |h|^2)
        poles = [{"re": 0.11116909275259879, "im": -0.4434926446978287}]
        poles.append({"re": 0.4991337740771772, "im": -0.0311357561434481})
        paths = []
        for gain in (0.13522522678922877, 123644.82404924255):
            paths.append(tmp_path / f"{gain}.json")
            paths[-1].write_text(json.dumps({"gain": gain, "poles": poles}))
        argv = ["divergence", *map(str, paths), "--alpha", "0.5", "--strict"]
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report == {
            "command": "divergence",
            "alpha": 0.5,
            "value": 3344232292010.0,
            "residual": 0.0,
            "converged": True,
        }


# sha256 of whole reports: a change of kernel must not move one digit.
# Recorded with numpy 2.4 on x86-64 with AVX2 and FMA.
CHECK_PRIOR_DIGESTS = {
    ("psi2", "ar:2", 7): "4c39addb508520fd09576915224e9cc94b41670686647861f41dd3aa3b5877f2",
    ("psi2", "ar:1,ma:1", 5): "2819d51fa8b93ac2a5aeee883c94e9abec75d893681d8a41f515572529541930",
    ("psi3", "ar:2", 9): "eaf886dce87f8d5fdcddde78602fdbad5e9ffbf905a575e7e823ee9664bcbaa8",
    ("psi1", "ar:1,ma:1", 3): "38d2cd23bea18d0fcfc7b1443024f1a5466a1fc9129ded5c65ad12c1171cc526",
}
# keyed by (n, --alpha); alpha 0.5 pins the alpha terms of the connection
# and Ricci blocks, alpha 0 the 0.0 written for the -0.0 * T cross families;
# n = 1 and 7, recorded before T became one broadcast product, pin odd n
# n = 2 and 8 at alpha -1 and 2 were recorded before each connection family
# became one expression of T
TENSORS_DIGESTS = {
    (1, None): "c6e93b8017ff7117d830bd5a1905cb2211c12a18ed6d1faa514984fc002755fd",
    (1, "0.5"): "25b3220fff7930e9caa804f4448ce64f34f841624ad83b614c52a44fbbec1039",
    (7, None): "6ea44fb3de5fc72ff1db1454f6a6ff0952198ac1b3213bc129fac2facccdd2f7",
    (7, "0.5"): "e04c3a58c82b0d63656b139659565b4b63df0251d2f7f28e12515997913b7135",
    (4, None): "50db68e013152958af83f4d64db3e176a450a3456f63a54a19e70769216095b1",
    (8, None): "9723f00d1bf3f5f860f600a366d50717ae9486cdd9c83d055a4fff6e79ee315d",
    (16, None): "fe09b17a045dbf4b77c60f9fac819182a7c610c4ea0e6a18f13ff4273bb84e86",
    (32, None): "35b6026b0cb937cd1f23baf122d39ae1e4fce2f5036a6c64590b9bb17b344fd2",
    (8, "0.5"): "5bcc159987bc8d26c6bfc467c40bc1e05d3caf0db3f794255844cf936fdc75fb",
    (32, "0.5"): "7999cc60bf019737402492c1e0045d6e97e4e2f91fb64377479dbe82d6d6cbe2",
    (2, "-1"): "7c21899a6120f6a1fe1219c90ea20476a798e77a5e560aa20b646c2057d23657",
    (2, "2"): "0d3b861a04e15d334b41cbcc9e7ddc6ae77223809a0aaf4ac742cd67f285b6fc",
    (8, "-1"): "96b3cd7a341022d2002e621cfe09a782e51a35b63af152adcacb57a733bbcc6f",
    (8, "2"): "8d8b34838f520880f9d393cc328c414eff62d450853c4a9689db80ee6e0e4c8e",
}
# duality-check keyed by n; recorded again when the check came to compare
# only the two moved rows of each derivative and lost --alpha: the reports
# lost their alpha key, reciprocal_residual went to 0.0 (from 1e-16 to 5e-16)
# and duality_residual moved in its eighth digit (n = 4: 4.26341942145e-09
# -> 4.2634191463e-09)
DUALITY_DIGESTS = {
    4: "0691f5a89822c9b9ee9ac4e4e76fb187ed23250d85120faf174ac5af2cbeeacf",
    16: "7baacad0b5d705fb966bb60ea3e7656c5432ca7f819dd0533109802c4e1cb6f4",
    32: "4234e246521264db93375731d87682fd159520c7486bad95b49728aa4af50da2",
}
# divergence from the all-pass filter to the n = 16 filter, keyed by --alpha;
# -1 recorded again when the integrand became l^2 phi(alpha l): only its
# residual moved (2.78e-17 -> 0.0, doubling noise)
DIVERGENCE_DIGESTS = {
    "-1": "04eeb4063d05d5c9cad04a2dfde4981ac0904452ffc047b83916ecc6669b5aec",
    "0": "21ceadd6171434c7fbf15194c981616ba01296f49550d80eec35d82794f69dec",
}
# oracle-compare keyed by n: closed forms against one quadrature sample
# n = 16 recorded again when the metric diagonal came to read the factor
# matrix: its metric residual moved 7.96099297593e-16 -> 1.70592706627e-16
ORACLE_DIGESTS = {
    4: "6defa3b38fc437a8bb68bd9d5635eb556aa693bd7e88f5eb1456dce4610d3601",
    16: "9fb0b4216d2e9cff7e6692c121816aae15e069e4967126219fa42a18fdac874d",
}
# invariance-check keyed by n; recorded again when the identity leg and the
# z_power and blaschke metric legs left the report (every value that stayed
# kept its bits), and n = 16 again when the metric's sample blocks were sized
# as if every root carried d^2 log h (its reflection metric_residual moved
# 3.5527136788e-15 -> 3.10862446895e-15, rounding); both again when S came
# to be read as a sum of log-moduli: only the three sdf residuals moved, each
# down (n = 4: z_power 1.97e-15 -> 1.11e-15, blaschke 1.14e-15 -> 8.88e-16,
# reflection 2.57e-15 -> 1.33e-15; n = 16: 2.35e-15 -> 1.11e-15,
# 1.16e-15 -> 8.88e-16, 5.16e-15 -> 3.11e-15); both again when log S lost its
# ln|z|^2 term, which is 0 on the circle: only the z_power sdf residual moved,
# 1.11022302463e-15 -> 0.0 in both; both again when the z_power leg and the
# duplicate max_metric_residual left the report, the reflection's metric
# residual became its coordinate residual (1.11022302463e-16 in both) and its
# sdf_floor was added: the blaschke and reflection sdf residuals kept their bits;
# both again when the blaschke leg left the report: its key was the only
# change, the reflection's three values kept their bits; n = 4 again when log S
# came to take one logarithm per group of roots: only its sdf residual moved,
# 1.33226762955e-15 -> 1.55431223448e-15 (n = 16 kept every byte)
INVARIANCE_DIGESTS = {
    4: "dff111a8ce91a775887d10675f71f6d1825e80969129e419a33368c93d15192c",
    16: "3cf84f63c79da1fe778470b8687d4f254ba06f9ad3f3fde5be5f29c76554f6be",
}


# the library call each checking command reads its residuals from, and every residual it reports
RESIDUAL_SOURCES = {
    "oracle-compare": (cli, "oracle_compare"),
    "duality-check": (quadrature, "duality_check"),
    "invariance-check": (quadrature, "invariance_suite"),
}
REPORTED_RESIDUALS = [
    *[("oracle-compare", key) for key in ("metric", "connection0", "t_tensor", "ricci0", "max")],
    ("duality-check", "duality_residual"),
    ("duality-check", "reciprocal_residual"),
    ("invariance-check", "outer_reflection.coordinate_residual"),
    ("invariance-check", "outer_reflection.sdf_residual"),
]


def _with_residual(record, name, value):
    """``record`` with the residual ``name`` (dotted for a nested leg) set to ``value``."""
    head, _, rest = name.partition(".")
    if isinstance(record, dict):
        return {**record, head: value}
    inner = _with_residual(getattr(record, head), rest, value) if rest else value
    return dataclasses.replace(record, **{head: inner})


def _spiral_document(tmp_path, n):
    """A filter of n roots on a spiral from radius 0.3 to 0.9."""
    return _roots_document(tmp_path, [(0.3 + 0.6 * k / n) * cmath.exp(2.4j * k) for k in range(n)])


def _digest(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _child_env():
    # the child process imports the same cepgeo as this one, installed or not
    src = os.path.dirname(os.path.dirname(cepgeo.__file__))
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=path_var)


def _child_json(code):
    """What a fresh process running ``code`` prints, read as JSON."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _modules_after(argv):
    """Every module a fresh process holds once ``main(argv)`` has written its report."""
    return _child_json(
        "import json, os, sys; from cepgeo.cli import main; "
        f"assert main({argv!r} + ['--out', os.devnull]) == 0; "
        "print(json.dumps(sorted(sys.modules)))"
    )


CHECK_PRIOR_ARGV = (
    "check-prior", "--psi", "psi2", "--model", "ar:1,ma:1", "--samples", "200", "--seed", "1"
)
# the cepgeo modules, and numpy, that a cold start of each subcommand never
# imports; "{f}" is a filter file
NEVER_LOADED = {
    ("validate", "{f}"): {"numpy", "closed_form", "quadrature", "priors", "sampling"},
    ("cepstrum", "{f}"): {"closed_form", "quadrature", "priors", "sampling"},
    ("tensors", "{f}"): {"quadrature", "priors", "sampling"},
    CHECK_PRIOR_ARGV: {"quadrature"},
    ("divergence", "{f}", "{f}"): {"closed_form", "priors", "sampling"},
    ("oracle-compare", "{f}"): {"priors", "sampling"},
    ("duality-check", "{f}"): {"closed_form", "priors", "sampling"},
    ("invariance-check", "{f}"): {"closed_form", "priors", "sampling"},
}


class TestPinnedReports:
    @pytest.mark.parametrize("psi, model, seed", sorted(CHECK_PRIOR_DIGESTS))
    def test_check_prior_bytes(self, tmp_path, psi, model, seed):
        argv = ["check-prior", "--psi", psi, "--model", model, "--samples", "1000", "--seed", str(seed)]
        assert _digest(argv, tmp_path) == CHECK_PRIOR_DIGESTS[psi, model, seed]

    @pytest.mark.parametrize(
        "n, alpha",
        [pytest.param(n, a, id=f"{n}-alpha{a}" if a else str(n)) for n, a in TENSORS_DIGESTS],
    )
    def test_tensors_bytes(self, tmp_path, n, alpha):
        flags = ["--alpha", alpha] if alpha else []
        argv = ["tensors", _spiral_document(tmp_path, n), *flags]
        assert _digest(argv, tmp_path) == TENSORS_DIGESTS[n, alpha]

    @pytest.mark.parametrize("n", sorted(DUALITY_DIGESTS))
    def test_duality_check_bytes(self, tmp_path, n):
        argv = ["duality-check", _spiral_document(tmp_path, n)]
        assert _digest(argv, tmp_path) == DUALITY_DIGESTS[n]

    @pytest.mark.parametrize("alpha", sorted(DIVERGENCE_DIGESTS))
    def test_divergence_bytes(self, tmp_path, alpha):
        allpass = tmp_path / "allpass.json"
        allpass.write_text(json.dumps({"gain": GAIN_UNIT}))
        argv = ["divergence", str(allpass), _spiral_document(tmp_path, 16), "--alpha", alpha]
        assert _digest(argv, tmp_path) == DIVERGENCE_DIGESTS[alpha]

    @pytest.mark.parametrize("n", sorted(ORACLE_DIGESTS))
    def test_oracle_compare_bytes(self, tmp_path, n):
        argv = ["oracle-compare", _spiral_document(tmp_path, n)]
        assert _digest(argv, tmp_path) == ORACLE_DIGESTS[n]

    @pytest.mark.parametrize("n", sorted(INVARIANCE_DIGESTS))
    def test_invariance_check_bytes(self, tmp_path, n):
        argv = ["invariance-check", _spiral_document(tmp_path, n)]
        assert _digest(argv, tmp_path) == INVARIANCE_DIGESTS[n]


class TestCheckPriorCommand:
    def test_psi1_ar2(self, capsys):
        code, report = run_json(
            capsys,
            ["check-prior", "--psi", "psi1", "--model", "ar:2", "--samples", "100", "--seed", "1"],
        )
        assert code == 0
        assert report["violations"] == 0
        assert report["samples"] == 100
        assert report["signature"] == [-1, -1]

    def test_arma_shape_parses(self, capsys):
        code, report = run_json(
            capsys,
            ["check-prior", "--psi", "psi1", "--model", "ar:1,ma:1", "--samples", "50", "--seed", "1"],
        )
        assert code == 0
        assert report["signature"] == [-1, 1]

    def test_leaves_numpy_ma_unimported(self):
        # np.percentile would import numpy.ma through np.unique
        assert "numpy.ma" not in _modules_after(list(CHECK_PRIOR_ARGV))

    def test_bad_model_shape(self, capsys):
        code, report = run_json(
            capsys, ["check-prior", "--psi", "psi1", "--model", "arma:2", "--samples", "10", "--seed", "1"]
        )
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"

    @pytest.mark.parametrize("model", ["ar:1", "ar:2,ma:2", "ar:3"])
    def test_psi3_off_two_coordinates_exits_2(self, capsys, model):
        code, report = run_json(
            capsys, ["check-prior", "--psi", "psi3", "--model", model, "--samples", "10", "--seed", "1"]
        )
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"
        assert "two coordinates" in report["error"]["message"]

    @pytest.mark.parametrize("model", ["ar:2,ar:1", "ma:1,ar:1,ma:1", "ar:1,AR:1"])
    def test_repeated_model_kind_exits_2(self, capsys, model):
        code, report = run_json(
            capsys, ["check-prior", "--psi", "psi1", "--model", model, "--samples", "10"]
        )
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"
        assert "more than once" in report["error"]["message"]

    @pytest.mark.parametrize("eps", ["2", "-1", "0", "1"])
    def test_eps_stab_outside_unit_interval_exits_2(self, capsys, eps):
        code, report = run_json(
            capsys,
            ["check-prior", "--psi", "psi1", "--model", "ar:2", "--samples", "10", "--eps-stab", eps],
        )
        assert code == 2
        assert report["error"] == {
            "code": "INVALID_INPUT",
            "message": f"eps_stab must be in (0, 1), got {float(eps)!r}",
        }


class TestOracleCompareCommand:
    def test_ar1_passes_default_tolerance(self, capsys, arma_path):
        code, report = run_json(capsys, ["oracle-compare", arma_path, "--nodes", "4096"])
        assert code == 0
        assert report["passed"] is True
        assert report["residuals"]["max"] < 1e-8

    def test_strict_escalates_failed_tolerance(self, capsys, arma_path):
        code, report = run_json(
            capsys, ["oracle-compare", arma_path, "--tol", "1e-20", "--strict"]
        )
        assert code == 3
        assert report["passed"] is False

    def test_empty_filter_passes_with_zero_residuals(self, capsys, empty_path):
        code, report = run_json(capsys, ["oracle-compare", empty_path])
        assert code == 0
        assert report["passed"] is True
        assert set(report["residuals"].values()) == {0.0}

    def test_unconverged_legs_warn_in_order(self, capsys, tmp_path):
        # a pole at 0.995 needs far more than 4096 nodes
        path = tmp_path / "slow.json"
        pair = lambda z: {"re": z.real, "im": z.imag}  # noqa: E731
        doc = {
            "gain": GAIN_UNIT,
            "poles": [pair(0.995), pair(-0.3 + 0.4j)],
            "zeros": [pair(0.5 - 0.2j), pair(-0.6 - 0.1j)],
        }
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, ["oracle-compare", str(path)])
        assert code == 0
        assert report["passed"] is False
        legs = [w.split(": ")[1] for w in report["warnings"]]
        assert legs == ["metric", "connection", "t_tensor"]

    def test_one_sample_and_one_triple_per_half(self, monkeypatch):
        f = validate(FilterSpec(gain=1.0, poles=(0.5, -0.2 + 0.3j), zeros=(0.1j,)))
        cfg = quadrature.QuadratureConfig(nodes=1024)
        sample, means, grids, widths, moments = quadrature._sample, quadrature._grid_means, [], [], []

        def counted(blocks, log):
            for block in blocks:
                log.append(block.shape[1])
                yield block

        def logged_sample(roots, signs, nodes, conj=0, second=0):
            grids.extend(nodes)
            return [counted(blocks, widths) for blocks in sample(roots, signs, nodes, conj, second)]

        def logged_means(blocks, n, products=(), third=(), ricci=False):
            seen = []
            out = means(counted(blocks, seen), n, products, third, ricci)
            moments.append((third, [t.shape for t in out[1]], sum(seen)))
            return out

        monkeypatch.setattr(quadrature, "_sample", logged_sample)
        monkeypatch.setattr(quadrature, "_grid_means", logged_means)
        oracle_compare(f, cfg)
        # each node of the doubled grid sampled once, even half first; then
        # one accumulation of the mixed third moment alone over each half
        assert grids == [(2048, 0, 2), (2048, 1, 2)]
        assert sum(widths) == 2048
        assert moments == [(("dc",), [(3, 3, 3)], 1024)] * 2

    def test_nan_leg_reaches_the_max(self, monkeypatch):
        # ricci0 is the last leg, which the builtin max() would drop
        f = validate(FilterSpec(gain=1.0, poles=(0.5, -0.2 + 0.3j), zeros=(0.1j,)))
        tensors = quadrature.oracle_tensors

        def nan_ricci(f, cfg):
            g, gamma, t, ricci = tensors(f, cfg)
            ricci = ricci.copy()
            ricci[0, 1] = np.nan
            return g, gamma, t, ricci

        monkeypatch.setattr(quadrature, "oracle_tensors", nan_ricci)
        residuals = oracle_compare(f, quadrature.QuadratureConfig(nodes=1024))
        assert residuals["metric"] < 1e-8
        assert np.isnan(residuals["ricci0"])
        assert np.isnan(residuals["max"])

    def test_n16_filter_passes(self, capsys, tmp_path):
        # the Gram-inverse Ricci oracle missed this filter by 1.2e-4
        path = _roots_document(tmp_path, sample_root_tuples(16, 1, 16, 0.9, 0.05)[0])
        code, report = run_json(capsys, ["oracle-compare", path])
        assert code == 0
        assert report["passed"] is True
        assert report["residuals"]["ricci0"] < 1e-8

    @pytest.mark.parametrize("row", [1, 7])
    def test_n32_is_accurate_or_fails(self, capsys, tmp_path, row):
        # row 1 is within the tolerance, row 7 misses it by far
        path = _roots_document(tmp_path, sample_root_tuples(16, 8, 32, 0.9, 0.05)[row])
        code, report = run_json(capsys, ["oracle-compare", path])
        assert code == 0
        assert report["residuals"]["ricci0"] <= 1e-8 or report["passed"] is False


class TestOtherChecks:
    def test_duality_check(self, capsys, arma_path):
        code, report = run_json(capsys, ["duality-check", arma_path])
        assert code == 0
        assert report["passed"] is True
        assert report["duality_residual"] < 1e-6
        assert report["reciprocal_residual"] == 0.0

    def test_duality_check_takes_no_alpha(self, capsys, arma_path):
        # the identity is the same at every alpha
        with pytest.raises(SystemExit) as exc_info:
            main(["duality-check", arma_path, "--alpha", "0.5"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --alpha 0.5" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["unswapped", "reversed"])
    def test_a_broken_reciprocal_fails_the_swap(self, capsys, monkeypatch, tmp_path, broken):
        def reciprocal_of(f):
            if broken == "unswapped":
                return f
            rec = reciprocal(f)
            spec = dataclasses.replace(rec.to_spec(), poles=rec.poles[::-1], zeros=rec.zeros[::-1])
            return validate(spec, rec.eps_stab)

        monkeypatch.setattr(quadrature, "reciprocal", reciprocal_of)
        path = _roots_document(tmp_path, sample_root_tuples(14, 1, 4, 0.9, 0.05)[0])
        code, report = run_json(capsys, ["duality-check", path])
        assert code == 0
        assert report["reciprocal_residual"] > 1e-3
        assert report["duality_residual"] < 1e-6
        assert report["passed"] is False

    @pytest.mark.parametrize("kind", ["nan", "extra-pole"])
    def test_a_non_finite_swap_residual_fails(self, capsys, monkeypatch, arma_path, kind):
        monkeypatch.setattr(quadrature, "reciprocal", broken_reciprocal(kind))
        args = cli._build_parser().parse_args(["duality-check", arma_path])
        assert args.run(args)["passed"] is False
        # JSON cannot hold the residual, so the command exits 2 and says where it sits
        code, report = run_json(capsys, ["duality-check", arma_path])
        assert code == 2
        assert report["error"]["code"] == "NON_FINITE_VALUE"
        assert report["error"]["message"].endswith("(at '/reciprocal_residual')")

    def test_duality_check_on_empty_filter(self, capsys, empty_path):
        code, report = run_json(capsys, ["duality-check", empty_path])
        assert code == 0
        assert report["passed"] is True
        assert report["duality_residual"] == report["reciprocal_residual"] == 0.0

    def test_duality_check_with_a_blaschke_point(self, capsys, tmp_path):
        # neither leg reads the Blaschke factors, which move no coordinate
        doc = {
            "gain": 2.5066282746310002,
            "poles": [complex_to_json(0.5 + 0.1j), complex_to_json(-0.3 + 0.4j)],
            "zeros": [complex_to_json(0.2 - 0.6j)],
            "z_power": 2,
        }
        reports = []
        for blaschke in ([complex_to_json(0.3)], []):
            path = tmp_path / "f.json"
            path.write_text(json.dumps(dict(doc, blaschke=blaschke)))
            code, report = run_json(capsys, ["duality-check", str(path)])
            assert code == 0, report
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["passed"] is True

    @pytest.mark.parametrize(
        "root, code, message",
        [
            (
                {"poles": [{"re": 0.5, "im": 0.0}, {"re": 0.999995, "im": 0.0}]},
                "POLE_OUTSIDE_DISK",
                "poles must lie strictly inside the unit disk: poles[1] has modulus 1.00001 "
                "after the duality check's step xi -> xi + h, h = 1e-05",
            ),
            (
                {"zeros": [{"re": 0.3, "im": 0.0}, {"re": 0.0, "im": 0.999995}]},
                "ZERO_OUTSIDE_DISK",
                "zeros outside the unit disk (filter is not minimum phase): "
                "zeros[1] has modulus 1.00001 "
                "after the duality check's step xi -> xi + ih, h = 1e-05",
            ),
        ],
        ids=["pole", "zero"],
    )
    def test_duality_check_steps_stay_in_the_margin(self, capsys, tmp_path, root, code, message):
        # valid itself, but one Wirtinger step of 1e-5 moves the root past the circle
        argv = ["duality-check", dict(root, gain=GAIN_UNIT)]
        assert input_error(capsys, tmp_path, argv) == (code, message)

    @pytest.mark.parametrize(
        "model, message",
        [
            ("ar", "malformed model token 'ar'; expected ar:p or ma:q"),
            ("ar:0", "model shape must have at least one coordinate, got 'ar:0'"),
        ],
    )
    def test_malformed_model_exits_2(self, capsys, tmp_path, model, message):
        argv = ["check-prior", "--psi", "psi1", "--model", model, "--samples", "10"]
        assert input_error(capsys, tmp_path, argv) == ("INVALID_INPUT", message)

    @pytest.mark.parametrize(
        "doc",
        [{"poles": [{"re": 0.5, "im": 0.0}]}, {"zeros": [{"re": 0.0, "im": 0.0}]}],
        ids=["no-zero", "zero-at-origin"],
    )
    def test_invariance_check_without_a_zero_to_reflect(self, capsys, tmp_path, doc):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(dict(doc, gain=GAIN_UNIT)))
        code, report = run_json(capsys, ["invariance-check", str(path)])
        assert code == 0
        assert report["outer_reflection"] is None
        assert report["passed"] is True

    def test_invariance_check(self, capsys, arma_path):
        code, report = run_json(capsys, ["invariance-check", arma_path])
        assert code == 0
        assert report["passed"] is True
        assert "identity" not in report
        assert report["outer_reflection"]["coordinate_residual"] < 1e-10

    def test_invariance_check_with_a_zero_on_the_margin(self, capsys, tmp_path):
        # |zeta| = 1 - eps_stab, where reflecting the zero out and back rounds into the band
        zero = {"re": -0.47842060155740035, "im": -0.8781296760766345}
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"gain": GAIN_UNIT, "zeros": [zero]}))
        assert run_json(capsys, ["validate", str(path)])[0] == 0
        code, report = run_json(capsys, ["invariance-check", str(path)])
        assert code == 0
        assert report["outer_reflection"] is None

    @pytest.mark.parametrize(
        "zero",
        # on the angle of a node of the 1024-node sdf grid, and alone at 1 - 1e-6
        [math.nextafter(1.0 - 1e-6, 0.0) * cmath.exp(2j * math.pi * 889 / 1024), 1.0 - 1e-6],
        ids=["on-a-node", "lone"],
    )
    def test_invariance_check_passes_beside_the_circle(self, capsys, tmp_path, zero):
        # the twin's rounded 1/conj(zeta) moves S by up to 2 eps/(1 - |zeta|) beside the zero
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"gain": 1.0, "zeros": [{"re": zero.real, "im": zero.imag}]}))
        code, report = run_json(capsys, ["invariance-check", str(path), "--strict"])
        assert code == 0
        assert report["passed"] is True and "warnings" not in report
        leg = report["outer_reflection"]
        assert leg["sdf_residual"] < report["tol"] + leg["sdf_floor"]
        assert leg["coordinate_residual"] < 1e-15

    @pytest.mark.parametrize("share, passed", [(0.5, True), (2.0, False)], ids=["under", "over"])
    def test_reflection_sdf_leg_is_held_to_tol_plus_its_floor(
        self, monkeypatch, arma_path, share, passed
    ):
        def suite(*args):
            report = real(*args)
            leg = report.outer_reflection
            residual = 1e-10 + share * leg.sdf_floor
            return dataclasses.replace(
                report, outer_reflection=dataclasses.replace(leg, sdf_residual=residual)
            )

        real = quadrature.invariance_suite
        monkeypatch.setattr(quadrature, "invariance_suite", suite)
        args = cli._build_parser().parse_args(["invariance-check", arma_path, "--tol", "1e-10"])
        assert args.run(args)["passed"] is passed

    @pytest.mark.parametrize("point", [1e-300, 1e-200, 0.06])
    def test_cepstrum_beside_a_small_blaschke_point(self, capsys, tmp_path, point):
        # its Taylor coefficients at 0, once reported, overflowed below |z_s| ~ 0.063
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(AR1_DOC))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(dict(AR1_DOC, blaschke=[{"re": point, "im": 0.0}])))
        code, report = run_json(capsys, ["cepstrum", str(path)])
        assert code == 0
        assert "blaschke_coeffs" not in report
        assert report == run_json(capsys, ["cepstrum", str(plain)])[1]

    @pytest.mark.parametrize("value", [1.0, math.nan], ids=["one", "nan"])
    @pytest.mark.parametrize("command, residual", REPORTED_RESIDUALS)
    def test_every_residual_decides_passed(self, monkeypatch, arma_path, command, residual, value):
        owner, call = RESIDUAL_SOURCES[command]
        real = getattr(owner, call)
        monkeypatch.setattr(owner, call, lambda *a: _with_residual(real(*a), residual, value))
        args = cli._build_parser().parse_args([command, arma_path])
        assert args.run(args)["passed"] is False

    def test_cepstrum_command(self, capsys, ar1_path):
        code, report = run_json(capsys, ["cepstrum", ar1_path, "--trunc", "4"])
        assert code == 0
        coeffs = [complex_from_json(c, "coeff") for c in report["coeffs"]]
        assert coeffs[0] == pytest.approx(0.5)
        assert report["tail_bound"] > 0.0

    @pytest.mark.parametrize(
        "argv, doc, message",
        [
            # alpha times the Ricci correction overflows: a finite --alpha, a non-finite entry
            (
                ["tensors", "{f}", "--alpha", "1e308"],
                dict(AR1_DOC, poles=[{"re": 0.5, "im": 0.1}], zeros=[{"re": -0.3, "im": 0.2}]),
                "inf (at '/ricci/entries/0/re')",
            ),
        ],
        ids=["tensors-huge-alpha"],
    )
    def test_non_finite_report_value_exits_2(self, capsys, tmp_path, argv, doc, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        for fmt in ("json", "table"):
            # the error itself is always reported as JSON, naming where the value sits
            argv_fmt = [a.format(f=path) for a in argv] + ["--format", fmt]
            code, report = run_json(capsys, argv_fmt)
            assert code == 2, fmt
            assert report["error"] == {
                "code": "NON_FINITE_VALUE",
                "message": "Out of range float values are not JSON compliant: " + message,
            }

    @pytest.mark.parametrize("command", ["divergence", "invariance-check"])
    @pytest.mark.parametrize(
        "doc",
        [
            dict(AR1_DOC, gain=1e80),
            dict(AR1_DOC, gain=1e-300),
            dict(AR1_DOC, z_power=10**20),
            dict(AR1_DOC, gain=1e300, blaschke=[{"re": 0.3, "im": -0.4}]),
        ],
        ids=["gain-1e80", "gain-1e-300", "z-power-1e20", "gain-1e300-blaschke"],
    )
    def test_extreme_valid_filters_give_finite_reports(self, capsys, tmp_path, command, doc):
        # log S sums the logs of bounded root products, never |h|^2; these printed nan before
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path), *([str(path)] if command == "divergence" else [])]
        code, report = run_json(capsys, argv)
        assert code == 0
        if command == "divergence":
            assert (report["value"], report["residual"], report["converged"]) == (0.0, 0.0, True)
        else:
            assert report["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["cepstrum", "{f}", "--trunc", str(10**15)],
            ["check-prior", "--psi", "psi1", "--model", "ar:1", "--samples", str(10**15)],
            ["oracle-compare", "{f}", "--nodes", str(2**50)],
        ],
        ids=["trunc", "samples", "nodes"],
    )
    def test_size_too_large_to_allocate_exits_2(self, capsys, ar1_path, argv):
        # each array would take more than the 2^47 bytes a process can
        # address, so numpy's allocation fails before anything is allocated
        code, report = run_json(capsys, [a.format(f=ar1_path) for a in argv])
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"
        assert "allocate" in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["divergence", "{f}", "{f}", "--tol", "-1"],
            ["divergence", "{f}", "{f}", "--tol", "nan"],
            ["oracle-compare", "{f}", "--tol", "0"],
            ["duality-check", "{f}", "--tol", "inf"],
            ["invariance-check", "{f}", "--tol=-inf"],
            ["tensors", "{f}", "--alpha", "nan"],
            ["divergence", "{f}", "{f}", "--alpha", "inf"],
        ],
        ids=[
            "divergence-tol-negative",
            "divergence-tol-nan",
            "oracle-compare-tol-zero",
            "duality-check-tol-inf",
            "invariance-check-tol-minus-inf",
            "tensors-alpha-nan",
            "divergence-alpha-inf",
        ],
    )
    def test_bad_tol_or_alpha_exits_2_before_any_work(self, capsys, monkeypatch, ar1_path, argv):
        handler = "_cmd_" + argv[0].replace("-", "_")
        monkeypatch.setattr(cli, handler, lambda args: pytest.fail("the command ran"))
        code, report = run_json(capsys, [a.format(f=ar1_path) for a in argv])
        assert code == 2
        assert report["error"]["code"] == "INVALID_INPUT"
        option = next(a for a in argv if a.startswith("--")).split("=")[0]
        assert report["error"]["message"].startswith(option + " must be finite")

    def test_table_format(self, capsys, ar1_path):
        code = main(["validate", ar1_path, "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "valid = True" in out

    def test_table_renders_complex_lists_like_complex_scalars(self, capsys, ar1_path):
        code = main(["cepstrum", ar1_path, "--trunc", "2", "--format", "table"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert re.fullmatch(r"phi0 = \S+ \+ \S+i", lines[2])
        assert lines[3] == "coeffs = [0.5 + 0i, 0.125 + 0i]"


NODES_256 = ("--nodes", "256")
# every run over the filter schema; "{f}" and "{g}" are filter files
SCHEMA_RUNS = {
    "cepstrum": ["cepstrum", "{f}"],
    "tensors": ["tensors", "{f}"],
    "tensors-huge-alpha": ["tensors", "{f}", "--alpha=1e308"],
    **{
        f"divergence-f-f-{alpha}": ["divergence", "{f}", "{f}", f"--alpha={alpha}", *NODES_256]
        for alpha in ("-1", "0", "0.5")
    },
    "divergence-f-g": ["divergence", "{f}", "{g}", "--alpha=0.5", *NODES_256],
    "oracle-compare": ["oracle-compare", "{f}", *NODES_256],
    "duality-check": ["duality-check", "{f}", *NODES_256],
    "invariance-check": ["invariance-check", "{f}"],
}
# where a run may meet NON_FINITE_VALUE: the true value passes the double range there
TRUE_OVERFLOWS = {
    "tensors-huge-alpha": ("/connection/", "/ricci/", "/scalar_curvature"),
    "divergence-f-g": ("/value",),  # (S2/S1)^alpha at gains far apart
}
ROOT_VIOLATIONS = {cls.code for cls in _RootViolation.__subclasses__()}


def _schema_document(spec):
    """The filter file of ``spec``, every float exact (complex_to_json rounds to 12 digits)."""

    def exact(roots):
        return [{"re": x.real, "im": x.imag} for x in roots]

    return {
        "gain": spec.gain,
        "poles": exact(spec.poles),
        "zeros": exact(spec.zeros),
        "blaschke": exact(spec.blaschke_points),
        "z_power": spec.z_power,
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=schema_filters(), other=schema_filters())
def test_every_valid_filter_gives_a_finite_report_or_a_named_error(tmp_path_factory, spec, other):
    # each command on a filter validate accepts: a finite report, or a named error
    # where the true value leaves the doubles, the roots coincide or a step leaves the margin
    folder = tmp_path_factory.mktemp("schema")
    paths = {}
    for key, filt in (("f", spec), ("g", other)):
        validate(filt)  # the strategy draws only filters that validate accepts
        paths[key] = folder / f"{key}.json"
        paths[key].write_text(json.dumps(_schema_document(filt)))
    out = folder / "report.json"
    for name, argv in SCHEMA_RUNS.items():
        code = main([a.format(**paths) for a in argv] + ["--out", str(out)])
        report = json.loads(out.read_text())
        if code == 0:
            assert "error" not in report, name
            if name.startswith("divergence-f-f"):
                assert (report["value"], report["converged"]) == (0.0, True), name
            continue
        assert code == 2, name
        error = report["error"]
        if error["code"] == "NON_FINITE_VALUE":
            pointer = re.search(r"\(at '([^']*)'\)", error["message"]).group(1)
            assert pointer.startswith(TRUE_OVERFLOWS.get(name, ())), (name, error)
        elif error["code"] == "COINCIDENT_ROOTS":
            assert argv[0] in ("tensors", "oracle-compare"), (name, error)
        else:
            assert argv[0] == "duality-check" and error["code"] in ROOT_VIOLATIONS, (name, error)
            assert "after the duality check's step" in error["message"], (name, error)


def test_readme_cli_examples_run(capsys, tmp_path):
    # every documented command line must parse and succeed, so the README
    # cannot drift from the parser
    argvs = readme_cli_argvs(tmp_path)
    assert len(argvs) == 8
    for argv in argvs:
        assert argv[0] == "cepgeo"
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


def test_readme_library_example_runs():
    # the documented python block runs as written, and its two metrics agree
    scope = {}
    exec(_readme_block("## Library", "python"), scope)
    assert np.max(np.abs(scope["g"] - scope["g_oracle"])) <= 1e-12


def test_readme_lists_every_error_code():
    # the CLI reports an error's class code, or INVALID_INPUT for any other ValueError
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `([A-Z_]+)` \|", readme, re.M))
    modules = [
        importlib.import_module(f"cepgeo.{m.name}")
        for m in pkgutil.iter_modules(cepgeo.__path__)
        if m.name != "__main__"
    ]
    codes = {
        obj.code
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and hasattr(obj, "code")
    }
    assert {"COINCIDENT_ROOTS", "FILTER_ERROR"} <= codes  # closed_form and filters were read
    assert (codes | {"INVALID_INPUT"}) - documented == set()


# every subcommand, an input error (exit 2) and a warning under --strict (exit 3);
# "{f}" is an n = 4 filter, "{a}" the all-pass filter, "{c}" an n = 4 filter
# with two poles 1e-7 apart and "{o}" a pole outside the disk
COLD_ARGV = {
    "validate": ("validate", "{f}"),
    "cepstrum": ("cepstrum", "{f}"),
    "tensors": ("tensors", "{f}", "--alpha", "0.5"),
    "divergence": ("divergence", "{a}", "{f}"),
    "check-prior": CHECK_PRIOR_ARGV,
    "oracle-compare": ("oracle-compare", "{f}"),
    "duality-check": ("duality-check", "{f}"),
    "invariance-check": ("invariance-check", "{f}"),
    "exit2": ("validate", "{o}"),
    "exit3": ("tensors", "{c}", "--strict"),
}


@pytest.fixture(scope="module")
def cold_argvs(tmp_path_factory):
    """COLD_ARGV with its files written."""
    paths = {
        key: _roots_document(tmp_path_factory.mktemp(key), roots)
        for key, roots in [
            ("a", []),
            ("c", [0.5, 0.5 + 1e-7, -0.3 + 0.2j, 0.1 - 0.4j]),
            ("o", [1.5, 0.2]),
        ]
    }
    paths["f"] = _spiral_document(tmp_path_factory.mktemp("f"), 4)
    return {name: [a.format(**paths) for a in argv] for name, argv in COLD_ARGV.items()}


@pytest.fixture(scope="module")
def cold_runs(cold_argvs):
    """Exit code and stdout of each command run by ``python -m cepgeo``, two at a time."""

    def run(argv):
        cmd = [sys.executable, "-m", "cepgeo", *argv]
        result = subprocess.run(cmd, capture_output=True, env=_child_env(), timeout=120)
        return result.returncode, result.stdout

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(cold_argvs, pool.map(run, cold_argvs.values())))


@pytest.mark.parametrize("name", list(COLD_ARGV))
def test_cold_process_prints_the_in_process_report(capsys, cold_argvs, cold_runs, name):
    code = main(cold_argvs[name])
    assert code == {"exit2": 2, "exit3": 3}.get(name, 0)
    assert cold_runs[name] == (code, capsys.readouterr().out.encode())


# run in children: importing cepgeo.__main__ here would freeze this process's heap
def test_entry_point_freezes_the_import_heap_and_collects_again():
    enabled, frozen, same = _child_json(
        "import gc, json, cepgeo.__main__, cepgeo.cli; "
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count(), "
        "cepgeo.__main__.main is cepgeo.cli.main]))"
    )
    assert enabled is True and same is True
    assert frozen > 5000  # numpy's and the CLI's import heap


def test_cli_main_leaves_the_collector_alone(arma_path):
    enabled, frozen = _child_json(
        "import gc, json, os; from cepgeo import cli, closed_form, quadrature, priors; "
        f"assert cli.main(['oracle-compare', {arma_path!r}, '--out', os.devnull]) == 0; "
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))"
    )
    assert (enabled, frozen) == (True, 0)


def test_installed_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"cepgeo": "cepgeo.__main__:main"}


@pytest.mark.parametrize("argv", list(NEVER_LOADED), ids=lambda argv: argv[0])
def test_each_subcommand_imports_only_the_modules_it_runs(arma_path, argv):
    modules = _modules_after([a.format(f=arma_path) for a in argv])
    loaded = {m.removeprefix("cepgeo.") for m in modules if m.startswith("cepgeo.")}
    loaded |= {"numpy"} & set(modules)
    every = {m.name for m in pkgutil.iter_modules(cepgeo.__path__)} - {"__main__"} | {"numpy"}
    assert loaded == every - NEVER_LOADED[argv]


def test_numpy_free_commands_are_those_whose_handlers_load_no_numpy():
    usage = cli._build_parser().format_usage()
    subcommands = set(re.search(r"\{([\w,-]+)\}", usage).group(1).split(","))
    assert {argv[0] for argv in NEVER_LOADED} == subcommands  # every handler is pinned
    free = {argv[0] for argv, never in NEVER_LOADED.items() if "numpy" in never}
    assert cli.NUMPY_FREE_COMMANDS == free == {"validate"}


def test_cold_validate_never_imports_numpy(cold_argvs):
    # -X importtime writes one stderr line per module imported, its name last
    def imported(argv):
        cmd = [sys.executable, "-X", "importtime", "-m", "cepgeo", *argv]
        result = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), timeout=120)
        assert result.returncode == 0, result.stderr
        return {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}

    validate = imported(cold_argvs["validate"])
    assert "cepgeo.cli" in validate and "numpy" not in validate
    assert "numpy" in imported(cold_argvs["cepstrum"])  # the check sees numpy where it loads


def test_entry_point_freezes_numpy_for_every_subcommand_but_validate():
    # the entry point reads only argv[1], and main does not run on import
    def entry_point_state(command):
        return _child_json(
            f"import gc, json, sys; sys.argv = ['cepgeo', {command!r}]; import cepgeo.__main__; "
            "print(json.dumps([gc.get_freeze_count(), 'numpy' in sys.modules]))"
        )

    commands = [argv[0] for argv in NEVER_LOADED]
    with ThreadPoolExecutor(max_workers=2) as pool:
        states = dict(zip(commands, pool.map(entry_point_state, commands)))
    frozen_without_numpy, numpy_loaded = states.pop("validate")
    assert not numpy_loaded
    for command, (frozen, numpy_loaded) in states.items():
        # numpy's import heap is about 16k objects: frozen before main, not built after it
        assert numpy_loaded and frozen > frozen_without_numpy + 10_000, command


def test_parser_constants_track_the_library(capsys):
    parser = cli._build_parser()
    for argv in (
        ["divergence", "f.json", "g.json"],
        ["oracle-compare", "f.json"],
        ["duality-check", "f.json"],
    ):
        assert parser.parse_args(argv).nodes == quadrature.NODES_DEFAULT, argv[0]
    with pytest.raises(SystemExit):
        parser.parse_args(["check-prior", "--help"])
    # argparse lists the choices as {a,b,...}, so an extra or missing one shows
    assert "--psi {" + ",".join(sorted(priors.BUILTINS)) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["tensors", "oracle-compare"])
def test_coincident_poles_exit_2(capsys, tmp_path, command):
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps(dict(AR1_DOC, poles=[{"re": 0.5, "im": 0.0}] * 2)))
    code, report = run_json(capsys, [command, str(path)])
    assert code == 2
    assert report["error"]["code"] == "COINCIDENT_ROOTS"


def test_quadrature_reports_do_not_depend_on_thread_count(tmp_path):
    # BLAS splits products this large (n = 10) across threads, and LAPACK
    # a QR over many rows (the n = 32 Ricci leg); the reports must not move,
    # nor those that run in several chunks (duality at n = 32, divergence on
    # a grid of several blocks)
    doc = {
        "gain": GAIN_UNIT,
        "poles": [complex_to_json(0.8 * cmath.exp(0.6j * k)) for k in range(5)],
        "zeros": [complex_to_json(-0.7 * cmath.exp(0.6j * k)) for k in range(5)],
    }
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    allpass = tmp_path / "allpass.json"
    allpass.write_text(json.dumps({"gain": GAIN_UNIT}))
    commands = [
        ["oracle-compare", str(path)],
        ["oracle-compare", _roots_document(tmp_path, sample_root_tuples(16, 8, 32, 0.9, 0.05)[1])],
        ["duality-check", str(path)],
        ["duality-check", _spiral_document(tmp_path, 32)],
        ["invariance-check", str(path)],
        ["divergence", str(allpass), str(path), "--alpha", "-1"],
        ["divergence", str(allpass), str(path), "--alpha", "-1", "--nodes", "65536"],
    ]
    src = os.path.dirname(os.path.dirname(cepgeo.__file__))
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    reports = {}
    for threads in ("1", "2"):
        env = dict(base, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path_var)
        for argv in commands:
            result = subprocess.run(
                [sys.executable, "-m", "cepgeo", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            reports.setdefault(" ".join(argv), []).append(result.stdout)
    for command, (one, two) in reports.items():
        assert one == two, command
