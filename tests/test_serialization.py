"""The report writer against the standard library's encoder as an oracle.

``dumps_report`` must give exactly the text of ``json.dumps(indent=2,
ensure_ascii=True, allow_nan=False)`` applied to the document with every
float rounded to 12 significant digits.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepgeo import serialization
from cepgeo.cli import main
from cepgeo.serialization import BAR, TensorDocument, dumps_report, render_table, tensor_to_document

from conftest import GAIN, input_error, peak_mib, readme_cli_argvs


def _reference_entries(array, bar_pattern):
    """A tensor block as unrounded schema entries, C order, one bar flag per axis."""
    axes = [[f"{i}{BAR}" if bar else i for i in range(n)] for n, bar in zip(array.shape, bar_pattern)]
    return [
        {"idx": list(idx), "re": z.real, "im": z.imag}
        for idx, z in zip(itertools.product(*axes), array.ravel().tolist())
    ]


def _round_floats(obj):
    """The rounding copy that used to run ahead of ``json.dumps``."""
    if isinstance(obj, TensorDocument):
        entries = [e for array, bars in obj.blocks for e in _reference_entries(array, bars)]
        obj = {"labels": obj.labels, "alpha": obj.alpha, "entries": entries}
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return serialization.fmt_float(obj)
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.floating):
        return serialization.fmt_float(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"unserialisable value of type {type(obj)!r}")


def stdlib_dumps(report):
    return json.dumps(_round_floats(report), indent=2, ensure_ascii=True, allow_nan=False)


@pytest.fixture
def reports(monkeypatch):
    """Every report ``cli.main`` hands to ``dumps_report``, in order."""
    seen = []
    write = serialization.dumps_report

    def spy(report):
        seen.append(report)
        return write(report)

    monkeypatch.setattr(serialization, "dumps_report", spy)
    return seen


def _filter_path(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _spread_roots(n, seed, radius=0.9, separation=0.05):
    """n points uniform in the disk of ``radius``, pairwise at least ``separation`` apart."""
    rng = np.random.default_rng(seed)
    while True:
        roots = radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        dist = np.abs(roots[:, None] - roots[None, :]) + np.eye(n)  # 1 on the diagonal
        if dist.min(initial=np.inf) >= separation:
            return roots


def _roots_path(tmp_path, n, seed):
    """A filter file with n spread roots, the first half (rounded up) poles, the rest zeros."""
    roots = _spread_roots(n, seed)
    pair = lambda z: {"re": float(z.real), "im": float(z.imag)}  # noqa: E731
    p = (n + 1) // 2
    doc = {"gain": GAIN, "poles": list(map(pair, roots[:p])), "zeros": list(map(pair, roots[p:]))}
    return _filter_path(tmp_path, f"n{n}-seed{seed}.json", doc)


@pytest.fixture
def n16_path(tmp_path):
    return _roots_path(tmp_path, 16, seed=3)


def test_cli_reports_match_the_stdlib_encoder(capsys, tmp_path, reports):
    argvs = [argv[1:] for argv in readme_cli_argvs(tmp_path)]
    pole = lambda r: {"gain": GAIN, "poles": [{"re": r, "im": 0.0}]}  # noqa: E731
    outside = _filter_path(tmp_path, "outside.json", pole(1.5))
    slow = _filter_path(tmp_path, "slow.json", pole(0.9))
    argvs += [
        ["oracle-compare", slow, "--nodes", "64"],  # an unconverged grid warns
        ["validate", outside],
    ]
    for argv in argvs:
        main(argv)
        capsys.readouterr()
    assert len(reports) == len(argvs)
    assert "warnings" in reports[-2]
    assert "error" in reports[-1]
    for report in reports:
        assert dumps_report(report) == stdlib_dumps(report), report["command"]

    # tensors reports, from the empty model up, in both formats; the table
    # is rendered from the stdlib text of the same report
    for n in (0, 1, 2, 3, 5, 16):
        path = _roots_path(tmp_path, n, seed=n)
        for alpha in ("0", "0.5", "-1"):
            texts = {}
            for fmt in ("json", "table"):
                assert main(["tensors", path, f"--alpha={alpha}", "--format", fmt]) == 0
                texts[fmt] = capsys.readouterr().out
            expected = stdlib_dumps(reports[-1])
            assert len(json.loads(expected)["connection"]["entries"]) == 4 * n**3
            assert texts["json"] == expected + "\n", (n, alpha)
            assert texts["table"] == render_table(json.loads(expected)), (n, alpha)


def test_reports_round_trip_through_their_text(capsys, tmp_path, n16_path):
    # the text is a fixed point: parse it and write it again
    for argv in [argv[1:] for argv in readme_cli_argvs(tmp_path)] + [["tensors", n16_path]]:
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert dumps_report(json.loads(text)) + "\n" == text, argv[0]


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e16, 1e-5, 123456789012.5, 1e300, 5e-324, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(["0̄", "idx", "re", "im", "é"]))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _FLOATS,
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _TEXT,
)
_TOKENS = st.one_of(st.integers(0, 40), st.integers(0, 40).map(lambda i: f"{i}̄"), _SCALARS)


def _near_entries(entry):
    """An entry and the dicts that almost look like one."""
    keys = list(entry)
    return st.sampled_from(
        [
            entry,
            {k: entry[k] for k in reversed(keys)},
            {k: entry[k] for k in keys[1:]},
            {**entry, "extra": 0},
            {**entry, "idx": []},
            {**entry, "idx": tuple(entry["idx"])},
        ]
    )


def _entries(tokens, values):
    idx = st.lists(tokens, min_size=1, max_size=3)
    return st.builds(lambda i, re, im: {"idx": i, "re": re, "im": im}, idx, values, values).flatmap(
        _near_entries
    )


@st.composite
def _tensor_documents(draw):
    """Small blocks of any shape and bar pattern, whose floats often repeat or are signed zeros."""
    parts = st.sampled_from([0.0, -0.0, 1.0 / 3.0, -2.5, 5e-324]) | st.floats(
        allow_nan=False, allow_infinity=False
    )
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
        size = 2 * math.prod(shape)
        floats = draw(st.lists(parts, min_size=size, max_size=size))
        bars = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
        blocks.append((np.array(floats, dtype=float).view(complex).reshape(shape), tuple(bars)))
    labels = draw(st.lists(_TEXT, max_size=3))
    return tensor_to_document(labels, draw(st.none() | _FLOATS), blocks)


_DOCUMENTS = st.recursive(
    _SCALARS | _entries(_TOKENS, _FLOATS) | _tensor_documents(),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        _entries(_TOKENS | children, children),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCUMENTS)
def test_writer_matches_the_stdlib_encoder(doc):
    assert dumps_report(doc) == stdlib_dumps(doc)


def test_entry_floats_at_the_notation_boundaries_match_the_stdlib_encoder():
    # where the 12-digit text and repr switch between point and exponent notation
    values = np.array(
        [1e-5, 1e-4, 99999999999.5, 123456789012.5, 1e12, 1.5e15, 1e16, 0.0, -0.0, 5.0, 5e-324]
    )
    block = np.empty((values.size, 1), dtype=complex)
    block.real[:, 0], block.imag[:, 0] = values, -values  # each value and its negation
    doc = tensor_to_document(("pole0",), None, [(block, (False, True))])
    assert dumps_report(doc) == stdlib_dumps(doc)
    assert [serialization._entry_float(x) for x in values[:5]] == [
        "1e-05", "0.0001", "99999999999.5", "123456789012.0", "1000000000000.0"
    ]


@pytest.mark.parametrize(
    "value", [math.inf, -math.inf, math.nan, np.float32("inf")], ids=["inf", "-inf", "nan", "f32-inf"]
)
def test_non_finite_floats_raise_value_error(value):
    report = {"entries": [{"idx": [0, "0̄"], "re": 1.0, "im": value}], "x": [value]}
    block = np.ones((2, 2), dtype=complex)
    block.imag[1, 0] = value
    tensors = {"ricci": tensor_to_document(("pole0", "zero0"), 0.5, [(block, (False, True))])}
    for doc in (report, {"x": [value]}, tensors):
        with pytest.raises(ValueError, match="JSON"):
            dumps_report(doc)
        with pytest.raises(ValueError, match="JSON"):
            render_table(doc)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, 1j, np.bool_(True), np.zeros(2), object()],
    ids=["set", "complex", "numpy-bool", "ndarray", "object"],
)
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps_report({"x": [1.0, value]})


def test_tensor_entries_are_left_for_the_writer_to_round():
    third = np.array([[1.0 / 3.0]], dtype=complex)
    doc = tensor_to_document(("pole0",), 1.0 / 3.0, [(third, (False, True))])
    assert doc.blocks[0][0][0, 0] == 1.0 / 3.0
    entries = json.loads(dumps_report(doc))["entries"]
    assert entries == [{"idx": [0, "0̄"], "re": 0.333333333333, "im": 0.0}]


def test_table_is_rendered_without_parsing_the_report(monkeypatch):
    rng = np.random.default_rng(5)
    block = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
    doc = tensor_to_document([f"pole{i}" for i in range(6)], 0.5, [(block, (False, False, True))])
    report = {"command": "tensors", "alpha": 0.5, "connection": doc, "scalar": np.float64(1 / 3)}
    expected = render_table(json.loads(dumps_report(report)))

    def refuse(*args, **kwargs):
        raise AssertionError("render_table parsed JSON text")

    monkeypatch.setattr(serialization.json, "loads", refuse)
    assert render_table(report) == expected


def test_tensors_report_memory_peak(tmp_path, n16_path):
    # the text is 3.2 MiB: room for it, one copy and the arrays, not for a dict per entry
    out = str(tmp_path / "t.json")
    assert main(["tensors", n16_path, "--out", out]) == 0  # imports and caches warm
    peak, code = peak_mib(lambda: main(["tensors", n16_path, "--out", out]))
    assert code == 0
    assert peak <= 12


@pytest.mark.parametrize(
    "run, message",
    [
        (["validate", [GAIN]], "filter document must be a JSON object"),
        (["validate", {"poles": []}], "filter document requires a 'gain' field"),
        (["validate", {"gain": GAIN, "poles": {"re": 0.5, "im": 0.0}}], "'poles' must be a list"),
        (
            ["validate", {"gain": GAIN, "zeros": [{"re": 0.3, "im": 0.0}, 0.5]}],
            "zeros[1]: complex values must be {'re': .., 'im': ..} objects",
        ),
        (["validate", {"gain": None}], "gain must be a number, got None"),
        (["validate", {"gain": [1.0]}], "gain must be a number, got [1.0]"),
        (["validate", {"gain": "2.5"}], "gain must be a number, got '2.5'"),
        (
            ["validate", {"gain": GAIN, "poles": [{"re": 0.5, "im": None}]}],
            "poles[0].im must be a number, got None",
        ),
        (
            ["validate", {"gain": GAIN, "zeros": [{"re": {"x": 0.3}, "im": 0.0}]}],
            "zeros[0].re must be a number, got {'x': 0.3}",
        ),
        (
            ["validate", {"gain": GAIN, "blaschke": [{"re": 10**400, "im": 0.0}]}],
            "blaschke[0].re must be finite, got a 1329-bit integer",
        ),
        (["validate", {"gain": GAIN, "z_power": math.inf}], "z_power must be an integer, got inf"),
        (["validate", {"gain": GAIN, "z_power": 2.7}], "z_power must be an integer, got 2.7"),
        (["validate", {"gain": GAIN, "z_power": True}], "z_power must be a number, got True"),
        # the CLI pairs every block with its own bar pattern: library only
        (
            lambda: tensor_to_document(("pole0",), None, [(np.zeros((1, 1)), (False,))]),
            "bar pattern length must match tensor rank, which must be at least 1",
        ),
    ],
    ids=[
        "not-an-object", "no-gain", "poles-not-a-list", "zero-not-a-pair", "gain-null",
        "gain-list", "gain-string", "pole-im-null", "zero-re-object", "blaschke-re-overflows",
        "z-power-infinite", "z-power-fraction", "z-power-bool", "rank-mismatch",
    ],
)
def test_input_checks(capsys, tmp_path, run, message):
    assert input_error(capsys, tmp_path, run) == ("INVALID_INPUT", message)
