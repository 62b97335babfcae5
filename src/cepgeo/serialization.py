"""JSON interchange: filter documents, tensor documents, float formatting.

Complex numbers are always {"re": ..., "im": ...} pairs.  Tensor entries
carry their index tuple with anti-holomorphic (barred) positions encoded as
strings with a combining macron ("1̄"), holomorphic positions as plain
integers; indices are 0-based.  ``dumps_report`` writes a report in one
pass, rounding each float to 12 significant digits as it writes it; its
text is the standard library's ``indent=2`` ASCII JSON of the rounded
document, and identical inputs produce byte-identical reports.  A
``TensorDocument`` keeps its blocks as arrays until then: every entry is
one template filled with index text from its block's shape and bar
pattern, and each distinct float bit pattern is rounded and written once.
``render_table`` reads the same report object, never the JSON text.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any

from .filters import FilterSpec

if TYPE_CHECKING:  # for annotations; numpy is imported where it runs
    import numpy as np

BAR = "̄"


def fmt_float(x: float) -> float:
    """Round to 12 significant digits (stable shortest-repr serialisation)."""
    return float(f"{float(x):.12g}")


def complex_to_json(z: complex) -> dict[str, float]:
    z = complex(z)
    return {"re": fmt_float(z.real), "im": fmt_float(z.imag)}


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} must be finite, got a {value.bit_length()}-bit integer") from None


def complex_from_json(obj: Any, what: str) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError(f"{what}: complex values must be {{'re': .., 'im': ..}} objects")
    return complex(_number(obj["re"], f"{what}.re"), _number(obj["im"], f"{what}.im"))


_FILTER_KEYS = {"gain", "poles", "zeros", "blaschke", "z_power"}


def parse_filter_document(doc: Any) -> FilterSpec:
    """Read the shared filter schema into a FilterSpec.

    Schema: {"gain": number, "poles": [{re,im}..], "zeros": [..],
    "blaschke": [..], "z_power": int}; only "gain" is required.  Unknown
    keys, and values of the wrong JSON type, are rejected naming the field.
    """
    if not isinstance(doc, dict):
        raise ValueError("filter document must be a JSON object")
    unknown = set(doc) - _FILTER_KEYS
    if unknown:
        raise ValueError(f"unknown filter document keys: {sorted(unknown)}")
    if "gain" not in doc:
        raise ValueError("filter document requires a 'gain' field")

    def complex_list(key: str) -> tuple[complex, ...]:
        items = doc.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f"'{key}' must be a list")
        return tuple(complex_from_json(item, f"{key}[{i}]") for i, item in enumerate(items))

    z_power = doc.get("z_power", 0)
    if not _number(z_power, "z_power").is_integer():
        raise ValueError(f"z_power must be an integer, got {z_power!r}")
    return FilterSpec(
        gain=_number(doc["gain"], "gain"),
        poles=complex_list("poles"),
        zeros=complex_list("zeros"),
        blaschke_points=complex_list("blaschke"),
        z_power=int(z_power),
    )


def load_filter(path: str) -> FilterSpec:
    with open(path, encoding="utf-8") as fh:
        return parse_filter_document(json.load(fh))


@dataclass(frozen=True)
class TensorDocument:
    """Labels, alpha, and (complex array, bar pattern) blocks, kept for ``dumps_report`` to write."""

    labels: list[str]
    alpha: float | None
    blocks: list[tuple[np.ndarray, tuple[bool, ...]]]


def tensor_to_document(
    labels: tuple[str, ...], alpha: float | None, blocks: list[tuple[np.ndarray, tuple[bool, ...]]]
) -> TensorDocument:
    """Shared tensor schema: labels, alpha, and a flat entry list.

    ``blocks`` pairs each component array with the bar pattern of its
    indices, one flag per axis; the entries of each block follow in C order
    and blocks follow one another, so the document layout is deterministic.
    Each block is kept as a C-ordered complex copy plus 0.0, which turns a
    negative zero into 0.0, so a vanishing part is written as 0.0.
    """
    import numpy as np

    blocks = [(np.add(array, 0.0, dtype=complex, order="C"), tuple(bars)) for array, bars in blocks]
    if any(array.ndim != len(bars) or not bars for array, bars in blocks):
        raise ValueError("bar pattern length must match tensor rank, which must be at least 1")
    return TensorDocument(list(labels), alpha, blocks)


class NonFiniteValue(ValueError):
    """A float JSON cannot hold (inf or nan): the standard library's error, and where it sits.

    ``keys`` lead from the report down to the value, outermost first (a list
    item by its index, a tensor entry's part as ``entries``, index, ``re`` or
    ``im``); the message names them as a JSON Pointer (RFC 6901).
    """

    code = "NON_FINITE_VALUE"

    def __init__(self, value: float, keys: tuple = ()):
        self.value, self.keys = value, keys
        pointer = "".join("/" + str(k).replace("~", "~0").replace("/", "~1") for k in keys)
        super().__init__(
            f"Out of range float values are not JSON compliant: {value!r} (at {pointer or '/'!r})"
        )


def _keyed(key: Any, func, *args):
    """``func(*args)``, with ``key`` put in front of the keys of a :class:`NonFiniteValue`."""
    try:
        return func(*args)
    except NonFiniteValue as exc:
        raise NonFiniteValue(exc.value, (key, *exc.keys)) from None


def _rounded(x: Any) -> float:
    """``fmt_float``, refusing inf and nan with :class:`NonFiniteValue`."""
    x = fmt_float(x)
    if x - x != 0.0:  # inf or nan
        raise NonFiniteValue(x)
    return x


def _entry_float(x: float) -> str:
    """``repr(fmt_float(x))``, without the float round trip where it cannot change the text.

    A 12-digit text with a point and no exponent already is the shortest
    repr of the float it rounds to: a shorter decimal differs from it by
    more than a float's spacing, and repr writes no exponent in that range.
    """
    text = f"{x:.12g}"
    return text if "." in text and "e" not in text else repr(float(text))


def _distinct(blocks: list[tuple[np.ndarray, tuple[bool, ...]]], fmt) -> tuple[np.ndarray, ...]:
    """``fmt`` of each distinct float bit pattern (-0.0 apart from 0.0), and each part's index.

    The first inf or nan in entry order raises, keyed by its entry and part.
    """
    import numpy as np

    values = np.concatenate([np.empty(0), *(a.ravel().view(np.float64) for a, _ in blocks)])
    if values.size:
        first = int(np.isfinite(values).argmin())
        if not math.isfinite(values[first]):
            where = ("entries", first // 2, ("re", "im")[first % 2])
            raise NonFiniteValue(float(values[first]), where)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([fmt(x) for x in bits.view(np.float64).tolist()], dtype=object), inverse


def _write_entries(blocks: list[tuple[np.ndarray, tuple[bool, ...]]], out: list[str], nl: str) -> None:
    """A tensor document's entry list, one template per entry, each distinct float formatted once."""
    texts, inverse = _distinct(blocks, _entry_float)
    if not texts.size:
        out.append("[]")
        return
    item, field = nl + "  ", nl + "    "
    heads: list[str] = []  # from the separator to '"re": ', one per entry
    for array, pattern in blocks:
        axes = [
            [_quote(f"{i}{BAR}") if bar else str(i) for i in range(n)]
            for n, bar in zip(array.shape, pattern)
        ]
        axes[-1] = [f'{token}{field}],{field}"re": ' for token in axes[-1]]
        idx = [f',{item}{{{field}"idx": [{field}  {token}' for token in axes[0]]
        for tokens in axes[1:]:
            idx = [f"{head},{field}  {token}" for head in idx for token in tokens]
        heads += idx
    heads[0] = "[" + heads[0][1:]
    re = (texts + f',{field}"im": ')[inverse[0::2]].tolist()
    im = (texts + f"{item}}}")[inverse[1::2]].tolist()
    out.extend(itertools.chain.from_iterable(zip(heads, re, im)))
    out.append(nl + "]")


def _write(obj: Any, out: list[str], nl: str) -> None:
    """Append the JSON text of ``obj``; ``nl`` is a newline and the current indent."""
    if isinstance(obj, TensorDocument):
        inner = nl + "  "
        for sep, key, value in (("{", "labels", obj.labels), (",", "alpha", obj.alpha)):
            out.append(f'{sep}{inner}"{key}": ')
            _keyed(key, _write, value, out, inner)
        out.append(f',{inner}"entries": ')
        _write_entries(obj.blocks, out, inner)
        out.append(nl + "}")
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            out.append("{}" if is_dict else "[]")
            return
        inner = nl + "  "
        sep = ("{" if is_dict else "[") + inner
        for key, item in obj.items() if is_dict else enumerate(obj):
            out.append(sep + _quote(key) + ": " if is_dict else sep)
            _keyed(key, _write, item, out, inner)
            sep = "," + inner
        out.append(nl + ("}" if is_dict else "]"))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, float):
        out.append(repr(_rounded(obj)))
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    else:
        raise TypeError(f"unserialisable value of type {type(obj)!r}")


def dumps_report(report: dict[str, Any]) -> str:
    """Deterministic JSON text: fixed key order, 12-significant-digit floats.

    The first non-finite float raises :class:`NonFiniteValue`, a ValueError;
    the first value JSON has no type for, or key that is not a string, raises
    TypeError.
    """
    out: list[str] = []
    _write(report, out, "\n")
    return "".join(out)


def _plain(obj: Any) -> Any:
    """What ``json.loads(dumps_report(obj))`` gives, without the text."""
    if isinstance(obj, dict):  # _quote refuses a key that is not a string, as the writer does
        return {_quote(key) and key: _keyed(key, _plain, value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_keyed(i, _plain, item) for i, item in enumerate(obj)]
    if isinstance(obj, float):
        return _rounded(obj)
    _write(obj, [], "")  # refuses a value JSON has no type for, as the writer does
    return obj


def _indices(doc: TensorDocument):
    for array, bars in doc.blocks:
        axes = ([f"{i}{BAR}" if bar else i for i in range(n)] for n, bar in zip(array.shape, bars))
        yield from itertools.product(*axes)


def render_table(report: dict[str, Any]) -> str:
    """Human-readable rendering of the JSON report, which stays the machine contract.

    Each value reads as it would once written and parsed back; a tensor
    document's entries come from its blocks, each distinct float formatted once.
    """
    lines: list[str] = []

    def cell(value: Any, top: bool = True) -> str:
        # a complex {"re", "im"} pair reads re + im i, inside lists too
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            return f"{value['re']:.12g} + {value['im']:.12g}i"
        if isinstance(value, list):
            return "[" + ", ".join(cell(item, False) for item in value) + "]"
        return str(value) if top else repr(value)

    def emit(prefix: str, value: Any) -> None:
        if isinstance(value, TensorDocument):
            texts, inverse = _distinct(value.blocks, lambda x: f"{fmt_float(x):.12g}")
            parts = zip(_indices(value), texts[inverse[0::2]], texts[inverse[1::2]])
            entries = [f"  [{','.join(map(str, i))}] = {re} + {im}i" for i, re, im in parts]
            emit(prefix, {"labels": value.labels, "alpha": value.alpha})
            key = f"{'  ' if prefix else ''}entries"
            lines.extend([key, *entries] if entries else [f"{key} = []"])
        elif isinstance(value, dict) and set(value) != {"re", "im"}:
            lines.extend([prefix] if prefix else [])
            for k, v in value.items():
                _keyed(k, emit, f"{'  ' if prefix else ''}{_quote(k) and k}", v)
        elif (
            isinstance(value, (list, tuple)) and value and isinstance(value[0], dict)
        ) and "idx" in value[0]:
            lines.append(prefix)
            for entry in _plain(value):
                idx = ",".join(str(t) for t in entry["idx"])
                lines.append(f"  [{idx}] = {entry['re']:.12g} + {entry['im']:.12g}i")
        else:
            lines.append(f"{prefix} = {cell(_plain(value))}")

    emit("", report)
    return "\n".join(lines) + "\n"
