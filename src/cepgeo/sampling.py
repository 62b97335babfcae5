"""Deterministic sampling of root tuples inside the stability polydisk.

Tuples are drawn in rounds over a leading sample axis.  Each tuple takes
its n radius draws, then its n angle draws, from the generator, so a seed
gives the same tuples in any round size.  :func:`root_tuple_rounds` yields
each round's accepted tuples, so a caller that reduces them round by round
never holds the whole sample.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# A round draws the tuples whose (k, n, n) separation arrays take about this
# many bytes, and never more than the tuples still missing.
_ROUND_BYTES = 1 << 18
_MAX_REJECTIONS = 100_000  # rejected tuples in one call before ValueError


def root_tuple_rounds(
    seed_or_rng, samples: int, n: int, radius: float, min_separation: float = 0.0
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, tuples) for each round until ``samples`` tuples are accepted.

    ``tuples`` is the round's accepted (k, n) complex array and ``start`` the
    index of its first tuple in the whole sample.  Tuples whose minimum
    pairwise distance falls below ``min_separation`` are rejected and
    redrawn, so the rounds are deterministic for a fixed seed but the
    rejection count is data dependent.  More than ``_MAX_REJECTIONS``
    rejections in total raise ``ValueError``: the separation cannot be met in
    the disk.  A round draws at most the tuples still missing, so a generator
    passed in ends where drawing one tuple at a time would leave it.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    filled = rejections = 0
    diag = np.arange(n)
    per_round = max(1, _ROUND_BYTES // (16 * max(n, 1) ** 2))
    while filled < samples:
        u = rng.random((min(samples - filled, per_round), 2, n))
        # uniform in area over the disk: n radii, then n angles, per tuple
        cand = radius * np.sqrt(u[:, 0]) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
        if n > 1 and min_separation > 0.0:
            dist = np.abs(cand[:, :, None] - cand[:, None, :])
            dist[:, diag, diag] = np.inf
            cand = cand[np.min(dist, axis=(1, 2)) >= min_separation]
            rejections += dist.shape[0] - cand.shape[0]
            if rejections > _MAX_REJECTIONS:
                raise ValueError(
                    f"cannot sample {n} roots pairwise {min_separation:g} apart in a disk"
                    f" of radius {radius:g}: more than {_MAX_REJECTIONS} tuples rejected"
                )
        yield filled, cand
        filled += cand.shape[0]


def sample_root_tuples(
    seed_or_rng, samples: int, n: int, radius: float, min_separation: float = 0.0
) -> np.ndarray:
    """(samples, n) complex array of separated root tuples: :func:`root_tuple_rounds` joined."""
    out = np.empty((samples, n), dtype=complex)
    for start, cand in root_tuple_rounds(seed_or_rng, samples, n, radius, min_separation):
        out[start : start + cand.shape[0]] = cand
    return out
