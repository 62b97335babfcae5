"""Deterministic sampling of root tuples inside the stability polydisk.

Tuples are drawn in rounds over a leading sample axis.  Each tuple takes
its n radius draws, then its n angle draws, from the generator, so a seed
gives the same tuples in any round size.
"""

from __future__ import annotations

import numpy as np

# A round draws the tuples whose (k, n, n) separation arrays take about this
# many bytes, and never more than the tuples still missing.
_ROUND_BYTES = 1 << 18


def sample_root_tuples(
    seed_or_rng,
    samples: int,
    n: int,
    radius: float,
    min_separation: float = 0.0,
    max_rejections: int = 100_000,
) -> np.ndarray:
    """(samples, n) complex array of root tuples, pairwise separated.

    Tuples whose minimum pairwise distance falls below ``min_separation``
    are rejected and redrawn, so the output is deterministic for a fixed
    seed but the rejection count is data dependent.  More than
    ``max_rejections`` rejections in total raise ``RuntimeError``.  A round
    draws at most the tuples still missing, so a generator passed in ends
    where drawing one tuple at a time would leave it.
    """
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    out = np.empty((samples, n), dtype=complex)
    filled = 0
    rejections = 0
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
            if rejections > max_rejections:
                raise RuntimeError(
                    "rejection sampling failed; separation too large for the disk"
                )
        out[filled : filled + cand.shape[0]] = cand
        filled += cand.shape[0]
    return out
