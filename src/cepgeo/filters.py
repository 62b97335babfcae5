"""Rational transfer-function models: validation, cepstrum, reflections.

A filter is described by a positive gain ``sigma``, pole and zero locations
in the complex plane, optional Blaschke (all-pass) points, and an integer
power of ``z``.  The transfer function is

    h(z) = (sigma^2 / 2 pi) * z^R * prod_j (1 - zeta_j / z)
                                  / prod_i (1 - p_i / z)
                                  * prod_s b(z, z_s)

with the Blaschke factor ``b(z, z_s) = (|z_s|/z_s) (z_s - z)/(1 - conj(z_s) z)``
(and ``b(z, 0) = z``).  The spectral density is ``S(w) = |h(e^{iw})|^2``;
Blaschke factors and ``z^R`` have modulus 1 on the circle, so S, the
cepstrum and the geometry are those of the minimum-phase part.

Everything here is a pure function of immutable inputs; values are safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # for annotations; numpy is imported where it runs
    import numpy as np

EPS_STAB_DEFAULT = 1e-6
TRUNCATION_DEFAULT = 256
GAIN_TERM_UNIT = math.sqrt(2.0 * math.pi)  # sigma for which sigma^2/(2 pi) == 1


class FilterError(ValueError):
    """Base class for filter validation failures."""

    code = "FILTER_ERROR"


class _RootViolation(FilterError):
    """Roots with bad moduli: ``violations`` lists (index, modulus), all reported at once."""

    where: str  # the root list named in the detail
    template: str  # the message, with {detail} for the offending roots

    def __init__(self, violations: list[tuple[int, float]]):
        self.violations = violations
        detail = ", ".join(f"{self.where}[{i}] has modulus {m:.6g}" for i, m in violations)
        super().__init__(self.template.format(detail=detail))


class PoleOutsideDisk(_RootViolation):
    code = "POLE_OUTSIDE_DISK"
    where = "poles"
    template = "poles must lie strictly inside the unit disk: {detail}"


class ZeroOutsideDisk(_RootViolation):
    code = "ZERO_OUTSIDE_DISK"
    where = "zeros"
    template = "zeros outside the unit disk (filter is not minimum phase): {detail}"


class ZeroOnCircle(_RootViolation):
    code = "ZERO_ON_CIRCLE"
    where = "zeros"
    template = (
        "zeros on (or within the stability margin of) the unit circle are not "
        "representable: the log-transfer series diverges there: {detail}"
    )


class BlaschkePointOutsideDisk(_RootViolation):
    code = "BLASCHKE_POINT_OUTSIDE_DISK"
    where = "blaschke"
    template = "Blaschke points must lie inside the open unit disk: {detail}"


class NonPositiveGain(FilterError):
    code = "NON_POSITIVE_GAIN"

    def __init__(self, gain: float):
        super().__init__(f"gain must be positive, got {gain!r}")


def coordinate_labels(signature) -> tuple[str, ...]:
    """``pole<i>`` or ``zero<i>`` per coordinate, ``i`` the coordinate index."""
    return tuple(f"{'pole' if c < 0 else 'zero'}{i}" for i, c in enumerate(signature))


def _as_complex_tuple(values, what: str) -> tuple[complex, ...]:
    out = []
    for v in values:
        z = complex(v)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"{what} must be finite, got {z!r}")
        out.append(z)
    return tuple(out)


@dataclass(frozen=True)
class FilterSpec:
    """Gain plus pole/zero/Blaschke description of a rational transfer function.

    A ``FilterSpec`` is a plain record; only finiteness is checked at
    construction.  Stability and minimum phase are enforced by
    :func:`validate`, which is the sole way to obtain a
    :class:`ValidatedFilter`.
    """

    gain: float
    poles: tuple[complex, ...] = ()
    zeros: tuple[complex, ...] = ()
    blaschke_points: tuple[complex, ...] = ()
    z_power: int = 0

    def __post_init__(self):
        gain = float(self.gain)
        if not math.isfinite(gain):
            raise ValueError(f"gain must be finite, got {gain!r}")
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "poles", _as_complex_tuple(self.poles, "poles"))
        object.__setattr__(self, "zeros", _as_complex_tuple(self.zeros, "zeros"))
        object.__setattr__(
            self, "blaschke_points", _as_complex_tuple(self.blaschke_points, "blaschke_points")
        )
        object.__setattr__(self, "z_power", int(self.z_power))

    @property
    def log_gain_term(self) -> float:
        """ln(sigma^2/(2 pi)), the constant term of log h, finite for every finite sigma > 0."""
        return 2.0 * math.log(self.gain) - math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ValidatedFilter(FilterSpec):
    """A stable, minimum-phase filter with all roots inside the margin.

    Construct through :func:`validate`.  Coordinates of the underlying
    manifold are the poles followed by the zeros; ``signature`` holds the
    conventional -1 (pole) / +1 (zero) markers.
    """

    eps_stab: float = field(kw_only=True)
    has_exact_cancellation: bool = field(kw_only=True)

    def __post_init__(self):
        pass  # validate passes a FilterSpec's normalised fields; redoing it doubles its cost

    @property
    def dimension(self) -> int:
        return len(self.poles) + len(self.zeros)

    @property
    def signature(self) -> tuple[int, ...]:
        return (-1,) * len(self.poles) + (1,) * len(self.zeros)

    @property
    def coordinates(self) -> tuple[complex, ...]:
        return self.poles + self.zeros

    @property
    def labels(self) -> tuple[str, ...]:
        return coordinate_labels(self.signature)

    def to_spec(self) -> FilterSpec:
        return FilterSpec(self.gain, self.poles, self.zeros, self.blaschke_points, self.z_power)


@dataclass(frozen=True)
class CepstrumSeries:
    """Truncated complex cepstrum of the minimum-phase part of the filter.

    ``coeffs[r-1]`` holds the coefficient of ``z^{-r}`` and ``tail_bound`` a
    closed-form upper bound on the discarded ``sum_{r>N} |phi_r|^2``.
    """

    phi0: complex
    coeffs: np.ndarray
    truncation: int
    tail_bound: float


def _raise_if(error: type[_RootViolation], violations: list[tuple[int, float]]) -> None:
    if violations:
        raise error(violations)


def _check_zero_band(zeros: tuple[complex, ...], eps_stab: float) -> None:
    """Raise :class:`ZeroOnCircle` for zeros in ``(1 - eps_stab, 1/(1 - eps_stab))``."""
    limit = 1.0 - eps_stab
    on_circle = [(j, abs(zt)) for j, zt in enumerate(zeros) if limit < abs(zt) < 1.0 / limit]
    _raise_if(ZeroOnCircle, on_circle)


def check_eps_stab(eps_stab: float) -> None:
    """Raise ValueError unless the stability margin lies in (0, 1) and moves 1 - eps_stab off 1."""
    if not (0.0 < eps_stab < 1.0):
        raise ValueError(f"eps_stab must be in (0, 1), got {eps_stab!r}")
    if 1.0 - eps_stab == 1.0:  # at or below 2^-54 the margin rounds away, and |root| = 1 passes
        raise ValueError(f"eps_stab = {eps_stab!r} is too small: 1 - eps_stab rounds to 1")


def validate(spec: FilterSpec, eps_stab: float = EPS_STAB_DEFAULT) -> ValidatedFilter:
    """Check stability and minimum phase, returning a ValidatedFilter.

    Every pole and zero must satisfy ``|root| <= 1 - eps_stab``.  Zeros
    within the band ``(1 - eps_stab, 1/(1 - eps_stab))`` raise
    :class:`ZeroOnCircle` (the geometry is singular there); zeros beyond the
    band raise :class:`ZeroOutsideDisk` and can be routed through
    :func:`outer_factor` instead.  All offending roots are reported at once.

    Exactly coinciding pole/zero pairs are legal but degenerate downstream;
    they are flagged on the result, never cancelled silently.
    """
    check_eps_stab(eps_stab)
    if spec.gain <= 0.0:
        raise NonPositiveGain(spec.gain)

    limit = 1.0 - eps_stab
    _raise_if(PoleOutsideDisk, [(i, abs(p)) for i, p in enumerate(spec.poles) if abs(p) > limit])
    bad_blaschke = [(i, abs(b)) for i, b in enumerate(spec.blaschke_points) if abs(b) >= 1.0]
    _raise_if(BlaschkePointOutsideDisk, bad_blaschke)
    _check_zero_band(spec.zeros, eps_stab)
    _raise_if(ZeroOutsideDisk, [(j, abs(zt)) for j, zt in enumerate(spec.zeros) if abs(zt) > limit])

    cancellation = bool(set(spec.poles) & set(spec.zeros))
    return ValidatedFilter(
        spec.gain,
        spec.poles,
        spec.zeros,
        spec.blaschke_points,
        spec.z_power,
        eps_stab=eps_stab,
        has_exact_cancellation=cancellation,
    )


def _series_tail_bound(n_roots: int, rho: float, trunc: int) -> float:
    # |phi_r| <= n rho^r / r, hence
    # sum_{r>N} |phi_r|^2 <= n^2 rho^{2(N+1)} / ((N+1)^2 (1 - rho^2)).
    if n_roots == 0 or rho == 0.0:
        return 0.0
    return n_roots**2 * rho ** (2 * (trunc + 1)) / ((trunc + 1) ** 2 * (1.0 - rho * rho))


def cepstrum(f: ValidatedFilter, trunc: int = TRUNCATION_DEFAULT) -> CepstrumSeries:
    """Complex cepstrum of the minimum-phase part of log h up to order ``trunc``.

    Coefficients come from the closed-form root power sums,

        phi_r = (sum_i p_i^r - sum_j zeta_j^r) / r,

    not from an FFT of sampled log h; the FFT route, ``cepstrum_fft`` in the
    tests' ``conftest.py``, checks it independently.  The unimodular factors,
    z^R and the Blaschke factors, are left out: they do not depend on the
    coordinates, and the Kahler potential is sum_{r >= 1} |phi_r|^2.
    """
    if trunc < 1:
        raise ValueError(f"truncation must be >= 1, got {trunc}")
    import numpy as np

    r = np.arange(1, trunc + 1, dtype=float)
    phi = np.zeros(trunc, dtype=complex)
    for p in f.poles:
        phi += np.power(p, r)
    for zt in f.zeros:
        phi -= np.power(zt, r)
    phi /= r

    moduli = [abs(x) for x in f.poles + f.zeros]
    rho = max(moduli, default=0.0)
    tail = _series_tail_bound(len(moduli), rho, trunc)
    return CepstrumSeries(
        phi0=complex(f.log_gain_term), coeffs=phi, truncation=trunc, tail_bound=tail
    )


def outer_factor(spec: FilterSpec, eps_stab: float = EPS_STAB_DEFAULT) -> ValidatedFilter:
    """Reflect zeros outside the disk to their minimum-phase positions.

    Each zero with ``|zeta| > 1`` is replaced by ``1/conj(zeta)`` and the
    gain term ``sigma^2/(2 pi)`` is multiplied by ``|zeta|``, which preserves
    the spectral density pointwise on the circle.  Zeros within the margin
    band around the circle raise :class:`ZeroOnCircle`.  Minimum-phase input
    is returned unchanged (the map is idempotent).
    """
    _check_zero_band(spec.zeros, eps_stab)
    zeros = tuple(1.0 / zt.conjugate() if abs(zt) > 1.0 else zt for zt in spec.zeros)
    term_factor = math.prod(abs(zt) for zt in spec.zeros if abs(zt) > 1.0)
    reflected = replace(spec, zeros=zeros, gain=spec.gain * math.sqrt(term_factor))
    return validate(reflected, eps_stab)


def reflect_zero_out(f: ValidatedFilter, index: int) -> FilterSpec:
    """Move one zero outside the disk, compensating the gain term.

    Inverse of the :func:`outer_factor` reflection for a single zero: the
    returned spec has the same spectral density but is no longer minimum
    phase.  Used by the invariance checks.
    """
    zt = f.zeros[index]
    if zt == 0.0:
        raise ValueError("cannot reflect a zero at the origin")
    zeros = list(f.zeros)
    zeros[index] = 1.0 / zt.conjugate()
    return replace(f.to_spec(), gain=f.gain * math.sqrt(abs(zt)), zeros=tuple(zeros))


def reciprocal(f: ValidatedFilter) -> ValidatedFilter:
    """Filter of the inverse system 1/h: poles and zeros swap roles.

    The gain maps as sigma -> 2 pi / sigma so the gain terms are mutual
    reciprocals.  Only root/gain filters are invertible in this family;
    Blaschke factors would put poles inside the disk.
    """
    if f.blaschke_points:
        raise ValueError("reciprocal of a filter with Blaschke factors is not minimum phase")
    inverse = FilterSpec(2.0 * math.pi / f.gain, poles=f.zeros, zeros=f.poles, z_power=-f.z_power)
    return validate(inverse, f.eps_stab)
