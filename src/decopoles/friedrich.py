"""Perturbative resonance poles of an oscillator coupled to a continuum.

Second order in the coupling, the survival pole of the excited oscillator
sits at z0 = (omega0 + delta_omega) - i gamma0 with

    delta_omega = PV integral of g(w) / (omega0 - w) over the band,
    gamma0      = pi * g(omega0),

where g(w) >= 0 collects the mode density times the squared coupling.  A
ladder of excitations then decays through the equally spaced complex
spectrum z_n = n z0: every truncated Fock sum of the package, here and in
``omnes``, is a weighted sum of one set of ladder phases exp(-i z_n t / hbar).

Sign convention: widths are stored positive and enter as -i gamma0, so
amplitudes damp as exp(-n gamma0 t / hbar).  A printed variant with the
opposite sign of the imaginary part appears in some derivations; this
module always decays.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .numerics import adaptive_simpson, principal_value_integral

_PROBE_POINTS = 33


@dataclass(frozen=True)
class SpectralDensity:
    """Oscillator frequency plus the coupling-squared density g on [lo, hi].

    ``fn`` is any callable g(omega) >= 0; outside [lo, hi] the density is
    identically zero.  Negativity is probed on a coarse grid at build time
    and rechecked at every evaluation.
    """

    omega0: float
    fn: Callable[[float], float]
    lo: float
    hi: float

    def __post_init__(self):
        for name in ("omega0", "lo", "hi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(map(math.isfinite, (self.omega0, self.lo, self.hi))):
            raise ValidationError("omega0, lo, hi must be finite")
        if not self.lo < self.hi:
            raise ValidationError(f"empty support [{self.lo}, {self.hi}]")
        if not callable(self.fn):
            raise ValidationError("fn must be callable")
        for w in np.linspace(self.lo, self.hi, _PROBE_POINTS):
            self(float(w))

    def __call__(self, omega: float) -> float:
        if omega < self.lo or omega > self.hi:
            return 0.0
        value = float(self.fn(omega))
        if not math.isfinite(value) or value < 0.0:
            raise ValidationError(f"density is negative or nonfinite at omega={omega}: {value}")
        return value

    @classmethod
    def from_samples(cls, omega0, omegas, values) -> "SpectralDensity":
        """Linear interpolation through (omega, g) nodes, sorted and positive."""
        w = np.asarray(omegas, dtype=float)
        g = np.asarray(values, dtype=float)
        if w.ndim != 1 or w.size < 2 or g.shape != w.shape:
            raise ValidationError("need at least two (omega, g) sample pairs")
        if not np.all(np.diff(w) > 0.0):  # NaN nodes fail too
            raise ValidationError("sample frequencies must be strictly increasing")
        if np.any(g < 0.0) or not np.all(np.isfinite(g)):
            raise ValidationError("sampled density must be finite and nonnegative")
        return cls(omega0, lambda x: float(np.interp(x, w, g)), float(w[0]), float(w[-1]))

    @classmethod
    def from_csv(cls, omega0, text: str) -> "SpectralDensity":
        """Parse 'omega,g' rows (optional header) into an interpolated density."""
        omegas = []
        values = []
        for i, ln in enumerate(ln.strip() for ln in text.splitlines() if ln.strip()):
            parts = ln.split(",")
            if len(parts) != 2:
                raise ValidationError(f"bad density row: {ln!r}")
            try:
                w, g = float(parts[0]), float(parts[1])
            except ValueError:
                if i == 0:  # tolerate a single header line
                    continue
                raise ValidationError(f"bad density row: {ln!r}")
            omegas.append(w)
            values.append(g)
        return cls.from_samples(omega0, omegas, values)

    @classmethod
    def lorentzian(cls, omega0, center, width, weight=1.0, lo=None, hi=None) -> "SpectralDensity":
        """g(w) = weight * (width/pi) / ((w-center)^2 + width^2).

        Unit weight integrates to 1 over the real line; the default support
        spans +-3000 widths so the band-edge truncation error of the level
        shift stays below 1e-10.
        """
        center = float(center)
        width = float(width)
        if width <= 0.0:
            raise ValidationError("lorentzian width must be positive")
        if lo is None:
            lo = center - 3000.0 * width
        if hi is None:
            hi = center + 3000.0 * width

        def g(w, _c=center, _eta=width, _a=float(weight)):
            return _a * (_eta / math.pi) / ((w - _c) ** 2 + _eta**2)

        return cls(omega0, g, lo, hi)

    @classmethod
    def ohmic(cls, omega0, cutoff, weight=1.0, lo=None, hi=None) -> "SpectralDensity":
        """g(w) = weight * w * exp(-w/cutoff) for w >= 0; the default support is [0, 40 cutoff]."""
        cutoff = float(cutoff)
        if cutoff <= 0.0:
            raise ValidationError("ohmic cutoff must be positive")
        if hi is None:
            hi = 40.0 * cutoff

        def g(w, _wc=cutoff, _a=float(weight)):
            return _a * w * math.exp(-w / _wc) if w >= 0.0 else 0.0

        return cls(omega0, g, 0.0 if lo is None else lo, hi)


@dataclass(frozen=True)
class PerturbativePole:
    """Level shift and width of the dressed oscillator: z0 = (omega0+shift) - i gamma0."""

    omega0: float
    delta_omega: float
    gamma0: float

    def __post_init__(self):
        for name in ("omega0", "delta_omega", "gamma0"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.gamma0 < 0.0:
            raise ValidationError("gamma0 must be nonnegative")

    @property
    def z0(self) -> complex:
        return complex(self.omega0 + self.delta_omega, -self.gamma0)

    @property
    def omega_prime(self) -> float:
        return self.omega0 + self.delta_omega


def pole_from_rate(omega: float, gamma0: float) -> PerturbativePole:
    """Pole with the shift absorbed: z0 = omega - i gamma0.

    Use when the dressed frequency is known directly (the oscillator
    identification omega' = omega that drops slow background terms).
    """
    return PerturbativePole(omega, 0.0, gamma0)


def perturbative_pole(sd: SpectralDensity) -> PerturbativePole:
    """Second-order pole of the coupled oscillator.

    The shift is the principal-value integral of g(w)/(omega0 - w) over the
    support; the width is pi * g(omega0).  With omega0 strictly inside the
    band the integrand is singular and handled by symmetric cancellation;
    outside the band the integral is regular and the width vanishes (the
    excitation is stable to this order).  omega0 exactly on a band edge is
    rejected since neither treatment applies.  Both integrals run to an
    absolute tolerance of 1e-9, adaptive Simpson's default.
    """
    w0 = sd.omega0
    if w0 == sd.lo or w0 == sd.hi:
        raise ValidationError(
            f"omega0 = {w0} sits exactly on the support edge [{sd.lo}, {sd.hi}]"
        )
    if sd.lo < w0 < sd.hi:
        shift = principal_value_integral(sd, w0, sd.lo, sd.hi)
        gamma0 = math.pi * sd(w0)
    else:
        shift = adaptive_simpson(lambda w: sd(w) / (w0 - w), sd.lo, sd.hi)
        gamma0 = 0.0
    return PerturbativePole(w0, shift, gamma0)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Truncated complex spectrum z_n = n z0, n = 0..N_max.

    The damping enters only through Im z0 <= 0.  Levels are linear in n by
    construction; the additivity z_m + z_n = z_{m+n} is exact whenever the
    products n * z0 are representable (dyadic z0) and otherwise holds to
    one rounding of the last place.
    """

    N_max: int
    z0: complex

    def __post_init__(self):
        n_max = int(self.N_max)
        if n_max < 1:
            raise ValidationError("N_max must be at least 1")
        z0 = complex(self.z0)
        _pole_width(z0)
        object.__setattr__(self, "N_max", n_max)
        object.__setattr__(self, "z0", z0)


def _pole_width(z0: complex) -> float:
    """gamma = -Im z0 of a decaying pole; a growing one (Im z0 > 0) raises ValidationError."""
    z0 = complex(z0)
    if z0.imag > 0.0:
        raise ValidationError(f"Im z0 = {z0.imag} must be <= 0 (decaying pole)")
    return -z0.imag


@functools.lru_cache(maxsize=32)
def _ladder_exponents(size: int, z0_bits: bytes) -> np.ndarray:
    """-i n z0 for n = 0..size-1, shared read-only; keyed by z0's bits, as == merges +-0.0."""
    out = -1j * np.arange(size) * complex(*struct.unpack("dd", z0_bits))
    out.setflags(write=False)
    return out


def _ladder_phases(size: int, z0: complex, t: float, hbar: float) -> np.ndarray:
    """exp(-i z_n t / hbar) on the ladder z_n = n z0, n = 0..size-1, at one time t.

    On a purely damped ladder (Re z0 = 0, in range) the phases past exponent -746 stay exp's exact (+0, +0).
    """
    damped = z0.real == 0.0 and t > 0.0 and 0.0 < -z0.imag * size * max(t, 1.0) < 1e300 and 1e-300 < hbar < 1e300
    live = int(min(size, 746.0 * hbar / -z0.imag / t + 2.0)) if damped else size  # + 2: past 4 roundings
    out = np.zeros(size, dtype=complex)
    head, exps = out[:live], _ladder_exponents(size, struct.pack("dd", z0.real, z0.imag))[:live]
    np.exp(np.divide(np.multiply(exps, t, out=head), hbar, out=head), out=head)  # in one buffer
    return out


def lee_friedrich_spectrum(pole: PerturbativePole, N_max: int) -> EffectiveHamiltonian:
    """Equally spaced tower n * z0 built from the perturbative pole."""
    return EffectiveHamiltonian(N_max, pole.z0)


def evolve_amplitude(a_coeffs, b_coeffs, ham: EffectiveHamiltonian, t: float, hbar: float = 1.0) -> complex:
    """A(t) = sum_n b_n conj(a_n) exp(-i n z0 t / hbar).

    The n-th term damps as exp(-n gamma0 t / hbar), so |A| never exceeds
    sum |b_n a_n| for t >= 0.
    """
    a = np.asarray(a_coeffs, dtype=complex)
    b = np.asarray(b_coeffs, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("coefficient lists must be 1-D and equal length")
    if a.size > ham.N_max + 1:
        raise ValidationError(
            f"{a.size} coefficients exceed the spectrum truncation N_max={ham.N_max}"
        )
    if hbar <= 0.0:
        raise ValidationError("hbar must be positive")
    return complex(np.sum(b * np.conj(a) * _ladder_phases(a.size, ham.z0, t, hbar)))
