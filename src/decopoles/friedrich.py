"""Perturbative resonance poles of an oscillator coupled to a continuum.

Second order in the coupling, the survival pole of the excited oscillator
sits at z0 = (omega0 + delta_omega) - i gamma0 with

    delta_omega = PV integral of g(w) / (omega0 - w) over the band,
    gamma0      = pi * g(omega0),

where g(w) >= 0 collects the mode density times the squared coupling.
The command line hands (gamma0, omega0 + delta_omega) to ``omnes``, whose
excitation ladder decays through the equally spaced spectrum z_n = n z0.

Sign convention: widths are stored positive and enter as -i gamma0, so
amplitudes damp as exp(-n gamma0 t / hbar).  A printed variant with the
opposite sign of the imaginary part appears in some derivations; this
module always decays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .numerics import _number, adaptive_simpson, principal_value_integral

_PROBE_POINTS = 33


def _default_band(kind: str, *shape: float) -> tuple:
    """The default support (lo, hi) of a "lorentzian" (center, width) or "ohmic" (cutoff,) density."""
    if kind == "lorentzian":
        center, width = shape
        return center - 3000.0 * width, center + 3000.0 * width
    return 0.0, 40.0 * shape[0]


def _reads_as_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class SpectralDensity:
    """Oscillator frequency plus the coupling-squared density g on [lo, hi].

    ``omega0``, ``lo`` and ``hi`` are finite numbers, each named if it is not.
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
            object.__setattr__(self, name, _number(getattr(self, name), name))
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
        """Parse 'omega,g' rows into an interpolated density; a first row with no numeric field is a header."""
        omegas, values = [], []
        for i, ln in enumerate(ln.strip() for ln in text.splitlines() if ln.strip()):
            parts = ln.split(",")
            if len(parts) != 2:
                raise ValidationError(f"bad density row: {ln!r}")
            try:
                w, g = float(parts[0]), float(parts[1])
            except ValueError:
                if i == 0 and not any(map(_reads_as_number, parts)):  # only a row of names is a header
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
        shift stays below 1e-10.  ``center`` is a finite number, ``width`` and
        ``weight`` finite numbers > 0.
        """
        center, width = _number(center, "center"), _number(width, "width", "> 0")
        weight = _number(weight, "weight", "> 0")
        band_lo, band_hi = _default_band("lorentzian", center, width)

        def g(w, _c=center, _eta=width, _a=weight):
            return _a * (_eta / math.pi) / ((w - _c) ** 2 + _eta**2)

        return cls(omega0, g, band_lo if lo is None else lo, band_hi if hi is None else hi)

    @classmethod
    def ohmic(cls, omega0, cutoff, weight=1.0, lo=None, hi=None) -> "SpectralDensity":
        """g(w) = weight * w * exp(-w/cutoff) for w >= 0, ``cutoff`` and ``weight`` finite numbers > 0; the
        default support is [0, 40 cutoff]."""
        cutoff, weight = _number(cutoff, "cutoff", "> 0"), _number(weight, "weight", "> 0")
        band_lo, band_hi = _default_band("ohmic", cutoff)

        def g(w, _wc=cutoff, _a=weight):
            return _a * w * math.exp(-w / _wc) if w >= 0.0 else 0.0

        return cls(omega0, g, band_lo if lo is None else lo, band_hi if hi is None else hi)


@dataclass(frozen=True)
class PerturbativePole:
    """Level shift and width of the dressed oscillator: z0 = (omega0+shift) - i gamma0."""

    omega0: float
    delta_omega: float
    gamma0: float

    def __post_init__(self):
        for name, bound in (("omega0", ""), ("delta_omega", ""), ("gamma0", ">= 0")):
            object.__setattr__(self, name, _number(getattr(self, name), name, bound))

    @property
    def z0(self) -> complex:
        return complex(self.omega0 + self.delta_omega, -self.gamma0)

    @property
    def omega_prime(self) -> float:
        return self.omega0 + self.delta_omega


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
        raise ValidationError(f"omega0 = {w0} sits exactly on the support edge [{sd.lo}, {sd.hi}]")
    if sd.lo < w0 < sd.hi:
        shift = principal_value_integral(sd, w0, sd.lo, sd.hi)
        gamma0 = math.pi * sd(w0)
    else:
        shift = adaptive_simpson(lambda w: sd(w) / (w0 - w), sd.lo, sd.hi)
        gamma0 = 0.0
    return PerturbativePole(w0, shift, gamma0)
