"""Spectral densities, second-order poles, ladder spectrum, amplitude decay."""

import math

import numpy as np
import pytest

from decopoles.errors import ValidationError
from decopoles.friedrich import (
    EffectiveHamiltonian,
    PerturbativePole,
    SpectralDensity,
    evolve_amplitude,
    lee_friedrich_spectrum,
    perturbative_pole,
    pole_from_rate,
)


class TestSpectralDensity:
    def test_zero_outside_support(self):
        sd = SpectralDensity(1.0, lambda w: 2.0, 0.0, 3.0)
        assert sd(-0.5) == 0.0
        assert sd(3.5) == 0.0
        assert sd(1.7) == 2.0

    def test_negative_density_probed_at_build(self):
        with pytest.raises(ValidationError):
            SpectralDensity(0.5, lambda w: -1.0, 0.0, 1.0)

    def test_negative_density_caught_at_evaluation(self):
        # a dip narrow enough to slip between the build-time probes
        def g(w):
            return -1.0 if abs(w - 0.015625) < 1e-6 else 1.0

        sd = SpectralDensity(0.5, g, 0.0, 1.0)
        with pytest.raises(ValidationError):
            sd(0.015625)

    def test_empty_support(self):
        with pytest.raises(ValidationError):
            SpectralDensity(0.5, lambda w: 1.0, 2.0, 2.0)

    def test_fn_must_be_callable(self):
        with pytest.raises(ValidationError):
            SpectralDensity(0.5, 3.0, 0.0, 1.0)

    def test_from_samples_interpolates(self):
        sd = SpectralDensity.from_samples(1.0, [0.0, 2.0], [0.0, 4.0])
        assert sd(0.5) == pytest.approx(1.0, rel=1e-15)
        assert sd(2.0) == 4.0

    def test_from_samples_validation(self):
        with pytest.raises(ValidationError):
            SpectralDensity.from_samples(1.0, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            SpectralDensity.from_samples(1.0, [0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValidationError):
            SpectralDensity.from_samples(1.0, [0.0], [1.0])

    def test_from_csv(self):
        sd = SpectralDensity.from_csv(1.0, "omega,g\n0.0,0.0\n1.0,2.0\n2.0,0.0\n")
        assert sd(1.0) == 2.0
        assert sd(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_from_csv_headerless(self):
        sd = SpectralDensity.from_csv(0.5, "0.0,1.0\n1.0,1.0\n")
        assert sd(0.25) == 1.0

    def test_from_csv_bad_row(self):
        with pytest.raises(ValidationError):
            SpectralDensity.from_csv(0.5, "0.0,1.0\n1.0\n")

    def test_lorentzian_peak(self):
        sd = SpectralDensity.lorentzian(1.0, center=1.0, width=0.5, weight=2.0)
        assert sd(1.0) == pytest.approx(2.0 * (0.5 / math.pi) / 0.25, rel=1e-15)
        assert sd.lo == 1.0 - 1500.0
        assert sd.hi == 1.0 + 1500.0

    def test_lorentzian_bad_width(self):
        with pytest.raises(ValidationError):
            SpectralDensity.lorentzian(1.0, 1.0, 0.0)

    def test_ohmic(self):
        sd = SpectralDensity.ohmic(1.0, cutoff=2.0, weight=3.0)
        assert sd(2.0) == pytest.approx(6.0 * math.exp(-1.0), rel=1e-15)
        assert sd.lo == 0.0
        assert sd.hi == 80.0

    def test_ohmic_bad_cutoff(self):
        with pytest.raises(ValidationError):
            SpectralDensity.ohmic(1.0, cutoff=-1.0)


class TestPerturbativePole:
    def test_zero_coupling_leaves_pole_untouched(self):
        sd = SpectralDensity(0.3, lambda w: 0.0, -1.0, 1.0)
        pole = perturbative_pole(sd)
        assert pole.delta_omega == 0.0
        assert pole.gamma0 == 0.0
        assert pole.z0 == complex(0.3, 0.0)

    def test_symmetric_density_has_no_shift(self):
        sd = SpectralDensity(2.0, lambda w: math.exp(-((w - 2.0) ** 2)), 0.0, 4.0)
        pole = perturbative_pole(sd)
        assert abs(pole.delta_omega) < 1e-12
        assert pole.gamma0 == pytest.approx(math.pi, rel=1e-15)

    def test_lorentzian_finite_band(self):
        """Frozen quadrature oracle for the band-limited level shift."""
        sd = SpectralDensity.lorentzian(1.3, center=0.6, width=0.7, lo=-9.0, hi=11.0)
        pole = perturbative_pole(sd)
        assert pole.delta_omega == pytest.approx(0.71421186919449668011, abs=5e-9)
        assert pole.gamma0 == math.pi * sd(1.3)

    def test_lorentzian_wide_band_analytic(self):
        # infinite-band closed form: shift = (w0-c) / ((w0-c)^2 + eta^2)
        sd = SpectralDensity.lorentzian(1.3, center=0.6, width=0.7)
        pole = perturbative_pole(sd)
        assert pole.delta_omega == pytest.approx(5.0 / 7.0, abs=1e-7)

    def test_edge_rejected(self):
        sd = SpectralDensity(0.0, lambda w: 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            perturbative_pole(sd)

    def test_outside_band_is_stable(self):
        # constant density on [2, 4] seen from w0 = 1: regular integral
        sd = SpectralDensity(1.0, lambda w: 0.5, 2.0, 4.0)
        pole = perturbative_pole(sd)
        assert pole.gamma0 == 0.0
        assert pole.delta_omega == pytest.approx(-0.5 * math.log(3.0), abs=1e-8)

    def test_linearity_in_density(self):
        def g1(w):
            return math.exp(-(w**2))

        def g2(w):
            return 1.0 / (1.0 + w**2)

        lo, hi, w0 = -6.0, 8.0, 0.7
        p1 = perturbative_pole(SpectralDensity(w0, g1, lo, hi))
        p2 = perturbative_pole(SpectralDensity(w0, g2, lo, hi))
        both = perturbative_pole(SpectralDensity(w0, lambda w: g1(w) + 2.0 * g2(w), lo, hi))
        assert both.delta_omega == pytest.approx(p1.delta_omega + 2 * p2.delta_omega, abs=1e-8)
        assert both.gamma0 == pytest.approx(p1.gamma0 + 2 * p2.gamma0, rel=1e-12)

    def test_pole_properties(self):
        pole = PerturbativePole(2.0, 0.5, 0.3)
        assert pole.omega_prime == 2.5
        assert pole.z0 == complex(2.5, -0.3)

    def test_negative_width_rejected(self):
        with pytest.raises(ValidationError):
            PerturbativePole(1.0, 0.0, -0.1)

    def test_pole_from_rate(self):
        pole = pole_from_rate(2.0, 0.3)
        assert pole.delta_omega == 0.0
        assert pole.z0 == complex(2.0, -0.3)


class TestEffectiveHamiltonian:
    def test_example_levels(self):
        ham = EffectiveHamiltonian(3, 1.0 - 0.1j)
        assert ham.levels[0] == 0.0
        assert ham.levels[1] == 1.0 - 0.1j
        assert ham.levels[2] == 2.0 - 0.2j
        assert ham.levels[3] == pytest.approx(3.0 - 0.3j, rel=1e-15)

    def test_linearity_imaginary_part(self):
        ham = EffectiveHamiltonian(10, 2.0 - 0.25j)
        assert ham.levels[10].imag == -10 * 0.25

    def test_additivity_dyadic_exact(self):
        # products n * z0 are representable, so additivity has no rounding
        ham = EffectiveHamiltonian(12, 1.5 - 0.125j)
        for m in range(7):
            for n in range(7):
                assert ham.levels[m] + ham.levels[n] == ham.levels[m + n]

    def test_additivity_generic_one_ulp(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z0 = complex(rng.uniform(-10, 10), -rng.uniform(0, 1))
            ham = EffectiveHamiltonian(12, z0)
            for m in range(6):
                for n in range(6):
                    lhs = ham.levels[m] + ham.levels[n]
                    rhs = ham.levels[m + n]
                    assert abs(lhs - rhs) <= 4e-16 * max(abs(rhs), 1.0)

    def test_from_pole(self):
        ham = lee_friedrich_spectrum(pole_from_rate(1.0, 0.1), 3)
        assert ham.levels == (0.0, 1.0 - 0.1j, 2.0 - 0.2j, (3.0 - 0.1j * 3))

    def test_truncation_floor(self):
        with pytest.raises(ValidationError):
            EffectiveHamiltonian(0, 1.0 - 0.1j)

    def test_levels_built_on_first_read(self):
        ham = EffectiveHamiltonian(1000, 0.7 - 0.03j)
        assert "levels" not in vars(ham)
        assert ham == EffectiveHamiltonian(1000, 0.7 - 0.03j)
        assert ham.levels == tuple(n * (0.7 - 0.03j) for n in range(1001))
        assert ham.levels is ham.levels
        assert ham == EffectiveHamiltonian(1000, 0.7 - 0.03j)
        assert ham != EffectiveHamiltonian(999, 0.7 - 0.03j)

    def test_growth_rejected(self):
        with pytest.raises(ValidationError):
            EffectiveHamiltonian(3, 1.0 + 0.1j)


class TestEvolveAmplitude:
    def ham(self, gamma0=0.2, omega=1.0, n_max=40):
        return lee_friedrich_spectrum(pole_from_rate(omega, gamma0), n_max)

    def test_vacuum_survives(self):
        ham = self.ham()
        for t in (0.0, 1.0, 37.5):
            assert evolve_amplitude([1.0], [1.0], ham, t) == 1.0 + 0.0j

    def test_single_level_decay(self):
        ham = self.ham(gamma0=0.2)
        t = 1.0 / 0.2
        amp = evolve_amplitude([0.0, 1.0], [0.0, 1.0], ham, t)
        assert abs(amp) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_level_k_survival_time(self):
        # |A| for the pure n = k level hits 1/e at t = hbar / (k gamma0)
        ham = self.ham(gamma0=0.3)
        for k in (1, 2, 3):
            coeffs = [0.0] * k + [1.0]
            t = 1.0 / (k * 0.3)
            amp = evolve_amplitude(coeffs, coeffs, ham, t)
            assert abs(amp) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_initial_inner_product(self):
        ham = self.ham()
        a = [0.3 + 0.1j, 0.5, 0.2j]
        b = [0.1, 0.4 - 0.2j, 0.6]
        got = evolve_amplitude(a, b, ham, 0.0)
        want = sum(bn * np.conj(an) for an, bn in zip(a, b))
        assert got == pytest.approx(want, rel=1e-15)

    def test_magnitude_ceiling(self):
        rng = np.random.default_rng(21)
        ham = self.ham(gamma0=0.15, omega=2.3, n_max=8)
        for _ in range(20):
            a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            t = float(rng.uniform(0.0, 20.0))
            ceiling = float(np.sum(np.abs(a) * np.abs(b)))
            assert abs(evolve_amplitude(a, b, ham, t)) <= ceiling * (1 + 1e-12)

    def test_coherent_closed_form(self):
        # ladder-coherent coefficients give A(t) = exp(|c|^2 (e^{-i z0 t} - 1))
        alpha2 = 0.64
        coeffs = []
        for n in range(41):
            coeffs.append(math.exp(-alpha2 / 2.0) * alpha2 ** (n / 2.0) / math.sqrt(math.factorial(n)))
        ham = self.ham(gamma0=0.2, omega=1.0, n_max=40)
        for t in (0.0, 0.7, 3.0, 12.0):
            got = evolve_amplitude(coeffs, coeffs, ham, t)
            want = np.exp(alpha2 * (np.exp(-1j * (1.0 - 0.2j) * t) - 1.0))
            assert got == pytest.approx(complex(want), rel=1e-12)

    def test_hbar_rescales_time(self):
        ham = self.ham()
        a = [0.6, 0.8]
        assert evolve_amplitude(a, a, ham, 3.0, hbar=2.0) == evolve_amplitude(a, a, ham, 1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            evolve_amplitude([1.0], [1.0, 0.0], self.ham(), 0.0)

    def test_truncation_enforced(self):
        ham = self.ham(n_max=2)
        with pytest.raises(ValidationError):
            evolve_amplitude([1, 0, 0, 0], [1, 0, 0, 0], ham, 0.0)

    def test_bad_hbar(self):
        with pytest.raises(ValidationError):
            evolve_amplitude([1.0], [1.0], self.ham(), 1.0, hbar=0.0)
