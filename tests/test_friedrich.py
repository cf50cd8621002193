"""Spectral densities and second-order poles; the decay ladder z_n = n z0 of one pole.

The ladder phases live in ``omnes``, their one user, and are tested here beside the pole.
"""

import cmath
import math

import numpy as np
import pytest

from decopoles.errors import ValidationError
from decopoles.friedrich import PerturbativePole, SpectralDensity, _default_band, perturbative_pole
from decopoles.omnes import _fock_table, _ladder_exponents, _ladder_phases


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

    def test_non_finite_support_rejected(self):
        with pytest.raises(ValidationError, match=r"^omega0: must be finite, got inf$"):
            SpectralDensity(math.inf, lambda w: 1.0, 0.0, 1.0)

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
        with pytest.raises(ValidationError, match="strictly increasing"):  # a NaN node
            SpectralDensity.from_samples(1.0, [0.0, math.nan, 3.0], [0.05, 0.05, 0.05])

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

    def test_from_csv_one_header_line(self):
        with pytest.raises(ValidationError, match="bad density row: 'foo,bar'"):
            SpectralDensity.from_csv(1.0, "omega,g\nfoo,bar\nbaz,qux\n0,0.05\n3,0.05\n")

    def test_from_csv_half_numeric_first_row_is_rejected(self):
        # a header names its columns: a first row with a numeric field is a bad row, not skipped
        with pytest.raises(ValidationError, match="bad density row: '1.0,x'"):
            SpectralDensity.from_csv(1.5, "1.0,x\n2.0,0.5\n3.0,0.7\n")

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
        assert SpectralDensity.ohmic(1.0, 2.0, 3.0, None, 5.0).lo == 0.0

    def test_ohmic_bad_cutoff(self):
        with pytest.raises(ValidationError):
            SpectralDensity.ohmic(1.0, cutoff=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["center", "width"])
    def test_lorentzian_names_a_non_finite_shape(self, field, bad):
        # the shape is named itself, not the NaN or infinite default band it would give
        with pytest.raises(ValidationError) as err:
            SpectralDensity.lorentzian(1.0, **{"center": 1.0, "width": 0.5, field: bad})
        assert str(err.value) == f"{field}: must be finite, got {bad!r}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ohmic_names_a_non_finite_cutoff(self, bad):
        with pytest.raises(ValidationError) as err:
            SpectralDensity.ohmic(1.0, cutoff=bad)
        assert str(err.value) == f"cutoff: must be finite, got {bad!r}"

    @pytest.mark.parametrize("center, width", [(1.0, 0.5), (0.6, 1e-3), (1.0 / 3.0, 0.1), (-2.5, 7.0)])
    def test_lorentzian_default_bounds_are_the_default_band(self, center, width):
        band_lo, band_hi = (x.hex() for x in _default_band("lorentzian", center, width))
        sd = SpectralDensity.lorentzian(center, center, width)
        assert (sd.lo.hex(), sd.hi.hex()) == (band_lo, band_hi)
        assert SpectralDensity.lorentzian(center, center, width, lo=center - width).hi.hex() == band_hi
        assert SpectralDensity.lorentzian(center, center, width, hi=center + width).lo.hex() == band_lo

    @pytest.mark.parametrize("cutoff", [2.0, 0.1, 1.0 / 3.0, 1e-300])
    def test_ohmic_default_bounds_are_the_default_band(self, cutoff):
        band_lo, band_hi = (x.hex() for x in _default_band("ohmic", cutoff))
        sd = SpectralDensity.ohmic(cutoff, cutoff)
        assert (sd.lo.hex(), sd.hi.hex()) == (band_lo, band_hi)
        assert SpectralDensity.ohmic(cutoff, cutoff, lo=0.5 * cutoff).hi.hex() == band_hi
        assert SpectralDensity.ohmic(cutoff, cutoff, hi=2.0 * cutoff).lo.hex() == band_lo


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

    def test_non_finite_frequency_rejected(self):
        with pytest.raises(ValidationError, match=r"^omega0: must be finite, got nan$"):
            PerturbativePole(math.nan, 0.0, 0.1)


def fock_ladder(size):
    """The ladder n = 0..size-1 as the code passes it: the Fock table's, at N = size - 1."""
    return _fock_table(0.0, size - 1).ladder


def one_line_ladder_phases(size, z0, t, hbar):
    """Reference: the ladder phases as one expression, c = -i z0 t / hbar formed once per time."""
    return np.exp(np.arange(size) * (-1j * complex(z0) * t / hbar))


class TestLadderPhases:
    """The ladder phases are the one-pass expression, bit for bit; ``test_properties`` holds them to
    their rounding bound of exp of the exact exponent."""

    @pytest.mark.parametrize("size, hbar", [(1, 1.0), (201, 1.0), (1001, 0.9)])
    def test_bits_across_the_underflow_edge(self, size, hbar):
        # n gamma t / hbar passes 746 inside the grid for every size above 1,
        # so late points mix live, subnormal and underflowed terms
        for z0 in (0.7 - 0.03j, 2.5 - 1.0j, -0.4 - 0.2j, 0.3 + 0.0j, -0.2j, complex(-0.0, -1.0)):
            edge = 746.0 * hbar / (max(size - 1, 1) * max(-z0.imag, 0.03))
            for t in np.linspace(0.0, 3.0 * edge, 61).tolist() + [-0.0, -0.5 * edge]:
                got = _ladder_phases(fock_ladder(size), z0, t, hbar)
                assert got.tobytes() == one_line_ladder_phases(size, z0, t, hbar).tobytes()

    @pytest.mark.parametrize("z0", [-1.0j, complex(-0.0, -0.37)])
    def test_bits_at_the_dead_phase_cut(self, z0):
        # exponent steps of about 0.01 put a dozen phases between -745 and -745.13,
        # below which exp reads exactly 0, and the last grid time lands one on -746
        size, gamma = 80_000, -z0.imag
        step = 0.01 / gamma
        for t in (step, np.nextafter(step, 0.0), np.nextafter(step, 1.0), 746.0 / (size - 1) / gamma):
            got = _ladder_phases(fock_ladder(size), z0, float(t), 1.0)
            assert got.tobytes() == one_line_ladder_phases(size, z0, float(t), 1.0).tobytes()

    @pytest.mark.parametrize(
        "z0, t, hbar",
        [
            (0.5 - 1.0j, 1e308, 1.0),  # F3's reproducer at hbar = 1: c is finite, n c overflows from n = 2
            (0.5 - 1.0j, 1e308, 0.25),  # F3's reproducer: c itself overflows
            (0.7 - 0.03j, 3.7, 0.9),
            (-0.2j, -13.1, 1.0),
            (complex(-0.0, -0.37), -0.0, 1.0),
            (2.5 - 1.0j, 1e-300, 7.0),
        ],
    )
    def test_exponents_on_the_table_ladder_are_the_one_line_product(self, z0, t, hbar):
        # a slice of the Fock table's ladder gives the bits of np.arange(k) * c; once its last
        # product (k - 1) c overflows, those of F3's real products n Re c and n Im c for n >= 1, with x_0 = 0
        c = -1j * complex(z0) * t / hbar
        table = _fock_table(3.0, 60)
        for k in (1, 2, 17, 61):
            with np.errstate(over="ignore", invalid="ignore"):
                got = _ladder_exponents(table.ladder[:k], z0, t, hbar)
                if cmath.isfinite((k - 1) * c):
                    want = np.arange(k) * c
                else:
                    want = np.zeros(k, dtype=complex)
                    want.real[1:], want.imag[1:] = np.arange(1, k) * c.real, np.arange(1, k) * c.imag
            assert got.tobytes() == want.tobytes(), k


def survival_amplitude(a_coeffs, b_coeffs, z0, t, hbar=1.0):
    """A(t) = sum_n b_n conj(a_n) exp(-i n z0 t / hbar), summed over the ladder phases."""
    a = np.asarray(a_coeffs, dtype=complex)
    b = np.asarray(b_coeffs, dtype=complex)
    return complex(np.sum(b * np.conj(a) * _ladder_phases(fock_ladder(a.size), z0, t, hbar)))


class TestEvolveAmplitude:
    """Survival amplitudes on the ladder: the n-th term damps as exp(-n gamma0 t / hbar)."""

    @staticmethod
    def z0(gamma0=0.2, omega=1.0):
        return complex(omega, -gamma0)

    def test_vacuum_survives(self):
        for t in (0.0, 1.0, 37.5):
            assert survival_amplitude([1.0], [1.0], self.z0(), t) == 1.0 + 0.0j

    def test_single_level_decay(self):
        t = 1.0 / 0.2
        amp = survival_amplitude([0.0, 1.0], [0.0, 1.0], self.z0(gamma0=0.2), t)
        assert abs(amp) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_level_k_survival_time(self):
        # |A| for the pure n = k level hits 1/e at t = hbar / (k gamma0)
        for k in (1, 2, 3):
            coeffs = [0.0] * k + [1.0]
            t = 1.0 / (k * 0.3)
            amp = survival_amplitude(coeffs, coeffs, self.z0(gamma0=0.3), t)
            assert abs(amp) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_initial_inner_product(self):
        a = [0.3 + 0.1j, 0.5, 0.2j]
        b = [0.1, 0.4 - 0.2j, 0.6]
        got = survival_amplitude(a, b, self.z0(), 0.0)
        want = sum(bn * np.conj(an) for an, bn in zip(a, b))
        assert got == pytest.approx(want, rel=1e-15)

    def test_magnitude_ceiling(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            t = float(rng.uniform(0.0, 20.0))
            ceiling = float(np.sum(np.abs(a) * np.abs(b)))
            assert abs(survival_amplitude(a, b, self.z0(gamma0=0.15, omega=2.3), t)) <= ceiling * (1 + 1e-12)

    def test_coherent_closed_form(self):
        # ladder-coherent coefficients give A(t) = exp(|c|^2 (e^{-i z0 t} - 1))
        alpha2 = 0.64
        coeffs = []
        for n in range(41):
            coeffs.append(math.exp(-alpha2 / 2.0) * alpha2 ** (n / 2.0) / math.sqrt(math.factorial(n)))
        for t in (0.0, 0.7, 3.0, 12.0):
            got = survival_amplitude(coeffs, coeffs, self.z0(gamma0=0.2, omega=1.0), t)
            want = np.exp(alpha2 * (np.exp(-1j * (1.0 - 0.2j) * t) - 1.0))
            assert got == pytest.approx(complex(want), rel=1e-12)

    def test_hbar_rescales_time(self):
        a = [0.6, 0.8]
        assert survival_amplitude(a, a, self.z0(), 3.0, hbar=2.0) == survival_amplitude(a, a, self.z0(), 1.5)
