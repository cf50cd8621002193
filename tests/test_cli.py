"""End-to-end runs of the command-line interface, in process."""

import contextlib
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from decopoles import cli, numerics, omnes, pole_models, preferred_basis
from decopoles.errors import ValidationError
from decopoles.cli import main
from decopoles.omnes import OmnesConfig, nd_block
from decopoles.pole_models import (
    KhalfinTail,
    PoleCatalogue,
    Mode,
    Pole,
    Signal,
    catalogue_from_json,
    catalogue_to_json,
    coincidence_check,
    decoherence_time,
    partition_report,
    signal_from_csv,
    signal_to_csv,
    synthesize,
)

FIGURE_MODES = [
    {"gamma": 0.1, "amp_re": 3.0},
    {"gamma": 1.0, "amp_re": 2.0},
    {"gamma": 5.0, "amp_re": 1.0},
]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "name,value"
    return dict(ln.split(",", 1) for ln in lines[1:])


class TestSimulateModel1:
    def run_model1(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model1",
                "grid": {"t_max": 10.0, "n_points": 41},
                "params": {
                    "gamma0": 0.5,
                    "equilibrium": 0.1,
                    "khalfin": {"amplitude": 0.2, "tau": 1.0, "p": 3.0},
                },
            },
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        return out

    def test_outputs_exist(self, tmp_path):
        out = self.run_model1(tmp_path)
        for name in ("signal.csv", "preferred.csv", "timescales.csv"):
            assert (out / name).is_file()

    def test_timescale_rows(self, tmp_path):
        rows = read_rows(self.run_model1(tmp_path) / "timescales.csv")
        assert float(rows["t_R"]) == 2.0
        assert float(rows["t_D"]) == 2.0
        assert rows["rule"] == "background-only"
        assert rows["p_relevant"] == ""
        assert rows["p_irrelevant"] == "0"
        assert float(rows["pole_pair_time"]) == 2.0
        assert float(rows["pole_background_time_1"]) == 4.0
        assert float(rows["pole_background_time_2"]) == 4.0
        assert rows["background_background_time"] == "inf"

    def test_preferred_is_equilibrium_plus_tail(self, tmp_path):
        out = self.run_model1(tmp_path)
        preferred = signal_from_csv((out / "preferred.csv").read_text(encoding="utf-8"))
        want = 0.1 + 0.2 * (1.0 + preferred.times) ** -3.0
        assert np.max(np.abs(preferred.values - want)) < 1e-15


class TestSimulateModel2:
    def test_timescale_rows(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model2",
                "grid": {"t_max": 20.0, "n_points": 81},
                "params": {"gamma0": 0.1, "gamma1": 1.0},
            },
        )
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        # ratio exactly 10: weak separation, one line of the CLI's own, no source path
        assert capsys.readouterr().err == (
            "warning: gamma0 = 0.1 is not << gamma1 = 1.0; timescale separation is weak\n"
        )
        rows = read_rows(out / "timescales.csv")
        assert float(rows["t_R"]) == 10.0
        assert float(rows["t_D"]) == 1.0
        assert rows["boundary"] == "irrelevant"
        assert rows["p_relevant"] == "0"
        assert rows["p_irrelevant"] == "1"
        assert float(rows["intermediate_time"]) == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_well_separated_is_quiet(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model2",
                "grid": {"t_max": 20.0, "n_points": 11},
                "params": {"gamma0": 0.01, "gamma1": 1.0},
            },
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().err == ""


class TestSimulateModel3:
    def config(self, tmp_path, **params):
        body = {"modes": FIGURE_MODES}
        body.update(params)
        return write_config(
            tmp_path,
            {
                "scenario": "model3",
                "grid": {"t_max": 6.0, "n_points": 241},
                "params": body,
            },
        )

    def test_signal_matches_library(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        got = signal_from_csv((out / "signal.csv").read_text(encoding="utf-8"))
        cat = PoleCatalogue(
            0.0, tuple(Mode(Pole(0.0, m["gamma"]), m["amp_re"]) for m in FIGURE_MODES)
        )
        want = synthesize(cat, np.linspace(0.0, 6.0, 241))
        assert np.array_equal(got.values, want.values)

    def test_preferred_coincides_past_t_d(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        signal = signal_from_csv((out / "signal.csv").read_text(encoding="utf-8"))
        preferred = signal_from_csv((out / "preferred.csv").read_text(encoding="utf-8"))
        cat = PoleCatalogue(
            0.0, tuple(Mode(Pole(0.0, m["gamma"]), m["amp_re"]) for m in FIGURE_MODES)
        )
        report = decoherence_time(cat)
        result = coincidence_check(signal, preferred, cat, report)
        assert result.passed

    def test_a_mode_turns_at_its_omega(self, tmp_path):
        # the slowest mode at omega 3 writes another signal than at omega 0: the rotated closed form
        texts = {}
        for omega in (0.0, 3.0):
            modes = [dict(FIGURE_MODES[0], omega=omega)] + FIGURE_MODES[1:]
            doc = {"scenario": "model3", "grid": {"t_max": 6.0, "n_points": 241}, "params": {"modes": modes}}
            texts[omega] = (run_simulate(tmp_path, doc, f"omega{omega:g}") / "signal.csv").read_text(encoding="utf-8")
        assert texts[0.0] != texts[3.0]
        got = signal_from_csv(texts[3.0])
        t = got.times
        want = 3.0 * np.exp(-0.1 * t) * np.exp(-3j * t) + 2.0 * np.exp(-t) + np.exp(-5.0 * t)
        size = 3.0 * np.exp(-0.1 * t) + 2.0 * np.exp(-t) + np.exp(-5.0 * t)
        assert np.all(np.abs(got.values - want) <= 1e-12 * size)

    def test_rule_selection(self, tmp_path):
        cfg = self.config(tmp_path, rule="slowest-only")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "timescales.csv")
        assert rows["rule"] == "slowest-only"
        assert float(rows["t_D"]) == 10.0
        assert rows["p_relevant"] == "0"

    @pytest.mark.parametrize("boundary", ["relevant", "irrelevant"])
    def test_partition_rows_of_a_wide_catalogue(self, tmp_path, boundary):
        # 44 modes, 19 of them at the threshold width 0.5 (the second smallest),
        # written in reverse so the catalogue sorts them back
        widths = [0.05] + [0.5] * 19 + [0.5 + 0.125 * k for k in range(1, 25)]
        modes = [{"gamma": g, "amp_re": 1.0 / (i + 1)} for i, g in enumerate(widths)][::-1]
        cfg = write_config(
            tmp_path,
            {"scenario": "model3", "grid": {"t_max": 6.0, "n_points": 11},
             "params": {"modes": modes, "boundary": boundary}},
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "timescales.csv")
        kept = [g <= 0.5 if boundary == "relevant" else g < 0.5 for g in widths]
        assert rows["p_relevant"] == ";".join(str(i) for i, k in enumerate(kept) if k)
        assert rows["p_irrelevant"] == ";".join(str(i) for i, k in enumerate(kept) if not k)
        assert rows["p_relevant"] == ("0;1;2;3;4;5;6;7;8;9;10;11;12;13;14;15;16;17;18;19"
                                      if boundary == "relevant" else "0")


class TestBifriedrich:
    def config(self, tmp_path, part2_extra=0.0, name="config.json"):
        return write_config(
            tmp_path,
            {
                "scenario": "bifriedrich",
                "grid": {"t_max": 150.0, "n_points": 301},
                "params": {
                    "part1": {"equilibrium": 0.5, "modes": [{"gamma": 1.0}]},
                    "part2": {
                        "equilibrium": 0.25 + part2_extra,
                        "modes": [{"gamma": 0.01, "amp_re": 1.0 + part2_extra}],
                    },
                },
            },
            name=name,
        )

    def test_outputs_and_verdicts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", self.config(tmp_path), "--out", str(out)]) == 0
        lines = (out / "verdicts.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,part1_state,part2_state"
        for ln in lines[1:]:
            t_str, v1, v2 = ln.split(",")
            t = float(t_str)
            if 1.0 < t <= 100.0:
                assert (v1, v2) == ("classical", "quantum")
            elif t <= 1.0:
                assert v1 == "quantum"
            else:
                assert (v1, v2) == ("classical", "classical")

    def test_part1_output_blind_to_part2(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = self.config(tmp_path, name="a.json")
        cfg_b = self.config(tmp_path, part2_extra=0.25, name="b.json")
        assert main(["simulate", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_b, "--out", str(out_b)]) == 0
        assert (out_a / "signal1.csv").read_bytes() == (out_b / "signal1.csv").read_bytes()
        assert (out_a / "signal2.csv").read_bytes() != (out_b / "signal2.csv").read_bytes()

    def test_a_turning_part_keeps_its_verdicts_and_turns_its_signal(self, tmp_path):
        # part 2's mode at omega = 0.5: the verdicts and part 1's signal are those of omega = 0, and
        # signal2.csv is 0.25 + e^(-0.01 t) e^(-0.5 i t)
        outs = {}
        for omega in (0.0, 0.5):
            doc = json.loads(Path(self.config(tmp_path)).read_text(encoding="utf-8"))
            doc["params"]["part2"]["modes"][0]["omega"] = omega
            outs[omega] = run_simulate(tmp_path, doc, f"omega{omega:g}")
        for name in ("verdicts.csv", "signal1.csv"):
            assert (outs[0.0] / name).read_bytes() == (outs[0.5] / name).read_bytes()
        assert (outs[0.0] / "signal2.csv").read_bytes() != (outs[0.5] / "signal2.csv").read_bytes()
        got = signal_from_csv((outs[0.5] / "signal2.csv").read_text(encoding="utf-8"))
        t = got.times
        want = 0.25 + np.exp(-0.01 * t) * np.exp(-0.5j * t)
        assert np.all(np.abs(got.values - want) <= 1e-12 * (0.25 + np.exp(-0.01 * t)))


class TestOmnes:
    def base_doc(self, **params):
        body = {"gamma0": 0.1, "L0": 10.0, "N": 6000}
        body.update(params)
        return {
            "scenario": "omnes",
            "grid": {"t_max": 0.5, "n_points": 201},
            "params": body,
        }

    def test_reference_run(self, tmp_path, capsys):
        # the README's default sweep: at N = 6000, L0 = 20 and 40 are not macroscopic, yet the
        # run reports the regime once, at L0, and nothing reaches stderr
        assert [omnes.macroscopicity_check(OmnesConfig(1.0, 2.0, 1.0, 0.1, L0, 0.6, 0.8, 6000)).passed
                for L0 in (10.0, 20.0, 40.0)] == [True, False, False]
        cfg = write_config(tmp_path, self.base_doc())
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["omnes", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "macroscopicity.txt").read_text(encoding="utf-8")
        assert "status: PASS" in text
        assert "delta: 10" in text
        assert capsys.readouterr().err == ""

    def test_nd_decay_values(self, tmp_path):
        cfg = write_config(tmp_path, self.base_doc())
        out = tmp_path / "run"
        assert main(["omnes", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "nd_decay.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "t,abs_rho12"
        assert len(lines) == 202
        t0, v0 = lines[1].split(",")
        assert float(t0) == 0.0
        a = math.sqrt(0.5)
        assert float(v0) == abs(a * a)  # |conj(a) b| at t = 0, printed losslessly

    def test_nd_decay_matches_per_point_nd_block(self, tmp_path):
        # the one-pass column is abs(nd_block(...).rho12) at every point, at 17 digits
        b_im = math.sqrt(0.14)
        doc = self.base_doc(L0=17.0, hbar=1.7, omega_prime=0.7, b_re=0.6, b_im=b_im)
        doc["grid"] = {"t_max": 340.0, "n_points": 401}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["omnes", "--config", cfg, "--out", str(out)]) == 0
        ref = OmnesConfig(m=1.0, omega=2.0, hbar=1.7, gamma0=0.1, L0=17.0,
                          a=math.sqrt(0.5), b=complex(0.6, b_im), N=6000)
        z0 = ref.z0(0.7)
        rows = [f"{t:.17g},{abs(nd_block(ref, z0, t).rho12):.17g}\n"
                for t in np.linspace(0.0, 340.0, 401).tolist()]
        assert (out / "nd_decay.csv").read_bytes() == ("t,abs_rho12\n" + "".join(rows)).encode()

    def test_separation_sweep_invariant(self, tmp_path):
        cfg = write_config(tmp_path, self.base_doc())
        out = tmp_path / "run"
        assert main(["omnes", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "td_vs_L0.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "L0,t_D,gamma_tilde"
        products = []
        for ln in lines[1:]:
            l0, t_d, gamma_tilde = map(float, ln.split(","))
            products.append(t_d * l0 * l0)
        assert len(products) == 3
        assert max(products) - min(products) <= 1e-12 * products[0]

    @pytest.mark.parametrize("hbar", [1e-170, 1e160], ids=["2hbar2-underflows", "2hbar2-overflows"])
    def test_rate_where_2_hbar_squared_underflows(self, tmp_path, hbar):
        # 2 hbar^2 reads 0.0 or inf; the rate is Delta^2 gamma0 with Delta = L0 sqrt(m omega / 2) / hbar
        doc = self.base_doc(hbar=hbar, L0=hbar, L0_sweep=[hbar, 2.0 * hbar], N=50)
        doc["grid"] = {"t_max": 100.0 * hbar, "n_points": 5}
        out = tmp_path / "run"
        assert main(["omnes", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = ["L0,t_D,gamma_tilde\n"]
        for L0 in (hbar, 2.0 * hbar):
            delta = L0 * math.sqrt(1.0 * 2.0 / 2.0) / hbar
            gamma_tilde = delta * delta * 0.1  # base_doc's gamma0
            rows.append(f"{L0:.17g},{hbar / gamma_tilde:.17g},{gamma_tilde:.17g}\n")
        assert (out / "td_vs_L0.csv").read_text(encoding="utf-8") == "".join(rows)

    def test_rate_where_m_omega_underflows(self, tmp_path):
        # m omega = 1e-400 reads 0.0, yet Delta = L0 sqrt(m omega / 2) / hbar = L0 sqrt(1/2)
        s = 1e-200
        doc = self.base_doc(m=s, omega=s, hbar=s, L0=1.0, gamma0=1.0, L0_sweep=[1.0, 2.0], N=50)
        doc["grid"] = {"t_max": 100.0 * s, "n_points": 5}
        out = tmp_path / "run"
        assert main(["omnes", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        lines = (out / "td_vs_L0.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L0,t_D,gamma_tilde" and len(lines) == 3
        for line in lines[1:]:
            l0, t_d, gamma_tilde = map(float, line.split(","))
            assert gamma_tilde == pytest.approx(0.5 * l0 * l0, rel=1e-15)
            assert t_d * l0 * l0 == pytest.approx(2.0 * s, rel=1e-15)

    def test_macroscopicity_fail_warns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.base_doc(L0=2.0, N=50))
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["omnes", "--config", cfg, "--out", str(out)]) == 0
        assert "status: FAIL" in (out / "macroscopicity.txt").read_text(encoding="utf-8")
        assert "macroscopicity FAIL" in capsys.readouterr().err

    def test_density_route(self, tmp_path):
        doc = self.base_doc()
        del doc["params"]["gamma0"]
        doc["params"]["spectral_density"] = {
            "kind": "lorentzian",
            "omega0": 1.1,
            "center": 0.6,
            "width": 0.7,
            "lo": -9.0,
            "hi": 11.0,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["omnes", "--config", cfg, "--out", str(out)]) == 0
        # gamma0 resolved from the density: pi * g(1.1) = 35/37
        lines = (out / "td_vs_L0.csv").read_text(encoding="utf-8").strip().splitlines()
        l0, t_d, gamma_tilde = map(float, lines[1].split(","))
        assert gamma_tilde == pytest.approx(100.0 * 35.0 / 37.0, rel=1e-12)

    def test_vanishing_density_is_numeric_failure(self, tmp_path, capsys):
        doc = self.base_doc()
        del doc["params"]["gamma0"]
        doc["params"]["spectral_density"] = {"kind": "ohmic", "omega0": -0.5, "cutoff": 1.0}
        cfg = write_config(tmp_path, doc)
        # omega0 outside the support is a config error, found before any file is written
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "config error: params.spectral_density.omega0: must lie strictly inside "
            "the support (0.0, 40.0), got -0.5\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("route", ["gamma0", "density"])
    def test_one_collective_rate_per_sweep_length(self, tmp_path, monkeypatch, route):
        # the gamma0 sweep's rates are the ones checked during validation; a density's are formed once its pole is known
        calls = []
        rate = omnes.collective_rate
        monkeypatch.setattr(omnes, "collective_rate", lambda cfg: calls.append(cfg.L0) or rate(cfg))
        doc = self.base_doc(N=200, L0_sweep=[10.0, 20.0, 30.0, 40.0])
        if route == "density":
            del doc["params"]["gamma0"]
            doc["params"]["spectral_density"] = {"kind": "lorentzian", "omega0": 1.1, "center": 0.6, "width": 0.7}
        assert main(["omnes", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "r")]) == 0
        assert calls == [10.0, 20.0, 30.0, 40.0]
        assert len((tmp_path / "r" / "td_vs_L0.csv").read_text(encoding="utf-8").splitlines()) == 5

    def test_density_and_rate_are_exclusive(self, tmp_path, capsys):
        doc = self.base_doc()
        doc["params"]["spectral_density"] = {"kind": "ohmic", "omega0": 1.0, "cutoff": 1.0}
        cfg = write_config(tmp_path, doc)
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestExtract:
    def simulate_figure(self, tmp_path, equilibrium=0.0):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model3",
                "grid": {"t_max": 6.0, "n_points": 241},
                "params": {"modes": FIGURE_MODES, "equilibrium": equilibrium},
            },
            name="sim.json",
        )
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        return out / "signal.csv"

    def extract_config(self, tmp_path, csv_path, order):
        return write_config(
            tmp_path,
            {
                "scenario": "extract",
                "params": {"input_csv": str(csv_path), "model_order": order},
            },
            name="extract.json",
        )

    def test_roundtrip(self, tmp_path, capsys):
        csv_path = self.simulate_figure(tmp_path)
        cfg = self.extract_config(tmp_path, csv_path, 3)
        out = tmp_path / "fit"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
        cat = catalogue_from_json((out / "catalogue.json").read_text(encoding="utf-8"))
        assert len(cat.modes) == 3
        for got, want in zip(cat.gammas, (0.1, 1.0, 5.0)):
            assert abs(got - want) / want < 1e-6
        stdout = capsys.readouterr().out
        assert stdout.startswith("residual: ")
        assert float(stdout.split(":")[1]) < 1e-10

    def test_constant_content_folds_into_equilibrium(self, tmp_path):
        csv_path = self.simulate_figure(tmp_path, equilibrium=0.25)
        cfg = self.extract_config(tmp_path, csv_path, 4)
        out = tmp_path / "fit"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
        cat = catalogue_from_json((out / "catalogue.json").read_text(encoding="utf-8"))
        assert len(cat.modes) == 3
        assert cat.equilibrium == pytest.approx(0.25, abs=1e-9)

    def offset_decay(self, tmp_path, offset):
        t = np.linspace(0.0, 10.0, 201)
        csv_path = tmp_path / "offset.csv"
        csv_path.write_text(signal_to_csv(Signal(t, offset + np.exp(-t))), encoding="utf-8")
        return self.extract_config(tmp_path, csv_path, 2)

    def test_imaginary_constant_content_fails(self, tmp_path, capsys):
        # a catalogue's equilibrium is real: folding 2 + 1j into it would drop the 1j from every sample
        out = tmp_path / "f"
        assert main(["extract", "--config", self.offset_decay(tmp_path, 2 + 1j), "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "",
            "numeric failure: the equilibrium content has imaginary part 1.000e+00, above 3.000e-08 (1e-08 "
            "of the samples' largest |re| or |im|); a pole catalogue's equilibrium is real\n",
        )
        assert not out.exists()

    def test_invisible_imaginary_constant_content_folds_into_equilibrium(self, tmp_path):
        # 1e-9 is below 1e-8 of the samples' largest part, 3.0: the real part alone is the equilibrium
        out = tmp_path / "f"
        assert main(["extract", "--config", self.offset_decay(tmp_path, 2 + 1e-9j), "--out", str(out)]) == 0
        cat = catalogue_from_json((out / "catalogue.json").read_text(encoding="utf-8"))
        assert len(cat.modes) == 1
        assert cat.equilibrium == pytest.approx(2.0, abs=1e-9)

    def test_overasked_order_retries_at_effective_rank(self, tmp_path, capsys):
        csv_path = self.simulate_figure(tmp_path)
        cfg = self.extract_config(tmp_path, csv_path, 5)
        out = tmp_path / "fit"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
        assert "supports only 3" in capsys.readouterr().err
        cat = catalogue_from_json((out / "catalogue.json").read_text(encoding="utf-8"))
        assert len(cat.modes) == 3

    def test_overasked_order_runs_one_svd(self, tmp_path, capsys, monkeypatch):
        csv_path = self.simulate_figure(tmp_path)
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        cfg = self.extract_config(tmp_path, csv_path, 5)
        out = tmp_path / "fit"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
        assert calls == [(121, 120)]
        refit = tmp_path / "refit"
        assert main(["extract", "--config", self.extract_config(tmp_path, csv_path, 3), "--out", str(refit)]) == 0
        assert (out / "catalogue.json").read_bytes() == (refit / "catalogue.json").read_bytes()
        err = capsys.readouterr().err
        assert err == (
            "warning: requested 5 modes but the signal supports only 3; "
            "refitting at the effective rank\n"
        )

    @pytest.mark.parametrize(
        "value, order, line",
        [
            (0.0, 1, "numeric failure: signal is identically zero (effective rank 0)\n"),
            (
                0.7,
                2,
                "warning: requested 2 modes but the signal supports only 1; refitting at the "
                "effective rank\nnumeric failure: signal contains no decaying modes (constant or "
                "equilibrium-only content) (effective rank 0)\n",
            ),
        ],
        ids=["zero", "constant"],
    )
    def test_rank_zero_exact_lines(self, tmp_path, capsys, value, order, line):
        sig = Signal(np.linspace(0.0, 5.0, 41), np.full(41, value, dtype=complex))
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text(signal_to_csv(sig), encoding="utf-8")
        cfg = self.extract_config(tmp_path, csv_path, order)
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "f")]) == 3
        assert capsys.readouterr().err == line
        assert not (tmp_path / "f").exists()

    def test_constant_signal_fails(self, tmp_path, capsys):
        sig = Signal(np.linspace(0.0, 5.0, 41), np.full(41, 0.7, dtype=complex))
        csv_path = tmp_path / "flat.csv"
        csv_path.write_text(signal_to_csv(sig), encoding="utf-8")
        cfg = self.extract_config(tmp_path, csv_path, 1)
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "f")]) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert "no decaying modes" in err

    def test_growing_mode_fails(self, tmp_path, capsys):
        t = np.linspace(0.0, 10.0, 401)
        sig = Signal(t, np.exp(-0.5 * t) + 0.3 * np.exp(0.05 * t))
        csv_path = tmp_path / "grow.csv"
        csv_path.write_text(signal_to_csv(sig), encoding="utf-8")
        cfg = self.extract_config(tmp_path, csv_path, 2)
        out = tmp_path / "f"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numeric failure: 1 fitted mode(s) grow" in err
        assert "largest growth rate 5.000e-02" in err
        assert not (out / "catalogue.json").exists()

    def test_undamped_oscillation_fails(self, tmp_path, capsys):
        # an oscillation with no visible decay is no equilibrium content: its amp_re alone would drop it
        t = np.linspace(0.0, 20.0, 401)
        sig = Signal(t, np.exp(-0.5 * t) + 0.3 * np.exp(2j * t))
        csv_path = tmp_path / "ring.csv"
        csv_path.write_text(signal_to_csv(sig), encoding="utf-8")
        cfg = self.extract_config(tmp_path, csv_path, 2)
        out = tmp_path / "f"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: a fitted mode oscillates without visible decay over the window "
            "(angular frequency 2.000e+00); a pole catalogue holds only decaying modes\n"
        )
        assert not out.exists()

    def decay_csv(self, tmp_path, rows):
        t = np.arange(rows, dtype=float)
        csv_path = tmp_path / "short.csv"
        csv_path.write_text(signal_to_csv(Signal(t, np.exp(-0.5 * t) + 0j)), encoding="utf-8")
        return csv_path

    @pytest.mark.parametrize("rows, order", [(3, 2), (1, 1), (5, 2)])
    def test_too_few_samples_for_the_order(self, tmp_path, capsys, rows, order):
        cfg = self.extract_config(tmp_path, self.decay_csv(tmp_path, rows), order)
        out = tmp_path / "f"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: params.model_order: needs at least {2 * order + 2} samples for "
            f"order {order}, params.input_csv has {rows}\n"
        )
        assert not out.exists()

    def test_fewest_samples_for_the_order_fit(self, tmp_path):
        cfg = self.extract_config(tmp_path, self.decay_csv(tmp_path, 6), 2)
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "f")]) == 0

    def test_missing_input_csv(self, tmp_path, capsys):
        cfg = self.extract_config(tmp_path, tmp_path / "absent.csv", 1)
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "f")]) == 2
        assert "params.input_csv" in capsys.readouterr().err

    def test_grid_key_rejected(self, tmp_path, capsys):
        csv_path = self.simulate_figure(tmp_path)
        cfg = write_config(
            tmp_path,
            {
                "scenario": "extract",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"input_csv": str(csv_path), "model_order": 3},
            },
            name="extract.json",
        )
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "f")]) == 2
        assert "config.grid" in capsys.readouterr().err


class TestNumericFailureWritesNothing:
    """A run computes every file before it writes any: a numeric failure exits 3 with one stderr line
    and leaves no output directory.  A sum past the float range is one; an extract equilibrium that
    shifts the signal past it is a config error, found before any fit."""

    OVERFLOWING = {"modes": [{"gamma": 1.0, "amp_re": 1e308}, {"gamma": 2.0, "amp_re": 1e308}]}

    @pytest.mark.parametrize("scenario", ["model3", "bifriedrich"])
    def test_overflowing_sum(self, tmp_path, capsys, scenario):
        params = self.OVERFLOWING if scenario == "model3" else {"part1": {"modes": FIGURE_MODES}, "part2": self.OVERFLOWING}
        cfg = write_config(tmp_path, {"scenario": scenario, "grid": {"t_max": 1.0, "n_points": 5}, "params": params})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == "numeric failure: signal contains NaN or Inf\n"
        assert not (tmp_path / "r").exists()

    @staticmethod
    def decay_csv(tmp_path, scale=1.7e308):
        """41 samples of scale e^(-t/2) on [0, 10]."""
        t = np.linspace(0.0, 10.0, 41)
        path = tmp_path / f"decay-{scale}.csv"
        path.write_text(signal_to_csv(Signal(t, scale * np.exp(-0.5 * t))), encoding="utf-8")
        return str(path)

    def test_equilibrium_shift_past_the_float_range(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("fit attempted")

        monkeypatch.setattr(numerics, "matrix_pencil_fit", refuse)
        params = {"input_csv": self.decay_csv(tmp_path), "model_order": 1, "equilibrium": -1e308}
        cfg = write_config(tmp_path, {"scenario": "extract", "params": params})
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "config error: params.equilibrium: -1e+308 shifts params.input_csv's values out of the float range\n"
        )
        assert not (tmp_path / "r").exists()

    def test_extract_validates_then_runs_without_writing(self, tmp_path, capsys, monkeypatch):
        from decopoles.cli import _extract
        from decopoles.pole_models import _Fields

        with pytest.raises(ValidationError, match=r"^params\.equilibrium: -1e\+308 shifts"):
            params = {"input_csv": self.decay_csv(tmp_path), "model_order": 1, "equilibrium": -1e308}
            _extract(_Fields(params, "params", {}), None)
        run = _extract(_Fields({"input_csv": self.decay_csv(tmp_path, 1.7), "model_order": 1}, "params", {}), None)
        monkeypatch.chdir(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        files = run()
        assert list(files) == ["catalogue.json"] and capsys.readouterr().out.startswith("residual: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before


def _open_defect(case_id, item, reason):
    """A strict expected failure for ``case_id``, owned by ROADMAP item ``item``."""
    return dict(id=case_id, marks=pytest.mark.xfail(strict=True, reason=f"{case_id} (item {item}): {reason}"))


class TestOpenContractDefects:
    """Open defects of the CLI contract, each pinned as a strict expected failure, so a run's log lists
    them by id and a mend makes its case pass, which fails until its marker goes.  The contract: an
    input the library cannot serve exits 2 or 3, its last stderr line reads ``config error: ...``,
    naming a ``params.``, ``grid.``, ``config.`` or ``--out`` path, or ``numeric failure: ...``, and no
    output directory is made."""

    GRID = {"t_max": 10.0, "n_points": 41}
    DENSITY = {"N": 50, "L0": 1.0}  # an omnes run that takes its pole from a spectral density

    @pytest.mark.parametrize(
        "subcommand, doc",
        [
            pytest.param(
                "simulate", {"scenario": "model1", "grid": GRID, "params": {"gamma0": 1e-320}},
                **_open_defect("F8-model1", 20, "t_R = hbar / gamma0 overflows with a numpy warning"),
            ),
            pytest.param(
                "simulate", {"scenario": "model2", "grid": GRID, "params": {"gamma0": 1e-320, "gamma1": 1.0}},
                **_open_defect("F8-model2", 20, "t_R = hbar / gamma0 overflows with a numpy warning"),
            ),
            pytest.param(
                "simulate",
                {"scenario": "model3", "grid": GRID,
                 "params": {"modes": [{"gamma": 1.0}], "khalfin": {"amplitude": 0.2, "tau": 5e-324}}},
                **_open_defect("F10-model3", 20, "t / tau overflows with a numpy warning"),
            ),
            pytest.param(
                "omnes",
                {"scenario": "omnes", "grid": GRID, "params": dict(DENSITY, spectral_density={
                    "kind": "lorentzian", "omega0": 1.1, "center": 0.6, "width": 1e300})},
                **_open_defect("F9-lorentzian", 20, "the density's (w - c) ** 2 raises OverflowError"),
            ),
            pytest.param(
                "omnes",
                {"scenario": "omnes", "grid": GRID, "params": dict(DENSITY, spectral_density={
                    "kind": "ohmic", "omega0": 1e-320, "cutoff": 1.0})},
                **_open_defect("F9-ohmic", 20, "principal_value_integral raises ZeroDivisionError"),
            ),
            pytest.param(
                "omnes",
                {"scenario": "omnes", "grid": GRID, "params": dict(DENSITY, L0=2.0, L0_sweep=[2.0], spectral_density={
                    "kind": "lorentzian", "omega0": 0.7, "center": 0.6, "width": 1e-3, "weight": 1e308})},
                **_open_defect("F9-weight", 20, "the density's peak overflows: its config error names no field"),
            ),
            pytest.param(
                "omnes",
                {"scenario": "omnes", "grid": GRID, "params": dict(DENSITY, spectral_density={
                    "kind": "ohmic", "omega0": 5.0, "cutoff": 10.0, "weight": 3e305, "hi": 1000.0})},
                **_open_defect("F9-ohmic-product", 20, "weight * w overflows before the exp shrinks it: "
                               "its config error names no field"),
            ),
            pytest.param(
                "extract", {"scenario": "extract", "params": {"input_csv": "far.csv", "model_order": 1}},
                **_open_defect("FOUND-far-grid", 20, "e^-(t - 800) on [800, 810] exits 0 with amp_re 0.0"),
            ),
        ],
    )
    def test_invalid_input_meets_the_contract(self, tmp_path, capsys, monkeypatch, subcommand, doc):
        monkeypatch.chdir(tmp_path)
        t = np.linspace(800.0, 810.0, 41)
        (tmp_path / "far.csv").write_text(signal_to_csv(Signal(t, np.exp(800.0 - t) + 0j)), encoding="utf-8")
        code = main([subcommand, "--config", write_config(tmp_path, doc), "--out", "out"])
        last = capsys.readouterr().err.splitlines()[-1:]
        assert code in (2, 3)
        assert last and last[0].startswith("config error: " if code == 2 else "numeric failure: ")
        assert code == 3 or re.search(r"\b(params|grid|config)\.|--out\b", last[0])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "density, field",
        [
            pytest.param(
                {"kind": "lorentzian", "omega0": 1e20, "center": 1e20, "width": 1e-3}, "width",
                **_open_defect("FOUND-empty-band", 20, "center +- 3000 width rounds to center: "
                               "'empty support [1e+20, 1e+20]' names no field"),
            ),
            pytest.param(
                {"kind": "ohmic", "omega0": 1.0, "cutoff": 1e307}, "cutoff",
                **_open_defect("FOUND-infinite-band", 20, "40 cutoff overflows: the error names the band, not cutoff"),
            ),
        ],
    )
    def test_a_default_band_that_cannot_hold_is_named_by_its_shape(self, tmp_path, capsys, density, field):
        doc = {"scenario": "omnes", "grid": self.GRID, "params": dict(self.DENSITY, spectral_density=density)}
        code = main(["omnes", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")])
        last = capsys.readouterr().err.splitlines()[-1:]
        assert code == 2 and last and last[0].startswith(f"config error: params.spectral_density.{field}: ")
        assert not (tmp_path / "out").exists()


class TestConfigErrors:
    """Every parse-phase defect exits 2 with a field-path diagnostic."""

    def check(self, tmp_path, capsys, doc, needle, subcommand="simulate"):
        cfg = write_config(tmp_path, doc)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert needle in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": "model1",', encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "expected an object" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 5}, "params": {"gamma0": 1.0}, "seed": 7},
            "unknown keys ['seed']",
        )

    def test_scenario_subcommand_mismatch(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "omnes", "grid": {"t_max": 1.0, "n_points": 5}, "params": {}},
            "does not belong to subcommand",
        )

    def test_missing_required_param(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 5}, "params": {}},
            "params.gamma0",
        )

    def test_wrong_type(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 5}, "params": {"gamma0": "fast"}},
            "params.gamma0",
        )

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 5}, "params": {"gamma0": True}},
            "params.gamma0",
        )

    def test_nonpositive_rate(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 5}, "params": {"gamma0": -2.0}},
            "must be > 0",
        )

    def test_missing_grid(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "params": {"gamma0": 1.0}},
            "config.grid",
        )

    def test_grid_too_small(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 1}, "params": {"gamma0": 1.0}},
            "config.grid.n_points",
        )

    def test_fractional_grid_size(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 2.5}, "params": {"gamma0": 1.0}},
            "config error: config.grid.n_points: expected an integer, got 2.5\n",
        )

    def test_unknown_param(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {
                "scenario": "model1",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"gamma0": 1.0, "color": "red"},
            },
            "unknown keys ['color']",
        )

    def test_bad_khalfin_key(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {
                "scenario": "model1",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"gamma0": 1.0, "khalfin": {"amplitude": 0.1, "rate": 2.0}},
            },
            "params.khalfin",
        )

    def test_bad_output_dir_type(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model1",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"gamma0": 1.0},
                "output_dir": 5,
            },
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert "config.output_dir" in capsys.readouterr().err
        # checked whenever present, --out or not, and nothing is written
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config.output_dir: expected a string path" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_superposition_norm(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {
                "scenario": "omnes",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"a_re": 1.0, "b_re": 1.0},
            },
            "must be 1 within",
            subcommand="omnes",
        )

    def test_bad_sweep_entry(self, tmp_path, capsys):
        for i, entry in enumerate((-3.0, math.nan, 1e999)):
            case = tmp_path / str(i)
            case.mkdir()
            self.check(
                case,
                capsys,
                {
                    "scenario": "omnes",
                    "grid": {"t_max": 1.0, "n_points": 5},
                    "params": {"L0_sweep": [10.0, entry]},
                },
                "params.L0_sweep[1]",
                subcommand="omnes",
            )
            assert not (case / "r").exists()  # rejected before any file is written

    def test_bad_mode_entry(self, tmp_path, capsys):
        self.check(
            tmp_path,
            capsys,
            {
                "scenario": "model3",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"modes": [{"gamma": 1.0}, {"gamma": -1.0}]},
            },
            "gamma",
        )


class TestFileErrors:
    """An unreadable or undecodable input file, or an unwritable output path, is a config error:
    exit 2, one line naming the field and the path, no traceback."""

    MODEL1 = {"scenario": "model1", "grid": {"t_max": 1.0, "n_points": 5}, "params": {"gamma0": 1.0}}

    @staticmethod
    def not_utf8(tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe{}")
        return path

    def test_config_not_utf8(self, tmp_path, capsys):
        path = self.not_utf8(tmp_path, "bad.json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot read config {str(path)!r}: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_input_csv_not_utf8(self, tmp_path, capsys):
        path = self.not_utf8(tmp_path, "signal.csv")
        cfg = write_config(tmp_path, {"scenario": "extract", "params": {"input_csv": str(path), "model_order": 1}})
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: params.input_csv: cannot read {str(path)!r}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_density_csv_not_utf8(self, tmp_path, capsys):
        path = self.not_utf8(tmp_path, "density.csv")
        sd = {"kind": "csv", "omega0": 1.0, "path": str(path)}
        cfg = write_config(tmp_path, {"scenario": "omnes", "grid": self.MODEL1["grid"], "params": {"spectral_density": sd}})
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: params.spectral_density.path: cannot read {str(path)!r}: 'utf-8' codec")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize("flag", [True, False], ids=["--out", "output_dir"])
    def test_output_path_not_a_directory(self, tmp_path, capsys, flag, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n", encoding="utf-8")
        out = str(blocker / "run" if below else blocker)
        doc = self.MODEL1 if flag else dict(self.MODEL1, output_dir=out)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg] + (["--out", out] if flag else [])) == 2
        err = capsys.readouterr().err
        field = "--out" if flag else "config.output_dir"
        assert err.startswith(f"config error: {field} {out!r}: [Errno ")
        assert err.count("\n") == 1
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model3",
                "grid": {"t_max": 6.0, "n_points": 241},
                "params": {"modes": FIGURE_MODES, "equilibrium": 0.5},
            },
        )
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("signal.csv", "preferred.csv", "timescales.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_out_flag_overrides_config(self, tmp_path):
        configured = tmp_path / "configured"
        override = tmp_path / "override"
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model1",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"gamma0": 1.0},
                "output_dir": str(configured),
            },
        )
        assert main(["simulate", "--config", cfg, "--out", str(override)]) == 0
        assert (override / "signal.csv").is_file()
        assert not configured.exists()

    def test_output_dir_from_config(self, tmp_path):
        configured = tmp_path / "configured"
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model1",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"gamma0": 1.0},
                "output_dir": str(configured),
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        assert (configured / "signal.csv").is_file()


def run_simulate(tmp_path, doc, name):
    """Run one simulate config; return its output directory."""
    out = tmp_path / name
    cfg = write_config(tmp_path, doc, name=f"{name}.json")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestPresetsAreModel3:
    """model1 and model2 give the bytes of the equivalent model3 catalogue."""

    GRID = {"t_max": 12.0, "n_points": 97}
    COMMON = {
        "equilibrium": 0.125,
        "hbar": 1.5,
        "khalfin": {"amplitude": 0.2, "tau": 0.5, "p": 2.5},
    }

    def assert_same(self, tmp_path, preset_doc, model3_params):
        doc3 = {"scenario": "model3", "grid": self.GRID, "params": model3_params}
        a = run_simulate(tmp_path, preset_doc, "preset")
        b = run_simulate(tmp_path, doc3, "model3")
        for name in ("signal.csv", "preferred.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        rows_a = (a / "timescales.csv").read_text(encoding="utf-8").splitlines()
        rows_b = (b / "timescales.csv").read_text(encoding="utf-8").splitlines()
        assert rows_a[:7] == rows_b  # header and the six report rows
        return rows_a[7:]

    def test_model1(self, tmp_path):
        params = {"gamma0": 0.4, "amp_re": 1.75, "amp_im": -0.5, **self.COMMON}
        extra = self.assert_same(
            tmp_path,
            {"scenario": "model1", "grid": self.GRID, "params": params},
            {
                "modes": [{"gamma": 0.4, "amp_re": 1.75, "amp_im": -0.5}],
                "rule": "background-only",
                **self.COMMON,
            },
        )
        assert [row.split(",")[0] for row in extra] == [
            "pole_pair_time",
            "pole_background_time_1",
            "pole_background_time_2",
            "background_background_time",
        ]

    @pytest.mark.parametrize("gamma0, gamma1", [(0.05, 1.2), (1.2, 0.05)])
    def test_model2(self, tmp_path, gamma0, gamma1):
        params = {
            "gamma0": gamma0,
            "gamma1": gamma1,
            "amp0_re": 2.0,
            "amp0_im": 0.25,
            "amp1_re": -0.75,
            "amp1_im": 1.0,
            **self.COMMON,
        }
        extra = self.assert_same(
            tmp_path,
            {"scenario": "model2", "grid": self.GRID, "params": params},
            {
                "modes": [
                    {"gamma": gamma0, "amp_re": 2.0, "amp_im": 0.25},
                    {"gamma": gamma1, "amp_re": -0.75, "amp_im": 1.0},
                ],
                "rule": "second-smallest-gamma",
                "boundary": "irrelevant",
                **self.COMMON,
            },
        )
        assert extra == [f"intermediate_time,{1.5 / (gamma0 + gamma1):.17g}"]


class TestSingleBadFieldDiagnostics:
    """A config with exactly one bad field names that field, word for word."""

    GRID = {"t_max": 1.0, "n_points": 5}

    @pytest.mark.parametrize(
        "scenario, params, line",
        [
            (
                "model2",
                {"gamma0": 0.1, "gamma1": 0.0},
                "params.gamma1: must be > 0, got 0.0",
            ),
            (
                "model2",
                {"gamma0": 0.1, "gamma1": 1.0, "amp1_im": "0.5"},
                "params.amp1_im: expected a number, got '0.5'",
            ),
            (
                "model2",
                {"gamma0": 0.1, "gamma1": 1.0, "rule": "slowest-only"},
                "params: unknown keys ['rule']; allowed keys are ['amp0_im', 'amp0_re', "
                "'amp1_im', 'amp1_re', 'equilibrium', 'gamma0', 'gamma1', 'hbar', 'khalfin']",
            ),
            (
                "model3",
                {"modes": [{"gamma": 1.0}, {"gamma": -1.0}]},
                "params.modes[1].gamma: must be > 0, got -1.0",
            ),
            (
                "bifriedrich",
                {"part1": {"modes": [{"gamma": 1.0}]}, "part2": {"modes": [{"gamma": "slow"}]}},
                "params.part2.modes[0].gamma: expected a number, got 'slow'",
            ),
            (
                "bifriedrich",
                {"part1": {"modes": [], "khalfin": None}, "part2": {"modes": [{"gamma": 1.0}]}},
                "params.part1.modes: expected a nonempty array of mode objects",
            ),
            (
                "model3",
                {"modes": [], "khalfin": {"amplitude": 0.3}},
                "params.modes: expected a nonempty array of mode objects",
            ),
            (
                "model3",
                {"modes": [{"gamma": 1.0}], "rule": "fastest"},
                "params.rule: must be one of ['background-only', 'second-smallest-gamma', 'slowest-only'], "
                "got 'fastest'",
            ),
            (
                "model3",
                {"modes": [{"gamma": 1.0}], "rule": 3},
                "params.rule: expected a string, got 3",
            ),
            ("omnes", {"N": "50", "L0": 1.0}, "params.N: expected an integer, got '50'"),
            (
                "omnes",
                {"N": 50, "L0": 1.0, "L0_sweep": 10.0},
                "params.L0_sweep: expected a nonempty array of lengths",
            ),
            (
                "extract",
                {"input_csv": "signal.csv", "model_order": 2.0},
                "params.model_order: expected an integer, got 2.0",
            ),
            (3, {"gamma0": 1.0}, "config.scenario: expected a string, got 3"),
        ],
    )
    def test_exact_line(self, tmp_path, capsys, scenario, params, line):
        doc = {"scenario": scenario, "params": params}
        if scenario != "extract":  # extract reads its grid from its input CSV
            doc["grid"] = self.GRID
        subcommand = scenario if scenario in ("omnes", "extract") else "simulate"
        cfg = write_config(tmp_path, doc)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    @pytest.mark.parametrize(
        "density, line",
        [
            (
                {"kind": "lorentzian", "omega0": 5.0, "center": 1.0, "width": 0.5,
                 "lo": 0.0, "hi": 2.0},
                "params.spectral_density.omega0: must lie strictly inside the support "
                "(0.0, 2.0), got 5.0",
            ),
            (
                {"kind": "lorentzian", "omega0": 5.0, "center": 1.0, "width": 0.5,
                 "lo": 0.0, "hi": 2.0, "weight": 0.0},
                "params.spectral_density.weight: must be > 0, got 0.0",
            ),
            (
                {"kind": "ohmic", "omega0": 0.0, "cutoff": 1.0},
                "params.spectral_density.omega0: must lie strictly inside the support "
                "(0.0, 40.0), got 0.0",
            ),
            (
                {"kind": "lorentzian", "omega0": 1.0, "center": 1.0, "width": 0.5,
                 "lo": 2.0, "hi": 1.0},
                "params.spectral_density.hi: must be > lo = 2.0, got 1.0",
            ),
            (
                {"kind": "lorentzian", "omega0": 1.0, "center": 1.0, "width": 0.5,
                 "weight": -1.0},
                "params.spectral_density.weight: must be > 0, got -1.0",
            ),
            (
                {"kind": "lorentzian", "omega0": 2000.0, "center": 1.0, "width": 0.5, "lo": 1600.0},
                "params.spectral_density.lo: must be < the default hi = 1501.0, got 1600.0",
            ),
            (
                {"kind": "lorentzian", "omega0": -2000.0, "center": 1.0, "width": 0.5,
                 "hi": -1600.0},
                "params.spectral_density.hi: must be > the default lo = -1499.0, got -1600.0",
            ),
            (
                {"kind": "ohmic", "omega0": 45.0, "cutoff": 1.0, "lo": 50.0},
                "params.spectral_density.lo: must be < the default hi = 40.0, got 50.0",
            ),
            (
                {"kind": "ohmic", "omega0": -2.0, "cutoff": 1.0, "hi": -1.0},
                "params.spectral_density.hi: must be > the default lo = 0.0, got -1.0",
            ),
            (
                # the crossed bound is named before the density, whose peak overflows, is built
                {"kind": "lorentzian", "omega0": 0.7, "center": 0.6, "width": 1e-3, "weight": 1e308,
                 "lo": 5.0},
                "params.spectral_density.lo: must be < the default hi = 3.6, got 5.0",
            ),
            # the support is open: a bound on the other, given or the default, leaves it empty
            (
                {"kind": "lorentzian", "omega0": 1.0, "center": 1.0, "width": 0.5, "lo": 2.0, "hi": 2.0},
                "params.spectral_density.hi: must be > lo = 2.0, got 2.0",
            ),
            (
                {"kind": "lorentzian", "omega0": 1.0, "center": 1.0, "width": 0.5, "lo": 1501.0},
                "params.spectral_density.lo: must be < the default hi = 1501.0, got 1501.0",
            ),
            (
                {"kind": "lorentzian", "omega0": 1.0, "center": 1.0, "width": 0.5, "hi": -1499.0},
                "params.spectral_density.hi: must be > the default lo = -1499.0, got -1499.0",
            ),
        ],
        ids=[
            "omega0-outside", "zero-weight", "omega0-on-edge", "empty-support", "negative-weight",
            "lo-above-default-hi", "hi-below-default-lo", "ohmic-lo-above-default-hi",
            "ohmic-hi-below-default-lo", "lo-above-default-hi-overflowing-peak", "lo-equals-hi",
            "lo-equals-default-hi", "hi-equals-default-lo",
        ],
    )
    def test_density_exact_line(self, tmp_path, capsys, density, line):
        params = {"N": 50, "L0": 1.0, "spectral_density": density}
        cfg = write_config(tmp_path, {"scenario": "omnes", "grid": self.GRID, "params": params})
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "params, line",
        [
            (
                {"a_re": 1e200},
                "params.a_re/a_im/b_re/b_im: |a|^2 + |b|^2 = inf, must be 1 within 1e-12",
            ),
            (
                {"L0": 1e200},
                "params.L0: Delta = L0 sqrt(m omega / 2) / hbar = 1e+200 is too large: "
                "Delta^2 overflows",
            ),
            (
                {"L0_sweep": [10.0, 1e200]},
                "params.L0_sweep[1]: Delta = L0 sqrt(m omega / 2) / hbar = 1e+200 is too large: "
                "Delta^2 overflows",
            ),
            (
                {"gamma0": 1e306, "L0": 2.0, "L0_sweep": [10.0, 400.0]},
                "params.L0_sweep[1]: gamma_tilde = inf gives t_D = 0.0, outside the float range",
            ),
            (
                {"gamma0": 1e-300, "L0": 2.0, "L0_sweep": [1e-200]},
                "params.L0_sweep[0]: gamma_tilde = 0.0 gives t_D = inf, outside the float range",
            ),
        ],
        ids=["a-overflows", "L0-overflows", "sweep-L0-overflows", "sweep-rate-overflows",
             "sweep-rate-underflows"],
    )
    def test_overflowing_omnes_config_exact_line(self, tmp_path, capsys, params, line):
        cfg = write_config(
            tmp_path, {"scenario": "omnes", "grid": self.GRID, "params": dict(params, N=50)}
        )
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "r").exists()  # rejected before any file is written

    def test_density_rate_outside_the_float_range_names_the_entry(self, tmp_path, capsys):
        # gamma0 = pi g(omega0) = 105/37 is known only at run time; Delta^2 gamma0 overflows
        sd = {"kind": "lorentzian", "omega0": 1.1, "center": 0.6, "width": 0.7,
              "lo": -9.0, "hi": 11.0, "weight": 3.0}
        params = {"N": 50, "L0": 2.0, "L0_sweep": [10.0, 1e154], "spectral_density": sd}
        cfg = write_config(tmp_path, {"scenario": "omnes", "grid": self.GRID, "params": params})
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: params.L0_sweep[1]: gamma_tilde = inf gives t_D = 0.0, "
            "outside the float range\n"
        )
        assert not (tmp_path / "r").exists()  # the rates come before any file

    def test_density_vanishing_at_omega0_names_it(self, tmp_path, capsys):
        csv_path = tmp_path / "density.csv"
        csv_path.write_text("omega,g\n0.0,0.05\n1.0,0.0\n2.0,0.05\n", encoding="utf-8")
        sd = {"kind": "csv", "omega0": 1.0, "path": str(csv_path)}
        params = {"N": 50, "L0": 1.0, "spectral_density": sd}
        cfg = write_config(tmp_path, {"scenario": "omnes", "grid": self.GRID, "params": params})
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "config error: params.spectral_density.omega0: the density vanishes at omega0 = 1.0\n"
        )

    def test_density_csv_names_the_path(self, tmp_path, capsys):
        csv_path = tmp_path / "density.csv"
        csv_path.write_text("omega,g\n0.0,0.05\n3.0,0.05\n2.0,0.05\n", encoding="utf-8")
        sd = {"kind": "csv", "omega0": 1.0, "path": str(csv_path)}
        params = {"N": 50, "L0": 1.0, "spectral_density": sd}
        cfg = write_config(tmp_path, {"scenario": "omnes", "grid": self.GRID, "params": params})
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"config error: params.spectral_density.path: {str(csv_path)!r}: "
            "sample frequencies must be strictly increasing\n"
        )


class TestCatalogueJsonIsAnInlineCatalogue:
    """``catalogue.json`` pastes verbatim into model3 params and bifriedrich parts."""

    GRID = {"t_max": 6.0, "n_points": 61}

    def extracted(self, tmp_path):
        """The text of a ``catalogue.json`` written by ``extract`` from the figure signal."""
        sim = write_config(
            tmp_path,
            {"scenario": "model3", "grid": {"t_max": 20.0, "n_points": 801},
             "params": {"modes": FIGURE_MODES, "equilibrium": 0.25}},
            name="sim.json",
        )
        assert main(["simulate", "--config", sim, "--out", str(tmp_path / "sim")]) == 0
        fit = write_config(
            tmp_path,
            {"scenario": "extract",
             "params": {"input_csv": str(tmp_path / "sim" / "signal.csv"), "model_order": 3}},
            name="fit.json",
        )
        assert main(["extract", "--config", fit, "--out", str(tmp_path / "fit")]) == 0
        return (tmp_path / "fit" / "catalogue.json").read_text(encoding="utf-8")

    def built(self, tmp_path, monkeypatch, scenario, params):
        """The catalogues the CLI builds from ``params``: (model3,) or (part1, part2)."""
        seen = []
        real_time, real_run = pole_models.decoherence_time, preferred_basis.bifriedrich_run

        def spy_time(cat, *args):
            seen.append(cat)
            return real_time(cat, *args)

        def spy_run(model, grid):
            seen.extend((model.part1, model.part2))
            return real_run(model, grid)

        monkeypatch.setattr(pole_models, "decoherence_time", spy_time)
        monkeypatch.setattr(preferred_basis, "bifriedrich_run", spy_run)
        cfg = write_config(tmp_path, {"scenario": scenario, "grid": self.GRID, "params": params},
                           name=f"{scenario}.json")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / scenario)]) == 0
        return seen

    @pytest.mark.parametrize("source", ["extract", "tail"])
    def test_same_catalogue_as_catalogue_from_json(self, tmp_path, monkeypatch, source):
        if source == "extract":
            text = self.extracted(tmp_path)
        else:  # a tail, frequencies and complex amplitudes the extracted one lacks
            text = catalogue_to_json(PoleCatalogue(
                -0.5,
                (Mode(Pole(0.75, 0.2), 1.5 - 0.25j), Mode(Pole(-2.0, 3.0), -0.5 + 1j)),
                KhalfinTail(0.125, 2.5, 1.75),
                1.25,
            ))
        cat = catalogue_from_json(text)
        doc = json.loads(text)
        assert self.built(tmp_path, monkeypatch, "model3", doc) == [cat]
        parts = self.built(tmp_path, monkeypatch, "bifriedrich", {"part1": doc, "part2": doc})
        assert parts == [cat, cat]

    def test_a_frequency_survives_extract_model3_extract(self, tmp_path):
        # 0.25 + e^(-0.3 t) e^(-2 i t) + 0.5 e^(-1.1 t) on 201 samples of [0, 10]: extract, paste the
        # catalogue as model3 params, simulate on the same grid and extract that signal; both fits hold
        # the mode (omega, gamma) = (2, 0.3)
        t = np.linspace(0.0, 10.0, 201)
        (tmp_path / "signal.csv").write_text(
            signal_to_csv(Signal(t, 0.25 + np.exp(-0.3 * t) * np.exp(-2j * t) + 0.5 * np.exp(-1.1 * t))),
            encoding="utf-8",
        )

        def extract(csv_path, name):
            doc = {"scenario": "extract", "params": {"input_csv": str(csv_path), "model_order": 3}}
            assert main(["extract", "--config", write_config(tmp_path, doc, f"{name}.json"),
                         "--out", str(tmp_path / name)]) == 0
            return json.loads((tmp_path / name / "catalogue.json").read_text(encoding="utf-8"))

        first = extract(tmp_path / "signal.csv", "fit")
        sim = run_simulate(tmp_path, {"scenario": "model3", "grid": {"t_max": 10.0, "n_points": 201}, "params": first},
                           "sim")
        for cat in (first, extract(sim / "signal.csv", "refit")):
            mode = min(cat["modes"], key=lambda m: abs(m["gamma"] - 0.3))
            assert mode["gamma"] == pytest.approx(0.3, rel=1e-6)
            assert mode["omega"] == pytest.approx(2.0, rel=1e-6)

    def test_tail_only_part_runs(self, tmp_path, monkeypatch):
        part1 = {"modes": [], "khalfin": {"amplitude": 0.3}}
        params = {"part1": part1, "part2": {"modes": [{"gamma": 1.0}]}}
        built = self.built(tmp_path, monkeypatch, "bifriedrich", params)
        tail_only = PoleCatalogue(0.0, (), KhalfinTail(0.3, 1.0, 3.0))
        assert built[0] == tail_only
        assert built[0] == catalogue_from_json(json.dumps(dict(part1, equilibrium=0.0, hbar=1.0)))
        want = signal_to_csv(synthesize(tail_only, np.linspace(0.0, 6.0, 61)))
        assert (tmp_path / "bifriedrich" / "signal1.csv").read_text(encoding="utf-8") == want


def readme_configs():
    """The README's ```json config blocks, by scenario."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = (json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S))
    return {doc["scenario"]: doc for doc in blocks}


def recording(monkeypatch):
    """The records of the configs ``main`` loads from here on, one per run, in run order."""
    records, load = [], cli._load_config

    def spy(path):
        root = load(path)
        records.append(root.record)
        return root

    monkeypatch.setattr(cli, "_load_config", spy)
    return records


class TestConfigRecord:
    """Every config value a run reads is recorded once, ``path -> (value, given)``: what the config gives,
    and each default that stood in for an absent key.  The README's configs, record for record."""

    ROOT_HALF = math.sqrt(0.5)

    @staticmethod
    def root(doc):
        return {
            "config.output_dir": (".", False),
            "config.scenario": (doc["scenario"], True),
            "config.params": (doc["params"], True),
        }

    @staticmethod
    def grid(doc):
        return {
            "config.grid": (doc["grid"], True),
            "config.grid.t_max": (doc["grid"]["t_max"], True),
            "config.grid.n_points": (doc["grid"]["n_points"], True),
        }

    @staticmethod
    def catalogue(path, doc, gammas, amps=None):
        """A catalogue of modes that give ``gamma`` (and ``amp_re`` where ``amps`` has it), nothing else."""
        want = {f"{path}.modes": (doc["modes"], True)}
        for i, gamma in enumerate(gammas):
            amp = (amps[i], True) if amps else (1.0, False)
            want.update({
                f"{path}.modes[{i}].omega": (0.0, False),
                f"{path}.modes[{i}].gamma": (gamma, True),
                f"{path}.modes[{i}].amp_re": amp,
                f"{path}.modes[{i}].amp_im": (0.0, False),
            })
        want.update({
            f"{path}.equilibrium": (0.0, False),
            f"{path}.khalfin": (None, False),
            f"{path}.hbar": (1.0, False),
        })
        return want

    def run(self, tmp_path, monkeypatch, doc):
        monkeypatch.chdir(tmp_path)
        records = recording(monkeypatch)
        subcommand = doc["scenario"] if doc["scenario"] in ("omnes", "extract") else "simulate"
        cfg = write_config(tmp_path, doc, name=f"{doc['scenario']}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([subcommand, "--config", cfg, "--out", "out"]) == 0
        return records[-1]

    def test_model3(self, tmp_path, monkeypatch):
        doc = readme_configs()["model3"]
        want = {
            **self.root(doc),
            **self.grid(doc),
            **self.catalogue("params", doc["params"], [0.1, 1.0, 5.0], [3.0, 2.0, 1.0]),
            "params.rule": ("second-smallest-gamma", True),
            "params.boundary": ("relevant", False),
        }
        assert self.run(tmp_path, monkeypatch, doc) == want

    def test_bifriedrich(self, tmp_path, monkeypatch):
        doc = readme_configs()["bifriedrich"]
        parts = doc["params"]
        want = {
            **self.root(doc),
            **self.grid(doc),
            "params.part1": (parts["part1"], True),
            **self.catalogue("params.part1", parts["part1"], [1.0]),
            "params.part2": (parts["part2"], True),
            **self.catalogue("params.part2", parts["part2"], [0.01]),
        }
        assert self.run(tmp_path, monkeypatch, doc) == want

    def test_omnes(self, tmp_path, monkeypatch):
        doc = readme_configs()["omnes"]
        density = doc["params"]["spectral_density"]
        want = {
            **self.root(doc),
            **self.grid(doc),
            # with a density, gamma0 and omega_prime are only asked after, to be refused: no value is read
            "params.spectral_density": (density, True),
            "params.m": (1.0, False),
            "params.omega": (2.0, False),
            "params.hbar": (1.0, False),
            "params.L0": (10.0, False),
            "params.a_re": (self.ROOT_HALF, False),
            "params.a_im": (0.0, False),
            "params.b_re": (self.ROOT_HALF, False),
            "params.b_im": (0.0, False),
            "params.N": (6000, False),
            "params.L0_sweep": ([10.0, 20.0, 40.0], False),
            "params.spectral_density.kind": ("lorentzian", True),
            "params.spectral_density.omega0": (1.1, True),
            "params.spectral_density.center": (0.6, True),
            "params.spectral_density.width": (0.7, True),
            "params.spectral_density.weight": (1.0, False),
            # the default band, center -+ 3000 width, is the support the run used
            "params.spectral_density.lo": (-2099.4, False),
            "params.spectral_density.hi": (2100.6, False),
        }
        assert self.run(tmp_path, monkeypatch, doc) == want

    def test_extract(self, tmp_path, monkeypatch):
        self.run(tmp_path, monkeypatch, readme_configs()["model3"])  # writes out/signal.csv
        doc = readme_configs()["extract"]
        want = {
            **self.root(doc),  # config.grid is only asked after, to be refused
            "params.input_csv": ("out/signal.csv", True),
            "params.model_order": (3, True),
            "params.equilibrium": (0.0, False),
            "params.hbar": (1.0, False),
        }
        assert self.run(tmp_path, monkeypatch, doc) == want


class TestReadOrder:
    """An object's unknown keys are named once its reads end, before anything with a side effect: a
    ``warning:`` line, or an input file read."""

    GRID = {"t_max": 10.0, "n_points": 41}

    def check(self, tmp_path, capsys, monkeypatch, subcommand, doc, line):
        monkeypatch.chdir(tmp_path)
        assert main([subcommand, "--config", write_config(tmp_path, doc), "--out", "out"]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not (tmp_path / "out").exists()

    def test_model2_names_the_unknown_key_before_its_warning(self, tmp_path, capsys, monkeypatch):
        # gamma1 / gamma0 = 5 alone prints a weak-separation warning: line and runs
        params = {"gamma0": 1.0, "gamma1": 5.0, "colour": "red"}
        self.check(
            tmp_path, capsys, monkeypatch, "simulate", {"scenario": "model2", "grid": self.GRID, "params": params},
            "params: unknown keys ['colour']; allowed keys are ['amp0_im', 'amp0_re', 'amp1_im', 'amp1_re', "
            "'equilibrium', 'gamma0', 'gamma1', 'hbar', 'khalfin']",
        )

    def test_csv_density_names_the_unknown_key_before_its_file(self, tmp_path, capsys, monkeypatch):
        sd = {"kind": "csv", "omega0": 1.0, "path": "missing.csv", "colour": "red"}
        self.check(
            tmp_path, capsys, monkeypatch, "omnes",
            {"scenario": "omnes", "grid": self.GRID, "params": {"N": 50, "L0": 1.0, "spectral_density": sd}},
            "params.spectral_density: unknown keys ['colour']; allowed keys are ['kind', 'omega0', 'path']",
        )

    def test_csv_density_is_read_after_the_params_keys(self, tmp_path, capsys, monkeypatch):
        sd = {"kind": "csv", "omega0": 1.0, "path": "missing.csv"}
        params = {"N": 50, "L0": 1.0, "spectral_density": sd, "colour": "red"}
        self.check(
            tmp_path, capsys, monkeypatch, "omnes", {"scenario": "omnes", "grid": self.GRID, "params": params},
            "params: unknown keys ['colour']; allowed keys are ['L0', 'L0_sweep', 'N', 'a_im', 'a_re', 'b_im', "
            "'b_re', 'gamma0', 'hbar', 'm', 'omega', 'omega_prime', 'spectral_density']",
        )

    def test_extract_names_the_unknown_key_before_its_input(self, tmp_path, capsys, monkeypatch):
        params = {"input_csv": "missing.csv", "model_order": 1, "colour": "red"}
        self.check(
            tmp_path, capsys, monkeypatch, "extract", {"scenario": "extract", "params": params},
            "params: unknown keys ['colour']; allowed keys are ['equilibrium', 'hbar', 'input_csv', 'model_order']",
        )

    def test_extract_names_an_unknown_top_level_key_before_its_input(self, tmp_path, capsys, monkeypatch):
        doc = {"scenario": "extract", "params": {"input_csv": "missing.csv", "model_order": 1}, "colour": "red"}
        self.check(
            tmp_path, capsys, monkeypatch, "extract", doc,
            "config: unknown keys ['colour']; allowed keys are ['grid', 'output_dir', 'params', 'scenario']",
        )

    def test_misspelled_required_key_is_named_missing(self, tmp_path, capsys, monkeypatch):
        # the required key's read comes first; before the reads were the schema this line read
        # "params: unknown keys ['gama0']; allowed keys are [...]"
        self.check(
            tmp_path, capsys, monkeypatch, "simulate",
            {"scenario": "model1", "grid": self.GRID, "params": {"gama0": 1.0}},
            "params.gamma0: required field is missing",
        )
