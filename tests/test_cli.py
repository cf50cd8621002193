"""End-to-end runs of the command-line interface, in process."""

import json
import math

import numpy as np
import pytest

from decopoles.cli import main
from decopoles.pole_models import (
    PoleCatalogue,
    Mode,
    Pole,
    Signal,
    catalogue_from_json,
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
    def test_timescale_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scenario": "model2",
                "grid": {"t_max": 20.0, "n_points": 81},
                "params": {"gamma0": 0.1, "gamma1": 1.0},
            },
        )
        out = tmp_path / "run"
        with pytest.warns(UserWarning):  # ratio exactly 10: weak separation
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "timescales.csv")
        assert float(rows["t_R"]) == 10.0
        assert float(rows["t_D"]) == 1.0
        assert rows["boundary"] == "irrelevant"
        assert rows["p_relevant"] == "0"
        assert rows["p_irrelevant"] == "1"
        assert float(rows["intermediate_time"]) == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_well_separated_is_quiet(self, tmp_path):
        import warnings

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

    def test_rule_selection(self, tmp_path):
        cfg = self.config(tmp_path, rule="slowest-only")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "timescales.csv")
        assert rows["rule"] == "slowest-only"
        assert float(rows["t_D"]) == 10.0
        assert rows["p_relevant"] == "0"


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
        cfg = write_config(tmp_path, self.base_doc())
        out = tmp_path / "run"
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

    def test_macroscopicity_fail_warns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.base_doc(L0=2.0, N=50))
        out = tmp_path / "run"
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
        assert main(["omnes", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert "numeric failure" in capsys.readouterr().err

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

    def test_overasked_order_retries_at_effective_rank(self, tmp_path, capsys):
        csv_path = self.simulate_figure(tmp_path)
        cfg = self.extract_config(tmp_path, csv_path, 5)
        out = tmp_path / "fit"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 0
        assert "supports only 3" in capsys.readouterr().err
        cat = catalogue_from_json((out / "catalogue.json").read_text(encoding="utf-8"))
        assert len(cat.modes) == 3

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
        self.check(
            tmp_path,
            capsys,
            {
                "scenario": "omnes",
                "grid": {"t_max": 1.0, "n_points": 5},
                "params": {"L0_sweep": [10.0, -3.0]},
            },
            "params.L0_sweep[1]",
            subcommand="omnes",
        )

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
