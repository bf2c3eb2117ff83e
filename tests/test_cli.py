import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nhlab
from nhlab import cli, scenarios
from nhlab.cli import build_parser, config_from_args, main
from nhlab.config import DEFAULT, Tolerances
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_product
from nhlab.scenarios import (CalibrationError, ScenarioConfig, load_or_calibrate, run,
                             smallest_nonzero_abs)


def test_scenario_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config"):
        ScenarioConfig.from_dict({"scenario": "fig1", "bogus": 1})
    with pytest.raises(ValueError, match="unknown output"):
        ScenarioConfig.from_dict({"scenario": "fig1", "output": {"dir": "x"}})
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioConfig(scenario="fig9")
    with pytest.raises(ValueError, match="format"):
        ScenarioConfig(scenario="fig1", format="xml")


def test_scenario_config_refuses_non_integer_pump_site():
    with pytest.raises(ValueError, match="pumped site 1.9 is not an integer"):
        ScenarioConfig.from_dict({"scenario": "fig5",
                                  "pump": {"kappa0": 0.02, "pumped_sites": [1.9]}})


def test_cli_fig5_non_integer_pump_site_exits_2(tmp_path, capsys):
    config = {"scenario": "fig5", "pump": {"kappa0": 0.02, "pumped_sites": [1.9]}}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = main(["fig5", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert code == 2
    assert "pumped site 1.9 is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "fig5_report.json").exists()


@pytest.mark.parametrize("scenario, config, field", [
    ("custom", {"lattice": {"n": 9.5, "scaling": "geometric", "s": 1.8}}, "n 9.5"),
    ("calibrate_s", {"n": "9"}, "n '9'"),
    ("properties", {"trials": 2.5}, "trials 2.5"),
    ("oscillators", {"seed": 1.5}, "seed 1.5"),
    ("custom", {"lattice": {"n": 9, "scaling": "geometric", "s": 1.8,
                            "zeroed_sites": [4.5]}}, "zeroed site 4.5"),
    ("fig1", {"seed": 1.5}, "seed 1.5"),
])
def test_cli_non_integer_count_or_index_exits_2(tmp_path, capsys, scenario, config, field):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = main([scenario, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert code == 2
    assert f"{field} is not an integer" in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}_report.json").exists()


@pytest.mark.parametrize("scenario, config, message", [
    # a bare integer where a list of sites belongs
    ("custom", {"lattice": {"n": 9, "scaling": "geometric", "s": 1.8, "zeroed_sites": 4}},
     "zeroed_sites 4 is not a list of sites"),
    ("fig5", {"pump": {"kappa0": 0.02, "pumped_sites": 1}},
     "pumped_sites 1 is not a list of sites"),
    ("fig5", {"pump": {"kappa0": 0.02}}, "missing pump fields: ['pumped_sites']"),
    ("custom", {"lattice": {"scaling": "identity"}}, "missing lattice fields: ['n']"),
    # a string or a bool where a real number belongs
    ("calibrate_s", {"anchor": "2.38"}, "anchor '2.38' is not a real number"),
    ("custom", {"lattice": {"n": 9, "scaling": "geometric", "s": "1.8"}},
     "s '1.8' is not a real number"),
    ("custom", {"lattice": {"n": 9, "t": True}}, "t True is not a real number"),
    ("custom", {"lattice": {"n": 9, "onsite": "harmonic", "omega2": [1.0]}},
     "omega2 [1.0] is not a real number"),
    ("custom", {"lattice": {"n": 2, "scaling": "explicit", "values": [1.0, "2"]}},
     "value '2' is not a real number"),
    ("fig5", {"pump": {"kappa0": "0.02", "pumped_sites": [1]}},
     "kappa0 '0.02' is not a real number"),
    # a JSON boolean where an integer belongs
    ("custom", {"lattice": {"n": True, "scaling": "identity"}}, "n True is not an integer"),
    ("properties", {"trials": False}, "trials False is not an integer"),
    # a bool or a string where a tolerance belongs
    ("fig1", {"tolerances": {"reality_rel": True}}, "reality_rel True is not a real number"),
    ("properties", {"tolerances": {"residual_rel": "1e-9"}},
     "residual_rel '1e-9' is not a real number"),
    # a document or section that is not a JSON object
    ("fig1", [1], "config [1] is not a JSON object"),
    ("fig1", {"tolerances": [1]}, "tolerances [1] is not a JSON object"),
    ("fig1", {"tolerances": 5}, "tolerances 5 is not a JSON object"),
    ("custom", {"lattice": 5}, "lattice 5 is not a JSON object"),
    ("fig1", {"output": 5}, "output 5 is not a JSON object"),
    ("fig5", {"pump": [0.02, 1]}, "pump [0.02, 1] is not a JSON object"),
    # a non-finite real (json writes and reads NaN, Infinity and big integers)
    ("fig1", {"tolerances": {"hermitian_rel": float("nan")}}, "hermitian_rel nan is not finite"),
    ("calibrate_s", {"anchor": float("inf")}, "anchor inf is not finite"),
    ("calibrate_s", {"anchor": 10 ** 400}, f"anchor {10 ** 400} is not finite"),
    ("custom", {"lattice": {"n": 9, "scaling": "geometric", "s": float("nan")}},
     "s nan is not finite"),
    ("fig5", {"pump": {"kappa0": float("inf"), "pumped_sites": [1]}}, "kappa0 inf is not finite"),
])
def test_cli_mistyped_config_field_exits_2(tmp_path, capsys, scenario, config, message):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = main([scenario, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}_report.json").exists()


def test_real_config_fields_stored_as_float():
    spec = LatticeSpec(n=3, t=2, onsite="harmonic", omega2=np.float32(0.5),
                       scaling="explicit", values=[1, np.int64(2), 3.5])
    assert [type(x) for x in (spec.t, spec.omega2, spec.s, *spec.values)] == [float] * 6
    assert type(ScenarioConfig(scenario="calibrate_s", anchor=2).anchor) is float


def test_calibrate_s_stops_at_float64_convergence(monkeypatch):
    calls = []

    def counted(h, tol):
        calls.append(1)
        return smallest_nonzero_abs(h, tol)

    monkeypatch.setattr(scenarios, "smallest_nonzero_abs", counted)
    record = scenarios.calibrate_s()
    # the 121 grid points as one stack, 46 bisection steps until the midpoint
    # stops moving, 1 check
    assert len(calls) == 48

    # the fixed 60-step bisection it replaced reaches the same ratio
    def gap(s):
        spec = LatticeSpec(n=9, scaling="geometric", s=s)
        h = construct_product(build_h0(spec), build_scaling(spec))
        return smallest_nonzero_abs(h) - scenarios.ANCHOR_NEXT_TO_ZERO

    grid = np.geomspace(*scenarios.CALIBRATION_S_RANGE, 121)
    values = [gap(s) for s in grid]
    i = next(i for i in range(120) if values[i] * values[i + 1] < 0)
    lo, hi = grid[i], grid[i + 1]
    glo = gap(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        gm = gap(mid)
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
    assert record["s"] == 0.5 * (lo + hi)


def test_stacked_calibration_grid_equals_per_point_gaps():
    # the grid's gaps from one stack, bit for bit those of one chain at a time
    grid = np.geomspace(*scenarios.CALIBRATION_S_RANGE, 121)
    per_point = [smallest_nonzero_abs(construct_product(build_h0(spec), build_scaling(spec)))
                 - scenarios.ANCHOR_NEXT_TO_ZERO
                 for spec in (LatticeSpec(n=9, scaling="geometric", s=s) for s in grid)]
    assert np.array_equal(scenarios._calibration_gap(grid), per_point)
    assert [scenarios._calibration_gap(s) for s in grid] == per_point


def test_custom_requires_lattice(tmp_path):
    cfg = ScenarioConfig(scenario="custom", out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="lattice"):
        run(cfg)


def test_cli_oscillators_exit_zero(tmp_path, capsys):
    code = main(["oscillators", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK  oscillators" in out
    assert (tmp_path / "oscillators_report.json").exists()
    assert (tmp_path / "oscillators_trajectory.csv").exists()
    assert (tmp_path / "run.log").exists()


def test_cli_custom_config_and_overrides(tmp_path, capsys):
    config = {
        "scenario": "custom",
        "lattice": {"n": 6, "t": 1.0, "scaling": "random", "seed": 9},
        "output": {"path": str(tmp_path), "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["custom", "--config", str(cfg_path)])
    assert code == 0
    report = json.loads((tmp_path / "custom_report.json").read_text())
    assert report["passed"] is True

    with (tmp_path / "custom_modes.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "omega_re", "omega_im", "ipr", "com",
                       "decay_rate", "class"]
    assert len(rows) == 7           # header + one row per mode
    # '.' decimal separator per the CSV convention
    assert "." in rows[1][1] and "," not in rows[1][1]

    with (tmp_path / "custom_spectrum.csv").open() as fh:
        spectrum = list(csv.reader(fh))
    assert spectrum[0] == ["index", "omega_re", "omega_im"]


def test_cli_json_format_embeds_tables(tmp_path):
    config = {
        "scenario": "custom",
        "lattice": {"n": 4, "t": 1.0},
        "output": {"path": str(tmp_path), "format": "json"},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["custom", "--config", str(tmp_path / "cfg.json")]) == 0
    report = json.loads((tmp_path / "custom_report.json").read_text())
    assert "custom_spectrum" in report["tables"]
    assert not (tmp_path / "custom_spectrum.csv").exists()


def test_cli_tolerance_override_can_fail_scenario(tmp_path, capsys):
    # an absurdly tight reality tolerance must flip the exit status
    code = main(["properties", "--out", str(tmp_path), "--trials", "2",
                 "--tol", "reality_rel=1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED" in out
    report = json.loads((tmp_path / "properties_report.json").read_text())
    assert report["report"]["failures"]          # replay records serialized


def test_cli_tolerance_override_can_trip_contract_error(tmp_path, capsys):
    # residual bound made impossible: the eigensolver contract error surfaces
    config = {
        "scenario": "custom",
        "lattice": {"n": 8, "t": 1.0, "scaling": "random", "seed": 3},
        "output": {"path": str(tmp_path)},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code = main(["custom", "--config", str(tmp_path / "cfg.json"),
                 "--tol", "residual_rel=1e-30"])
    assert code == 2
    assert "residual" in capsys.readouterr().err


def test_cli_tolerance_override_is_a_real_number(tmp_path):
    args = build_parser().parse_args(["fig1", "--out", str(tmp_path),
                                      "--tol", "reality_rel=1e-9", "--tol", "cluster_rel=2"])
    tol = config_from_args(args).tol()
    assert (tol.reality_rel, tol.cluster_rel) == (1e-9, 2.0)
    assert type(tol.cluster_rel) is float
    assert main(["fig1", "--out", str(tmp_path), "--tol", "reality_rel=1e-9"]) == 0


@pytest.mark.parametrize("override, message", [
    ("threshold_imag=nan", "threshold_imag nan is not finite"),
    ("threshold_imag=inf", "threshold_imag inf is not finite"),
    ("hermitian_rel=-inf", "hermitian_rel -inf is not finite"),
])
def test_cli_non_finite_tolerance_exits_2(tmp_path, capsys, override, message):
    # a NaN threshold_imag would skip every fig3 root search and exit 1
    code = main(["fig3", "--out", str(tmp_path), "--tol", override])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "fig3_report.json").exists()


def test_tolerances_are_finite_reals():
    with pytest.raises(ValueError, match="self_orth nan is not finite"):
        Tolerances(self_orth=float("nan"))
    with pytest.raises(ValueError, match="psd_rel True is not a real number"):
        Tolerances(psd_rel=True)
    with pytest.raises(ValueError, match="hermitian_rel nan is not finite"):
        DEFAULT.with_overrides({"hermitian_rel": float("nan")})
    # zero and negative tolerances stay legal, stored as float
    tol = Tolerances(reality_rel=0, mech_spectrum_rel=-1)
    assert (tol.reality_rel, tol.mech_spectrum_rel) == (0.0, -1.0)
    assert type(tol.reality_rel) is float


def test_cli_unknown_tolerance_key(tmp_path, capsys):
    # nhph_vector and nhph_eigen_rel were removed: a config setting them fails loudly
    for override in ("nope=1", "collinear=1", "nhph_vector=1e-6", "nhph_eigen_rel=1e-8"):
        code = main(["fig1", "--out", str(tmp_path), "--tol", override])
        assert code == 2
        assert "unknown tolerance keys" in capsys.readouterr().err


def test_cli_bad_config_scenario_mismatch(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "fig2"}))
    assert main(["fig1", "--config", str(tmp_path / "cfg.json")]) == 2
    assert capsys.readouterr().err == (
        "error: config names scenario 'fig2' but the command line asked for 'fig1'\n")


def test_cli_tolerance_without_value_exits_2(tmp_path, capsys):
    assert main(["fig4", "--out", str(tmp_path), "--tol", "foo"]) == 2
    assert capsys.readouterr().err == "error: --tol expects key=value, got 'foo'\n"
    assert not (tmp_path / "fig4_report.json").exists()


def test_python_m_nhlab_runs_a_scenario(tmp_path):
    src = str(Path(nhlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "nhlab", "fig4", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("OK  fig4: ")
    assert (tmp_path / "fig4_report.json").exists()


def test_load_or_calibrate_refuses_a_record_without_s(tmp_path):
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps({"anchor": 2.38}))
    with pytest.raises(CalibrationError, match=re.escape(f"{path} is not a calibration record")):
        load_or_calibrate(tmp_path, DEFAULT)


def test_calibrate_s_names_the_best_ratio_when_no_ratio_reaches_the_anchor():
    with pytest.raises(CalibrationError, match=re.escape(
            "no s in [1.01, 4.0] reaches anchor 100.0; best s = 4.000000 with gap")):
        scenarios.calibrate_s(anchor=100.0)


def test_cli_seed_changes_fig1_output(tmp_path):
    main(["fig1", "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["fig1", "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "fig1_spectra.csv").read_text()
    b = (tmp_path / "b" / "fig1_spectra.csv").read_text()
    assert a != b


def test_cli_fig1_seed_1001_passes_without_spread_containment(tmp_path):
    # this scaling leaves H0's lowest level below H's: the spread need not
    # contain H0's, while Ostrowski's bound holds at every level
    assert main(["fig1", "--out", str(tmp_path), "--seed", "1001"]) == 0
    report = json.loads((tmp_path / "fig1_report.json").read_text())
    assert report["report"]["h_range"][0] > report["report"]["h0_range"][0]
    checks = {a["name"]: a for a in report["assertions"]}
    assert checks["fig1.ostrowski_bound"]["passed"]
    assert "fig1.spread_contains_h0" not in checks


@pytest.mark.parametrize("scenario", ["oscillators", "fig3"])
def test_idempotent_outputs(tmp_path, scenario):
    def outputs():   # every file but the timestamped run.log sidecar
        assert main([scenario, "--out", str(tmp_path)]) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                if p.name != "run.log"}
    first = outputs()
    assert f"{scenario}_report.json" in first
    assert outputs() == first


def test_main_parses_with_one_parser_and_shares_no_parsed_state(tmp_path, monkeypatch):
    # every call of main parses with the one parser a process builds, and each call's options,
    # repeated --tol overrides included, give the configuration a parser built afresh gives
    parser, parsed, configs = build_parser(), [], []
    assert build_parser() is parser
    monkeypatch.setattr(parser, "parse_args", lambda argv: parsed.append(argv) or (
        argparse.ArgumentParser.parse_args(parser, argv)))
    monkeypatch.setattr(cli, "run", lambda cfg: configs.append(cfg) or SimpleNamespace(
        assertions=[], passed=True, scenario=cfg.scenario))
    out = ["--out", str(tmp_path)]
    argvs = [["properties", "--tol", "residual_rel=1e-9", "--tol", "cluster_rel=2",
              "--trials", "5", "--seed", "3", *out],
             ["fig1", *out], ["properties", *out], ["fig1", "--tol", "reality_rel=1e-7", *out],
             ["calibrate_s", "--anchor", "2.0", *out], ["fig5", *out]]
    for argv in argvs:
        assert main(argv) == 0
    assert parsed == argvs
    assert configs == [config_from_args(build_parser.__wrapped__().parse_args(argv))
                       for argv in argvs]
    assert [c.tolerances for c in configs] == [
        {"residual_rel": 1e-9, "cluster_rel": 2.0}, {}, {}, {"reality_rel": 1e-7}, {}, {}]
    assert [c.trials for c in configs[:3]] == [5, 200, 200]
