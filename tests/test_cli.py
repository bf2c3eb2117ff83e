import csv
import json

import pytest

from nhlab.cli import main
from nhlab.scenarios import ScenarioConfig, run


def test_scenario_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config"):
        ScenarioConfig.from_dict({"scenario": "fig1", "bogus": 1})
    with pytest.raises(ValueError, match="unknown output"):
        ScenarioConfig.from_dict({"scenario": "fig1", "output": {"dir": "x"}})
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioConfig(scenario="fig9")
    with pytest.raises(ValueError, match="format"):
        ScenarioConfig(scenario="fig1", format="xml")


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


def test_cli_unknown_tolerance_key(tmp_path, capsys):
    for override in ("nope=1", "collinear=1"):
        code = main(["fig1", "--out", str(tmp_path), "--tol", override])
        assert code == 2
        assert "unknown tolerance" in capsys.readouterr().err


def test_cli_bad_config_scenario_mismatch(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"scenario": "fig2"}))
    with pytest.raises(SystemExit):
        main(["fig1", "--config", str(tmp_path / "cfg.json")])


def test_cli_seed_changes_fig1_output(tmp_path):
    main(["fig1", "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["fig1", "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "fig1_spectra.csv").read_text()
    b = (tmp_path / "b" / "fig1_spectra.csv").read_text()
    assert a != b


def test_idempotent_outputs(tmp_path):
    main(["oscillators", "--out", str(tmp_path)])
    first = (tmp_path / "oscillators_report.json").read_bytes()
    tables = (tmp_path / "oscillators_trajectory.csv").read_bytes()
    main(["oscillators", "--out", str(tmp_path)])
    assert (tmp_path / "oscillators_report.json").read_bytes() == first
    assert (tmp_path / "oscillators_trajectory.csv").read_bytes() == tables
