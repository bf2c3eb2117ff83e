"""The one output format: ``scenarios._plain``, ``scenarios._table`` and the
report keys and table headers they write."""

import json
from dataclasses import dataclass

import numpy as np

from nhlab import scenarios
from nhlab.config import DEFAULT
from nhlab.model import LatticeSpec
from nhlab.properties import SuiteReport, TrialFailure
from nhlab.scenarios import (ScenarioConfig, _plain, _table, run, scenario_custom,
                             scenario_fig1, scenario_fig2, scenario_fig3, scenario_fig4,
                             scenario_fig5, scenario_oscillators)

ASSERTION_KEYS = {"name", "passed", "measured", "expected"}
POWER_FLOW_KEYS = {"junction_gains", "site_terms", "flows_forward", "flows_backward",
                   "balance_residual", "max_term"}
EP_KEYS = {"target_energy", "algebraic_multiplicity", "geometric_multiplicity",
           "ep_orders", "jordan_chains", "chain_residuals", "boundary_warning",
           "matrix_norm"}
CERTIFICATE_KEYS = {"max_imag", "is_real", "pseudo_hermitian_residual", "conjugate_pairs",
                    "pair_residuals", "inner_products", "matrix_norm"}
MODE_HEADER = ["index", "omega_re", "omega_im", "ipr", "com", "decay_rate", "class"]
PROFILE_HEADER = ["mode", "site", "psi_re", "psi_im"]
PAIR_HEADER = ["selective_re", "selective_im", "standard_re", "standard_im"]
TABLE_HEADERS = {
    "fig1_spectra": ["index", "omega0", "omega_re", "omega_im"],
    "fig1_levels": ["q", "energy", "continuum", "deviation_over_omega_tilde"],
    "fig1_modes": ["site", "h0_mode1_abs", "h0_mode2_abs", "h0_mode3_abs",
                   "h_mode1_abs", "h_mode2_abs", "h_mode3_abs"],
    "fig2_modes_product": MODE_HEADER,
    "fig2_modes_gauge": MODE_HEADER,
    "fig2_profiles_product": PROFILE_HEADER,
    "fig2_profiles_gauge": PROFILE_HEADER,
    "fig3_trajectories": ["gamma"] + PAIR_HEADER,
    "fig3_threshold_modes": ["site"] + PAIR_HEADER,
    "fig3_junction_gains": ["junction_center", "selective_gain", "standard_gain"],
    "fig5_overlay": ["site", "selective_exact_abs", "selective_predicted_abs",
                     "standard_exact_abs", "standard_predicted_abs"],
    "oscillators_trajectory": ["time"] + [f"x{i}" for i in range(1, 9)],
    "custom_spectrum": ["index", "omega_re", "omega_im"],
    "custom_modes": MODE_HEADER,
}


@dataclass
class Inner:
    z: complex
    pair: tuple


@dataclass
class Outer:
    inner: Inner
    vector: np.ndarray
    flag: bool
    missing: None


def test_plain_encodes_every_report_value():
    out = _plain(Outer(inner=Inner(z=1 - 2j, pair=(np.int64(3), 4)),
                       vector=np.array([0.5 + 1j, np.complex128(-2)]),
                       flag=True, missing=None))
    assert out == {"inner": {"z": [1.0, -2.0], "pair": [3, 4]},
                   "vector": [[0.5, 1.0], [-2.0, 0.0]], "flag": True, "missing": None}
    assert type(out["inner"]["pair"][0]) is int
    assert type(out["vector"][0][0]) is float
    assert out["flag"] is True
    for scalar, want in ((np.float64(0.25), 0.25), (np.int32(-7), -7), (np.bool_(False), False)):
        got = _plain(scalar)
        assert got == want and type(got) is type(want)
    assert _plain(np.complex64(1 + 1j)) == [1.0, 1.0]
    assert _plain({"k": [(), np.zeros((2, 0))]}) == {"k": [[], [[], []]]}
    assert _plain("text") == "text"


def test_fig3_power_flow_keys(calibration):
    result = scenario_fig3(ScenarioConfig(scenario="fig3"), DEFAULT, calibration)
    flows = result.report["power_flows"]
    assert set(flows) == {"selective", "standard"}
    for flow in flows.values():
        assert set(flow) == POWER_FLOW_KEYS
        assert all(type(g) is float for g in flow["junction_gains"])
    json.dumps(result.report)


def test_fig4_case_keys(calibration):
    result = scenario_fig4(ScenarioConfig(scenario="fig4"), DEFAULT, calibration)
    cases = result.report["cases"]
    assert set(cases) == {"a4_zero_n9", "a1_zero_n9", "a1_zero_n8"}
    for case in cases.values():
        assert set(case) == EP_KEYS
        assert case["target_energy"] == [0.0, 0.0]
        # every chain vector is a list of [re, im] pairs
        assert all(len(z) == 2 for chain in case["jordan_chains"]
                   for v in chain for z in v)
    json.dumps(result.report)


def test_custom_certificate_and_assertion_keys(tmp_path):
    cfg = ScenarioConfig(scenario="custom", out_dir=str(tmp_path), format="json",
                         lattice=LatticeSpec(n=5, scaling="geometric", s=1.5))
    run(cfg)
    payload = json.loads((tmp_path / "custom_report.json").read_text())
    cert = payload["report"]["certificate"]
    assert set(cert) == CERTIFICATE_KEYS
    assert all(len(p) == 2 for p in cert["conjugate_pairs"] + cert["inner_products"])
    assert payload["assertions"]
    for assertion in payload["assertions"]:
        assert set(assertion) == ASSERTION_KEYS


def test_suite_report_failure_keys(monkeypatch):
    failure = TrialFailure(suite="reality_psd", trial=4, seed=9, detail="x")
    monkeypatch.setattr(scenarios, "run_properties", lambda trials, seed, tol: SuiteReport(
        seed=seed, trials=trials, failures=[failure]))
    cfg = ScenarioConfig(scenario="properties", trials=5, seed=9)
    report = scenarios.scenario_properties(cfg, DEFAULT).report
    assert report["failures"] == [{"suite": "reality_psd", "trial": 4, "seed": 9,
                                   "detail": "x"}]
    assert report["all_passed"] is False


def test_table_splits_complex_columns_into_python_scalars():
    header, rows = _table({"site": np.arange(1, 3), "psi": np.array([1 + 2j, -0.5j]),
                           "gain": [0.25, np.float64(-1.0)], "class": np.array(["bulk", "skin"])})
    assert header == ["site", "psi_re", "psi_im", "gain", "class"]
    assert rows == [[1, 1.0, 2.0, 0.25, "bulk"], [2, 0.0, -0.5, -1.0, "skin"]]
    assert [type(c) for c in rows[0]] == [int, float, float, float, str]
    assert _table({"q": np.arange(0)}) == (["q"], [])


def test_every_table_header_and_cell_type(calibration):
    fig = ScenarioConfig(scenario="fig1")
    results = [scenario_fig1(fig, DEFAULT), scenario_oscillators(fig, DEFAULT),
               scenario_custom(ScenarioConfig(scenario="custom", lattice=LatticeSpec(
                   n=9, scaling="geometric", s=1.8)), DEFAULT)]
    results += [run_fig(fig, DEFAULT, calibration)
                for run_fig in (scenario_fig2, scenario_fig3, scenario_fig5)]
    tables = {name: table for r in results for name, table in r.tables.items()}
    assert {name: header for name, (header, _) in tables.items()} == TABLE_HEADERS
    for header, rows in tables.values():
        assert rows and all(len(row) == len(header) for row in rows)
        assert {type(c) for row in rows for c in row} <= {int, float, str}
