"""The one output format: ``scenarios._plain`` and the report keys it writes."""

import json
from dataclasses import dataclass

import numpy as np

from nhlab.config import DEFAULT
from nhlab.model import LatticeSpec
from nhlab.properties import SuiteReport, TrialFailure
from nhlab.scenarios import (ScenarioConfig, _plain, run, scenario_fig3,
                             scenario_fig4)

ASSERTION_KEYS = {"name", "passed", "measured", "expected"}
POWER_FLOW_KEYS = {"junction_gains", "site_terms", "flows_forward", "flows_backward",
                   "balance_residual", "max_term"}
EP_KEYS = {"target_energy", "algebraic_multiplicity", "geometric_multiplicity",
           "ep_orders", "jordan_chains", "chain_residuals", "boundary_warning",
           "matrix_norm"}
CERTIFICATE_KEYS = {"max_imag", "is_real", "pseudo_hermitian_residual", "conjugate_pairs",
                    "pair_residuals", "inner_products", "matrix_norm"}


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


def test_suite_report_failure_keys():
    failure = TrialFailure(suite="reality_psd", trial=4, seed=9, detail="x")
    report = SuiteReport(seed=9, trials=5, failures=[failure]).to_dict()
    assert report["failures"] == [{"suite": "reality_psd", "trial": 4, "seed": 9,
                                   "detail": "x"}]
    assert report["all_passed"] is False
