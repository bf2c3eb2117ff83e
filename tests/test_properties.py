import numpy as np

from nhlab import properties
from nhlab.properties import SUITE_NAMES, replay_instance, run_properties, run_trial


def test_all_suites_pass_small():
    report = run_properties(trials=20, seed=11)
    assert report.all_passed
    assert report.passes == {name: 20 for name in SUITE_NAMES}


def test_determinism_and_replay():
    r1 = run_properties(trials=5, seed=3)
    r2 = run_properties(trials=5, seed=3)
    assert r1 == r2
    # replay contract: rerunning a serialized instance reproduces the outcome
    record = {"suite": "reality_psd", "seed": 3, "trial": 2}
    assert replay_instance(record) == run_trial("reality_psd", 3, 2)


def test_unknown_suite_rejected():
    import pytest
    with pytest.raises(ValueError, match="unknown suite"):
        run_trial("bogus", 0, 0)
    with pytest.raises(ValueError, match="trials"):
        run_properties(trials=0, seed=0)


def test_chiral_pairing_fails_under_onsite_ramp(monkeypatch):
    # an onsite ramp breaks the chiral symmetry: no mode keeps a -w partner
    build_h0 = properties.build_h0
    monkeypatch.setattr(properties, "build_h0",
                        lambda spec: build_h0(spec) + np.diag(np.linspace(0, 0.3, spec.n)))
    assert [run_trial("chiral_pairing", 1, k) for k in range(3)] == [
        "no chiral partner for w = -680.378 (n=13, s=1.778)",
        "no chiral partner for w = -22.8345 (n=11, s=1.383)",
        "no chiral partner for w = -2.65705 (n=5, s=1.264)",
    ]
