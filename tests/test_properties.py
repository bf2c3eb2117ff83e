import inspect
from dataclasses import replace

import numpy as np
import pytest

from nhlab import mech, model, properties
from nhlab.config import DEFAULT, Tolerances
from nhlab.eig import eig_full
from nhlab.mech import OscillatorChain, dynamical_matrix, eigenfrequencies
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_product, spectral_norm
from nhlab.properties import SUITE_NAMES, replay_instance, run_properties, run_trial
from nhlab.spectra import conjugate_pairs


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


def test_suite_names_are_pinned():
    # the position of a name keys every trial's RNG: reordering would redraw every instance
    assert SUITE_NAMES == (
        "reality_psd", "pseudo_hermiticity", "conjugate_closure_indefinite",
        "no_ep_psd_invertible", "ep_location_psd_singular", "gauge_similarity",
        "coupling_ratio_geometric", "chiral_pairing", "mech_reality",
        "mech_hermitian_equivalent")


def test_unknown_suite_rejected():
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


# Tolerances under which every suite fails, and the coupling-ratio suite's
# fixed 1e-13 test is tripped by raising the upper half of each geometric
# scaling by a relative 1e-12.
TIGHT = Tolerances(reality_rel=0.0, metric_rel=0.0, spectra_match_rel=0.0,
                   mech_spectrum_rel=-1.0, self_orth=0.3)


def _statuses(code: str, n: int) -> str:
    names = tuple({"b": "biorthonormal", "s": "self_orthogonal"}[c] for c in code)
    return f"statuses {names} for invertible PSD scaling (n={n})"


# The first three (trial, detail) failures per suite at seed 1 over 10 trials,
# recorded from the trial-by-trial implementation the stacked suites replaced.
GOLDEN_FAILURES = {
    "reality_psd": [
        (0, "max|Im w| = 4.130e-14 > 0.000e+00 (n=15)"),
        (1, "max|Im w| = 1.917e-13 > 0.000e+00 (n=30)"),
        (2, "max|Im w| = 9.919e-14 > 0.000e+00 (n=17)"),
    ],
    "pseudo_hermiticity": [
        (0, "metric residual 5.886e-13 > 0.000e+00 (n=17)"),
        (1, "metric residual 3.129e-13 > 0.000e+00 (n=12)"),
        (2, "metric residual 2.951e-11 > 0.000e+00 (n=30)"),
    ],
    "conjugate_closure_indefinite": [
        (0, "conjugation-closure residual 4.321e-14 > 0.000e+00 (n=20)"),
        (1, "conjugation-closure residual 8.241e-14 > 0.000e+00 (n=20)"),
        (2, "conjugation-closure residual 1.213e-13 > 0.000e+00 (n=23)"),
    ],
    "no_ep_psd_invertible": [
        (3, _statuses("bbbsssbbbb", 10)),
        (5, _statuses("bbbbbbbbsssbsbbbbbbb", 20)),
        (7, _statuses("bbbbssbbb", 9)),
    ],
    "ep_location_psd_singular": [
        (0, "self-orthogonal mode at w = -8.212e+00+6.259e-16j, away from zero (n=13)"),
        (1, "self-orthogonal mode at w = -2.166e+01+8.773e-14j, away from zero (n=13)"),
        (2, "self-orthogonal mode at w = -2.135e-01-5.023e-13j, away from zero (n=17)"),
    ],
    "gauge_similarity": [
        (0, "gauge spectrum gap 2.931e-14 > 0.000e+00 (n=25)"),
        (1, "gauge spectrum gap 1.776e-15 > 0.000e+00 (n=6)"),
        (2, "gauge spectrum gap 4.086e-14 > 0.000e+00 (n=29)"),
    ],
    "coupling_ratio_geometric": [
        (0, "coupling ratio np.float64(2.833506496681504) != s = 2.8335064966786705 at bond 8"),
        (1, "coupling ratio np.float64(2.553336336700012) != s = 2.5533363366974586 at bond 7"),
        (2, "coupling ratio np.float64(2.05975617995987) != s = 2.0597561799578097 at bond 6"),
    ],
    "chiral_pairing": [
        (0, "no chiral partner for w = -23.8039 (n=13, s=1.778)"),
        (1, "no chiral partner for w = -27.8744 (n=11, s=1.383)"),
        (2, "no chiral partner for w = -3.07231 (n=5, s=1.264)"),
    ],
    "mech_reality": [
        (0, "non-real eigenvalue (max |Im| = 0.000e+00) (n=2)"),
        (1, "non-real eigenvalue (max |Im| = 0.000e+00) (n=11)"),
        (2, "non-real eigenvalue (max |Im| = 0.000e+00) (n=38)"),
    ],
    "mech_hermitian_equivalent": [
        (0, "mass-graded equivalent spectrum gap 1.776e-14 > 0.000e+00 (n=12)"),
        (1, "mass-graded equivalent spectrum gap 1.776e-15 > 0.000e+00 (n=25)"),
        (2, "mass-graded equivalent spectrum gap 1.243e-14 > 0.000e+00 (n=25)"),
    ],
}


@pytest.fixture
def perturbed_scaling(monkeypatch):
    build_scaling = properties.build_scaling
    monkeypatch.setattr(properties, "build_scaling", lambda spec: build_scaling(spec) * (
        1 + 1e-12 * (np.arange(spec.n) >= spec.n // 2)))


def test_stacked_failure_details_match_recorded_trials(perturbed_scaling):
    report = run_properties(trials=10, seed=1, tol=TIGHT)
    found = {}
    for failure in report.failures:
        found.setdefault(failure.suite, []).append((failure.trial, failure.detail))
    assert {suite: records[:3] for suite, records in found.items()} == GOLDEN_FAILURES
    assert report.passes == {name: 0 for name in SUITE_NAMES} | {
        "no_ep_psd_invertible": 6, "ep_location_psd_singular": 1}
    for suite, records in GOLDEN_FAILURES.items():
        for trial, detail in records:
            assert replay_instance({"suite": suite, "seed": 1, "trial": trial}, TIGHT) == detail


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_trial_subsets_give_the_same_details(perturbed_scaling, suite):
    # grouping by size never changes an instance: any list of trials, in any
    # order, gives each trial the detail it has in the full run
    full = properties._details(suite, 2, range(40), TIGHT)
    subset = [37, 3, 12, 3, 0]
    details = properties._details(suite, 2, subset, TIGHT)
    assert details == [full[k] for k in subset]
    assert any(details), suite              # the failure details are compared too


def test_stacked_suites_call_eig_full_once_per_size_group(monkeypatch):
    calls = {}
    eig_full = properties.eig_full

    def counted(h, tol):
        calls.setdefault(inspect.currentframe().f_back.f_code.co_name, []).append(h.shape)
        return eig_full(h, tol)

    monkeypatch.setattr(properties, "eig_full", counted)
    run_properties(trials=50, seed=1)
    assert set(calls) == {"_no_ep_psd_invertible", "_ep_location_psd_singular", "_chiral_pairing"}
    for suite, shapes in calls.items():
        sizes = [n for _, n, _ in shapes]
        assert len(sizes) == len(set(sizes)) > 1, suite      # one stack per size
        assert sum(k for k, _, _ in shapes) == 50, suite     # every trial in one of them


def loop_chiral_detail(es, n, s, tol):
    """The per-mode loop that ``_chiral_detail``'s column expressions replaced."""
    w = es.eigenvalues
    pairs, resid = conjugate_pairs(1j * w)
    for (mu, nu), r in zip(pairs, resid):
        if mu == nu and abs(w[mu]) <= tol.zero_mode_rel * es.matrix_norm:
            continue
        if r > tol.reality_rel * es.matrix_norm:
            return f"no chiral partner for w = {w[mu].real:.6g} (n={n}, s={s:.3f})"
        p = np.abs(es.right(mu)) / np.linalg.norm(es.right(mu))
        q = np.abs(es.right(nu)) / np.linalg.norm(es.right(nu))
        if np.abs(p - q).max() > 1e-8:
            return f"chiral partners differ in |psi| (n={n}, s={s:.3f})"
    return None


def test_chiral_detail_matches_the_mode_loop():
    rng = np.random.default_rng(4)
    outcomes = set()
    for n in (3, 9, 15):
        for s in (1.1, 1.7, 2.2):
            spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
            h0, a = build_h0(spec), build_scaling(spec)
            ramp = build_h0(spec) + np.diag(np.linspace(0, 0.3, n))
            for es in eig_full(np.stack([construct_product(h0, a), construct_product(ramp, a)])):
                spoiled = es.right_vectors.copy()
                spoiled[rng.integers(n), rng.integers(n)] *= 1.5
                for case in (es, replace(es, right_vectors=spoiled)):
                    for tol in (DEFAULT, TIGHT):
                        detail = properties._chiral_detail(case, n, s, tol)
                        assert detail == loop_chiral_detail(case, n, s, tol)
                        outcomes.add(detail and detail.split(" (")[0].split(" for ")[0])
    assert outcomes == {None, "no chiral partner", "chiral partners differ in |psi|"}


# ---------------------------------------------------------------------------
# the norm floor of ``norm_scale`` against the plain SVD rule

def svd_rule(m, values, rel):
    """``norm_scale`` as the plain rule: the SVD norm of every matrix."""
    return spectral_norm(m)


def plain_pseudo_hermiticity(n, rngs, tol):
    """The pseudo-Hermiticity check with both 2-norms from the SVD."""
    h0 = np.stack([properties._random_hermitian(r, n) for r in rngs])
    sv = np.linalg.svd(h0, compute_uv=False)
    keep = np.flatnonzero(sv[:, -1] > tol.invertible_rel * sv[:, 0])
    if not keep.size:
        return []
    h0 = h0[keep]
    h = construct_product(h0, np.stack([properties._random_psd(rngs[k], n) for k in keep]), tol)
    resid = spectral_norm(np.linalg.solve(h0, h @ h0) - np.swapaxes(h.conj(), 1, 2))
    return [(keep[k], detail) for k, detail in properties._exceeding(
        "metric residual", resid, tol.metric_rel * spectral_norm(h), n)]


def plain(mp):
    """Put every check that goes through ``norm_scale`` on the plain SVD rule."""
    mp.setattr(properties, "norm_scale", svd_rule)
    mp.setattr(mech, "norm_scale", svd_rule)
    size = properties._SUITES["pseudo_hermiticity"][0]
    mp.setitem(properties._SUITES, "pseudo_hermiticity", (size, plain_pseudo_hermiticity))


def plain_details(suite, seed, trials, tol):
    with pytest.MonkeyPatch.context() as mp:
        plain(mp)
        return properties._details(suite, seed, trials, tol)


def value_and_norm(suite, seed, trial):
    """(value, ||M||_2) of one trial by the plain rule, read off its limit at
    rel = -1; None for a trial without one (a vacuous pseudo-Hermiticity trial)."""
    seen, exceeding = [], properties._exceeding
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(properties, "_exceeding", lambda what, values, limits, n: seen.append(
            (values[0], -limits[0])) or exceeding(what, values, limits, n))
        plain_details(suite, seed, [trial], Tolerances().with_overrides(
            dict.fromkeys(("reality_rel", "metric_rel", "spectra_match_rel"), -1.0)))
    return seen[0] if seen else None


ROUTED = {"reality_psd": "reality_rel", "pseudo_hermiticity": "metric_rel",
          "conjugate_closure_indefinite": "reality_rel", "gauge_similarity": "spectra_match_rel",
          "mech_reality": "mech_spectrum_rel", "mech_hermitian_equivalent": "spectra_match_rel"}


@pytest.mark.parametrize("suite", ROUTED)
def test_norm_floor_keeps_the_svd_rule_verdicts_and_details(suite):
    # the tolerance puts one trial's value at rel * ||M||_2 * (1 -+ 1e-9);
    # rel = 0 and rel < 0 (TIGHT's values) run every trial of a seed
    field, boundary = ROUTED[suite], 0
    for trial in range(8):
        got = value_and_norm(suite, 5, trial)
        if got is None or not got[0]:
            continue
        value, norm = got
        details = []
        for factor in (1 - 1e-9, 1 + 1e-9):
            tol = Tolerances(**{field: value / norm * factor})
            details += properties._details(suite, 5, [trial], tol)
            assert details[-1:] == plain_details(suite, 5, [trial], tol)
        assert details[0] is not None and details[1] is None
        boundary += 1
    assert boundary >= 4 or suite == "mech_reality"     # its value is not an _exceeding's
    for rel in (0.0, -1.0, getattr(DEFAULT, field)):
        tol = Tolerances(**{field: rel})
        assert properties._details(suite, 5, range(30), tol) == \
            plain_details(suite, 5, range(30), tol)


def outcome(m, tol):
    try:
        return eigenfrequencies(m, tol).tolist()
    except ValueError as exc:
        return str(exc)


def test_eigenfrequencies_norm_floor_keeps_the_svd_rule_outcome():
    # physical chains, chains shifted to a positive eigenvalue, real matrices
    # with conjugate pairs (real arithmetic) and complex ones (complex
    # arithmetic); n = 33 takes the banded norm route
    rng = np.random.default_rng(3)
    cases = 0
    for n in (1, 2, 5, 12, 33):
        chain = dynamical_matrix(properties._random_chain(rng, n))
        top = np.linalg.eigvals(chain.real).real.max()
        for m in (chain, chain - 1.5 * top * np.eye(n), rng.normal(size=(n, n)),
                  rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))):
            lam = np.linalg.eigvals(m if np.iscomplexobj(m) and m.imag.any() else m.real)
            worst, norm = max(np.abs(lam.imag).max(), lam.real.max()), spectral_norm(m)
            rels = [0.0, -1.0, DEFAULT.mech_spectrum_rel]
            if worst > 0:
                rels += [worst / norm * (1 - 1e-9), worst / norm * (1 + 1e-9)]
            got = []
            for rel in rels:
                tol = Tolerances(mech_spectrum_rel=rel)
                got.append(outcome(m, tol))
                with pytest.MonkeyPatch.context() as mp:
                    plain(mp)
                    assert got[-1] == outcome(m, tol)
            if worst > 0:
                assert isinstance(got[-2], str) and isinstance(got[-1], list)
                cases += 1
    assert cases >= 10


def refuse_svd(*args):
    raise AssertionError("an SVD norm was taken")


def test_passing_checks_take_no_svd_for_a_norm(monkeypatch):
    # ``norm_scale`` and ``residual_norm`` call model.spectral_norm, the only
    # SVD norm properties and mech reach, where their bounds cannot decide
    monkeypatch.setattr(model, "spectral_norm", refuse_svd)
    chain = OscillatorChain(n=6, masses=(1.0, 2.5, 0.4, 3.0, 1.7, 0.9), spring_k=1.3)
    assert eigenfrequencies(dynamical_matrix(chain)).min() > 0
    assert run_properties(trials=20, seed=11).all_passed


def test_failing_checks_reach_the_svd(monkeypatch, perturbed_scaling):
    # the same checks under TIGHT (rel = 0 and < 0) need the exact norm;
    # test_stacked_failure_details_match_recorded_trials pins their details
    monkeypatch.setattr(model, "spectral_norm", refuse_svd)
    with pytest.raises(AssertionError, match="an SVD norm"):
        run_properties(trials=10, seed=1, tol=TIGHT)
