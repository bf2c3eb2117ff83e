import re

import numpy as np
import pytest

from nhlab.config import DEFAULT
from nhlab.eig import EigenSystem, collinearity_residual, eig_full
from nhlab.laser import PumpSpec, pumped_hamiltonian
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product
from nhlab.skin import (BULK, EVEN_SITES, MIXED, ODD_SITES, SKIN_LEFT, SKIN_RIGHT,
                        NoZeroModeError, find_zero_mode, mode_reports,
                        verify_selective_skin, verify_standard_skin, zero_mode_equality)
from nhlab.scenarios import _mode_table


def systems_for(n, s):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
    h0 = build_h0(spec)
    a = build_scaling(spec)
    return (eig_full(construct_product(h0, a)),
            eig_full(construct_gauge(h0, a)),
            eig_full(h0))


def columns_system(*vectors):
    """An EigenSystem whose right vectors are the given site profiles."""
    v = np.stack([np.asarray(x, dtype=complex) for x in vectors], axis=1)
    m = v.shape[1]
    return EigenSystem(dim=v.shape[0], eigenvalues=np.zeros(m, dtype=complex),
                       right_vectors=v, left_vectors=v, norm_status=("biorthonormal",) * m,
                       overlaps=np.ones(m, dtype=complex), residuals=np.zeros(m),
                       matrix_norm=1.0)


def report_of(vector, s=2.0):
    return mode_reports(columns_system(vector), s)[0]


# ---------------------------------------------------------------------------
# the per-mode profile and classification that mode_reports replaced, kept
# verbatim as the oracle for the batched metrics

def reference_profile(mode, tol=DEFAULT):
    v = np.asarray(mode, dtype=complex)
    amax = np.abs(v).max()
    if amax == 0:
        raise ValueError("zero vector has no profile")
    n = len(v)
    p = np.abs(v) ** 2
    ipr = float((np.abs(v) ** 4).sum() / p.sum() ** 2)
    com = float((np.arange(1, n + 1) * p).sum() / p.sum())

    odd_max = np.abs(v[0::2]).max()                        # 1-based odd sites
    even_max = np.abs(v[1::2]).max() if n > 1 else 0.0
    if even_max <= tol.parity_rel * amax:
        parity, sites = ODD_SITES, np.arange(0, n, 2)
    elif odd_max <= tol.parity_rel * amax:
        parity, sites = EVEN_SITES, np.arange(1, n, 2)
    else:
        parity, sites = MIXED, np.arange(n)
    sites = sites[np.abs(v[sites]) > tol.profile_floor * amax]

    if len(sites) >= 2:
        js = sites + 1.0
        y = np.log(np.abs(v[sites]))
        slope, icpt = np.polyfit(js, y, 1)
        fit_rms = float(np.sqrt(np.mean((y - slope * js - icpt) ** 2)))
        rise = float(np.max(y - slope * js - icpt))
        decay = float(slope)
    else:
        decay, fit_rms, rise = 0.0, 0.0, 0.0

    return {"ipr": ipr, "com": com, "decay_rate": decay, "fit_rms": fit_rms,
            "envelope_rise": rise, "support_parity": parity}


def reference_classify(metrics, n, s, tol=DEFAULT):
    half_rate = np.log(s) / 2.0
    com, decay, rise = metrics["com"], metrics["decay_rate"], metrics["envelope_rise"]
    if (com < tol.com_fraction * n and decay <= -half_rate + tol.decay_margin
            and rise <= tol.envelope_rms):
        return SKIN_LEFT
    if (com > (1.0 - tol.com_fraction) * n and decay >= half_rate - tol.decay_margin
            and rise <= tol.envelope_rms):
        return SKIN_RIGHT
    return BULK


def assert_matches_reference(es, s):
    reports = mode_reports(es, s)
    assert len(reports) == es.right_vectors.shape[1]
    for mu, r in enumerate(reports):
        ref = reference_profile(es.right(mu))
        assert r.mode_index == mu
        assert r.eigenvalue == es.eigenvalues[mu]
        assert r.support_parity == ref["support_parity"], mu
        assert r.classification == reference_classify(ref, es.dim, s), mu
        for key in ("ipr", "com", "decay_rate", "fit_rms", "envelope_rise"):
            assert abs(getattr(r, key) - ref[key]) <= 1e-12, (mu, key)


def _ratios(n):
    big = 1e4 ** (1.0 / (n - 1))
    return (big, 1.0, 1.0 / big)


@pytest.mark.parametrize("n", [9, 11, 101, 201])
def test_batched_profile_matches_reference_on_chains(n):
    h0_done = False
    for s in _ratios(n):
        es_h, es_hpp, es_h0 = systems_for(n, s)
        for es in (es_h, es_hpp) if h0_done else (es_h, es_hpp, es_h0):
            assert_matches_reference(es, s)
        h0_done = True


def test_batched_profile_matches_reference_on_lossy_and_zeroed_chains():
    for n in (9, 101):
        s = 1e4 ** (1.0 / (n - 1))
        spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
        h = construct_product(build_h0(spec), build_scaling(spec))
        lossy = pumped_hamiltonian(h, PumpSpec(kappa0=0.02, pumped_sites=(1,)), 0.0)
        assert_matches_reference(eig_full(lossy), s)
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0, zeroed_sites=(4,))
    es = eig_full(construct_product(build_h0(spec), build_scaling(spec)))
    assert_matches_reference(es, 2.0)


def test_batched_profile_matches_reference_on_random_vectors():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3, 8, 9, 40):
        vectors = []
        for _ in range(6):
            vectors.append(rng.normal(size=n) + 1j * rng.normal(size=n))
        odd_only, even_only, floored = (v.copy() for v in vectors[:3])
        odd_only[1::2] = 0.0
        even_only[0::2] *= 1e-10 if n > 1 else 1.0
        floored[rng.random(n) < 0.4] *= 1e-14
        vectors += [odd_only, even_only, floored]
        vectors.append(np.exp(-0.7 * np.arange(n)) * rng.choice((-1.0, 1.0), n))
        for s in (0.5, 1.0, 2.0):
            assert_matches_reference(columns_system(*vectors), s)


# ---------------------------------------------------------------------------
# profile metrics through the batched reports

def test_profile_uniform_vector():
    m = report_of(np.ones(9))
    assert m.ipr == pytest.approx(1 / 9)
    assert m.com == pytest.approx(5.0)
    assert abs(m.decay_rate) < 1e-12
    assert m.support_parity == MIXED


def test_profile_exact_geometric_decay():
    v = 2.0 ** -np.arange(9, dtype=float)
    m = report_of(v)
    assert m.decay_rate == pytest.approx(-np.log(2), abs=1e-10)
    assert m.fit_rms < 1e-12


def test_profile_delta_vector():
    m = report_of(np.eye(9)[3])          # e_4
    assert m.ipr == pytest.approx(1.0)
    assert m.com == pytest.approx(4.0)
    assert m.support_parity == EVEN_SITES


def test_profile_parity_detection():
    v = np.zeros(9)
    v[0::2] = [1, -0.5, 0.25, -0.125, 0.0625]
    assert report_of(v).support_parity == ODD_SITES


def test_profile_rejects_zero_vector():
    with pytest.raises(ValueError):
        mode_reports(columns_system(np.ones(5), np.zeros(5)), 2.0)


def test_profile_scale_invariance():
    rng = np.random.default_rng(8)
    v = rng.normal(size=11) + 1j * rng.normal(size=11)
    m1, m2 = mode_reports(columns_system(v, v * (3.7 - 2.2j)), 2.0)
    for key in ("ipr", "com", "decay_rate", "fit_rms"):
        assert getattr(m1, key) == pytest.approx(getattr(m2, key), rel=1e-12)
    assert m1.classification == m2.classification


def test_profile_bounds_random_vectors():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        m = report_of(v)
        assert 1 / n - 1e-12 <= m.ipr <= 1 + 1e-12
        assert 1 - 1e-12 <= m.com <= n + 1e-12


# ---------------------------------------------------------------------------
# typed input errors

def ratio_message(s):
    """The exact refusal of a nonpositive or non-finite skin ratio s."""
    text = (f"skin ratio s must be positive, got {s}" if np.isfinite(s)
            else f"skin ratio s {s!r} is not finite")
    return f"^{re.escape(text)}$"


@pytest.mark.parametrize("s", [0.0, -1.0, np.nan, np.inf])
def test_mode_reports_rejects_bad_ratio(chain9_systems, s):
    with pytest.raises(ValueError, match=ratio_message(s)):
        mode_reports(chain9_systems[1], s)


@pytest.mark.parametrize("s", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("verdict", [verify_selective_skin, verify_standard_skin])
def test_verdicts_reject_bad_ratio(chain9_systems, verdict, s):
    es_h0, es_h, _ = chain9_systems
    with pytest.raises(ValueError, match=ratio_message(s)):
        verdict(es_h, es_h0, s)


@pytest.mark.parametrize("verdict", [verify_selective_skin, verify_standard_skin,
                                     zero_mode_equality])
def test_skin_entry_points_reject_mismatched_dims(chain9_systems, verdict):
    _, es_h, _ = chain9_systems
    other = systems_for(11, 1.5)[1]
    args = (es_h, other) if verdict is zero_mode_equality else (es_h, other, 1.5)
    with pytest.raises(ValueError, match="9 vs 11"):
        verdict(*args)


# ---------------------------------------------------------------------------
# classification on the calibrated chain

def test_selective_only_zero_mode_is_skin(chain9_systems, calibration):
    _, es_h, _ = chain9_systems
    s = calibration["s"]
    reports = mode_reports(es_h, s)
    zi = find_zero_mode(es_h)
    for r in reports:
        if r.mode_index == zi:
            assert r.classification == SKIN_LEFT
            assert r.support_parity == ODD_SITES
        else:
            assert r.classification == BULK


def test_standard_all_modes_skin(chain9_systems, calibration):
    _, _, es_hpp = chain9_systems
    for r in mode_reports(es_hpp, calibration["s"]):
        assert r.classification == SKIN_LEFT
        assert r.decay_rate == pytest.approx(-np.log(calibration["s"]), rel=1e-6)


@pytest.mark.parametrize("n", [101, 201, 401, 801])
def test_envelope_rise_separates_the_two_constructions_at_every_scale(n):
    """With s^(n-1) = 1e4, the gauge's modes (a sine times the skin envelope)
    rise at most ln 2 above their fitted line, while the product's bulk modes
    rise past envelope_rms: both verdicts pass at every size."""
    s = 1e4 ** (1.0 / (n - 1))
    es_h, es_hpp, es_h0 = systems_for(n, s)
    selective = verify_selective_skin(es_h, es_h0, s)
    standard = verify_standard_skin(es_hpp, es_h0, s)
    assert selective.passed and standard.passed
    bulk = [r for r in selective.classifications if r.mode_index != selective.zero_mode_index]
    assert all(r.classification == BULK for r in bulk)
    assert min(r.envelope_rise for r in bulk) > 1.5 > DEFAULT.envelope_rms
    assert max(r.envelope_rise for r in standard.classifications) < np.log(2)


# ---------------------------------------------------------------------------
# verify operations

def test_verify_selective_skin(chain9_systems, calibration):
    es_h0, es_h, _ = chain9_systems
    rep = verify_selective_skin(es_h, es_h0, calibration["s"])
    assert rep.passed
    assert rep.envelope_residual <= 1e-8
    assert rep.left_zero_residual <= 1e-8
    # extended left zero-eigenvector sits mid-chain
    assert 4.0 < rep.left_zero_com < 6.0


def test_verify_selective_zero_mode_dark_and_alternating(chain9_systems, calibration):
    _, es_h, _ = chain9_systems
    zi = find_zero_mode(es_h)
    v = es_h.right(zi)
    v = v / v[0]
    s = calibration["s"]
    assert np.abs(v[1::2]).max() <= 1e-10          # dark even sites
    expected = np.array([(-1.0) ** k * s ** (-2.0 * k) for k in range(5)])
    assert np.allclose(v[0::2].real, expected, atol=1e-10)


def test_verify_standard_skin(chain9_systems, calibration):
    es_h0, _, es_hpp = chain9_systems
    rep = verify_standard_skin(es_hpp, es_h0, calibration["s"])
    assert rep.passed
    assert max(rep.envelope_residuals) <= 1e-8
    assert rep.left_zero_com > 27 / 4              # right edge, com > 3n/4


def test_hermitian_limit_all_bulk():
    es_h, es_hpp, es_h0 = systems_for(9, 1.0)
    rep = verify_selective_skin(es_h, es_h0, 1.0)
    assert rep.envelope_residual <= 1e-8
    assert all(r.classification == BULK for r in rep.classifications)
    assert zero_mode_equality(es_h, es_hpp) <= 1e-8


def test_small_s_localizes_right():
    es_h, es_hpp, es_h0 = systems_for(9, 0.6)
    rep = verify_standard_skin(es_hpp, es_h0, 0.6)
    assert all(r.classification == SKIN_RIGHT for r in rep.classifications)
    assert max(rep.envelope_residuals) <= 1e-8


def test_zero_mode_equality_cases(calibration):
    for n, s in ((9, calibration["s"]), (9, 1.0), (11, 1.5)):
        es_h, es_hpp, _ = systems_for(n, s)
        assert zero_mode_equality(es_h, es_hpp) <= 1e-8, (n, s)


def test_even_chain_has_no_zero_mode():
    spec = LatticeSpec(n=8, t=1.0, scaling="geometric", s=1.5)
    h = construct_product(build_h0(spec), build_scaling(spec))
    lossy = pumped_hamiltonian(h, PumpSpec(kappa0=0.02, pumped_sites=(1,)), 0.0)
    for matrix in (h, lossy):
        with pytest.raises(NoZeroModeError):
            find_zero_mode(eig_full(matrix))


@pytest.mark.parametrize("label", ["product", "gauge"])
def test_zero_mode_of_lossy_chain_is_frequency_pinned(chain9, chain9_systems, label):
    """Uniform loss moves every eigenvalue by -i*kappa0; the zero mode keeps Re w = 0."""
    _, _, _, h, hpp = chain9
    _, es_h, es_hpp = chain9_systems
    matrix, es_lossless = (h, es_h) if label == "product" else (hpp, es_hpp)
    es = eig_full(pumped_hamiltonian(matrix, PumpSpec(kappa0=0.02, pumped_sites=(1,)), 0.0))
    zi = find_zero_mode(es)
    assert abs(es.eigenvalues[zi].real) <= 1e-8 * es.matrix_norm
    assert es.eigenvalues[zi].imag == pytest.approx(-0.02, rel=1e-10)
    lossless = es_lossless.right(find_zero_mode(es_lossless))
    assert collinearity_residual(es.right(zi), lossless) <= 1e-8


def test_spectral_repulsion(chain9_systems):
    _, es_h, es_hpp = chain9_systems
    nz = lambda es: np.abs(es.eigenvalues)[np.abs(es.eigenvalues) > 1e-8].min()
    assert nz(es_h) > nz(es_hpp)


def test_chiral_pairing_profiles(chain9_systems):
    _, es_h, _ = chain9_systems
    w = es_h.eigenvalues.real
    for mu in range(es_h.dim):
        if abs(w[mu]) < 1e-8:
            continue
        nu = int(np.argmin(np.abs(w + w[mu])))
        p = np.abs(es_h.right(mu)) / np.linalg.norm(es_h.right(mu))
        q = np.abs(es_h.right(nu)) / np.linalg.norm(es_h.right(nu))
        assert np.abs(p - q).max() < 1e-8


def test_mode_report_csv_row(chain9_systems, calibration):
    _, es_h, _ = chain9_systems
    row = _mode_table(mode_reports(es_h, calibration["s"]))[1][0]
    assert row[0] == 0
    assert len(row) == 7
    assert row[-1] in (SKIN_LEFT, SKIN_RIGHT, BULK)
