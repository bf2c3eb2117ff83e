import numpy as np
import pytest

from nhlab.eig import collinearity_residual, eig_full
from nhlab.laser import PumpSpec, pumped_hamiltonian
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product
from nhlab.skin import (BULK, EVEN_SITES, MIXED, ODD_SITES, SKIN_LEFT, SKIN_RIGHT,
                        NoZeroModeError, classify, find_zero_mode, mode_report,
                        mode_reports, profile, verify_selective_skin,
                        verify_standard_skin, zero_mode_equality)


def systems_for(n, s):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
    h0 = build_h0(spec)
    a = build_scaling(spec)
    return (eig_full(construct_product(h0, a)),
            eig_full(construct_gauge(h0, a)),
            eig_full(h0))


# ---------------------------------------------------------------------------
# profile

def test_profile_uniform_vector():
    m = profile(np.ones(9))
    assert m["ipr"] == pytest.approx(1 / 9)
    assert m["com"] == pytest.approx(5.0)
    assert abs(m["decay_rate"]) < 1e-12
    assert m["support_parity"] == MIXED


def test_profile_exact_geometric_decay():
    v = 2.0 ** -np.arange(9, dtype=float)
    m = profile(v)
    assert m["decay_rate"] == pytest.approx(-np.log(2), abs=1e-10)
    assert m["fit_rms"] < 1e-12


def test_profile_delta_vector():
    m = profile(np.eye(9)[3])          # e_4
    assert m["ipr"] == pytest.approx(1.0)
    assert m["com"] == pytest.approx(4.0)
    assert m["support_parity"] == EVEN_SITES


def test_profile_parity_detection():
    v = np.zeros(9)
    v[0::2] = [1, -0.5, 0.25, -0.125, 0.0625]
    assert profile(v)["support_parity"] == ODD_SITES


def test_profile_rejects_zero_vector():
    with pytest.raises(ValueError):
        profile(np.zeros(5))


def test_profile_scale_invariance():
    rng = np.random.default_rng(8)
    v = rng.normal(size=11) + 1j * rng.normal(size=11)
    m1 = profile(v)
    m2 = profile(v * (3.7 - 2.2j))
    for key in ("ipr", "com", "decay_rate", "fit_rms"):
        assert m1[key] == pytest.approx(m2[key], rel=1e-12)
    assert classify(m1, 11, 2.0) == classify(m2, 11, 2.0)


def test_profile_bounds_random_vectors():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        m = profile(v)
        assert 1 / n - 1e-12 <= m["ipr"] <= 1 + 1e-12
        assert 1 - 1e-12 <= m["com"] <= n + 1e-12


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
    r = mode_report(0, es_h.eigenvalues[0], es_h.right(0), calibration["s"])
    row = r.csv_row()
    assert row[0] == 0
    assert len(row) == 7
    assert row[-1] in (SKIN_LEFT, SKIN_RIGHT, BULK)
