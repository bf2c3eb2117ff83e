import json

import numpy as np
import pytest

from nhlab.config import DEFAULT
from nhlab.eig import (BIORTHONORMAL, SELF_ORTHOGONAL, apply_metric_pairing,
                       collinearity_residual, eig_full)
from nhlab.model import (LatticeSpec, build_h0, build_scaling, construct_product,
                         spectral_norm)
from nhlab.scenarios import ScenarioConfig, scenario_custom

from conftest import random_hermitian, random_psd


def test_hermitian_input_left_equals_conjugate_right():
    rng = np.random.default_rng(0)
    m = random_hermitian(rng, 6)
    es = eig_full(m)
    assert es.all_biorthonormal
    for mu in range(6):
        assert collinearity_residual(es.left(mu), es.right(mu).conj()) < 1e-10


def test_product_construction_all_biorthonormal(chain9_systems):
    _, es_h, _ = chain9_systems
    assert es_h.all_biorthonormal
    assert SELF_ORTHOGONAL not in es_h.norm_status
    # biorthonormality defect
    gram = es_h.left_vectors.T @ es_h.right_vectors
    assert np.abs(gram - np.eye(es_h.dim)).max() < 1e-8


def test_jordan_block_flags_self_orthogonal():
    es = eig_full(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert SELF_ORTHOGONAL in es.norm_status
    assert np.abs(es.eigenvalues).max() < 1e-12


def test_residual_certificates(chain9_systems):
    for es in chain9_systems:
        assert es.residuals.max() <= 1e-10 * es.matrix_norm


def test_sorting_convention():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    es = eig_full(m)
    key = np.lexsort((es.eigenvalues.imag, es.eigenvalues.real))
    assert np.array_equal(key, np.arange(8))


def test_left_spectrum_consistency():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    w = np.sort_complex(np.linalg.eigvals(m))
    wl = np.sort_complex(np.linalg.eigvals(m.T))
    assert np.abs(w - wl).max() <= 1e-8 * spectral_norm(m)


def test_spectral_reconstruction():
    rng = np.random.default_rng(21)
    h = construct_product(random_hermitian(rng, 12), random_psd(rng, 12))
    es = eig_full(h)
    assert es.all_biorthonormal
    rebuilt = (es.right_vectors * es.eigenvalues[None, :]) @ es.left_vectors.T
    assert spectral_norm(rebuilt - h) <= 1e-6 * spectral_norm(h)


def test_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError, match="finite"):
        eig_full(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="square"):
        eig_full(np.zeros((2, 3), dtype=complex))


def test_matrices_below_lapack_smlnum_are_scaled_and_certify():
    # zgeev returns its smlnum 6.7e-139 as the eigenvalue of [[x]] for any
    # smaller x; the dense path scales such a matrix by a power of two first
    for x in (1e-139, 4.1e-140, 1e-200, 1e-320):
        es = eig_full(np.array([[x]]))
        assert es.eigenvalues[0] == x and es.residuals.max() == 0.0
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    es = eig_full(2.0 ** -700 * m)            # exact scaling: the same spectrum, scaled
    assert np.allclose(es.eigenvalues * 2.0 ** 700, eig_full(m).eigenvalues, rtol=1e-13)
    assert es.residuals.max() <= DEFAULT.residual_rel * es.matrix_norm
    cfg = ScenarioConfig(scenario="custom", lattice=LatticeSpec.from_dict(
        {"n": 1, "onsite": "harmonic", "omega2": 0.001, "scaling": "explicit",
         "values": [4.1e-140]}))
    assert scenario_custom(cfg, DEFAULT).passed


def test_serialization_roundtrip(chain9, chain9_systems):
    _, es, _ = chain9_systems
    cfg = ScenarioConfig(scenario="custom", lattice=chain9[0])
    d = json.loads(json.dumps(scenario_custom(cfg, DEFAULT).report["eigensystem"]))
    assert d["dim"] == es.dim
    assert len(d["eigenvalues"]) == es.dim
    w0 = complex(*d["eigenvalues"][0])
    assert w0 == es.eigenvalues[0]
    assert set(d["norm_status"]) == {BIORTHONORMAL}
    # vectors are written mode by mode
    for key, vectors in (("right_vectors", es.right_vectors), ("left_vectors", es.left_vectors)):
        assert np.array_equal([[complex(*z) for z in v] for v in d[key]], vectors.T)


# ---------------------------------------------------------------------------
# apply_metric_pairing

def test_metric_pairing_diagonal_for_psd(chain9):
    _, _, a, h, _ = chain9
    es = eig_full(h)
    rep = apply_metric_pairing(es, a)
    assert rep.all_diagonal
    assert all(not e.kernel for e in rep.entries)
    assert max(e.collinearity for e in rep.entries) <= 1e-8


def test_metric_pairing_conjugate_partners_for_indefinite():
    h0 = np.array([[0, 1], [1, 0]], dtype=complex)
    a = np.diag([1.0, -1.0]).astype(complex)
    es = eig_full(construct_product(h0, a))
    rep = apply_metric_pairing(es, a)
    # eigenvalues +-i: the metric image of one mode is the other's left vector
    assert not rep.all_diagonal
    for e in rep.entries:
        assert not e.kernel
        assert e.nu != e.mu
        assert e.collinearity <= 1e-8
        wm, wn = es.eigenvalues[e.mu], es.eigenvalues[e.nu]
        assert abs(wm - np.conj(wn)) < 1e-10


def test_metric_pairing_kernel_branch():
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0, zeroed_sites=(4,))
    a = build_scaling(spec)
    h = construct_product(build_h0(spec), a)
    es = eig_full(h)
    kernels = [e for e in apply_metric_pairing(es, a).entries if e.kernel]
    assert len(kernels) >= 1
    for e in kernels:
        v = es.right(e.mu)
        assert np.linalg.norm(a @ v) <= 1e-10 * np.linalg.norm(v)
        assert abs(es.eigenvalues[e.mu]) <= 1e-8 * es.matrix_norm
