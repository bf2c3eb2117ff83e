"""The structured chain path of ``eig_full`` and ``ep_analyze`` against the
dense solve: a property suite over real chains, call counts that pin which
path each input takes, the real chain path against the complex chain pairing
it replaced, its peak memory, the metric pairing against the full overlap
Gram, and the diagonal shortcuts of the metric pairing and the inner-product
audit against their dense products."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nhlab.eig
from nhlab.config import DEFAULT
from nhlab.eig import (BIORTHONORMAL, SELF_ORTHOGONAL, _tridiagonal_product,
                       apply_metric_pairing, chain_form, collinearity_residual, eig_full)
from nhlab.laser import PumpSpec, pumped_hamiltonian
from nhlab.model import (LatticeSpec, build_h0, build_scaling, construct_gauge,
                         construct_product, factor_psd)
from nhlab.perturb import first_order
from nhlab.properties import _geometric_products
from nhlab.spectra import ep_analyze, inner_product_audit

from conftest import random_hermitian, random_psd


def spy(module, name):
    """Count the calls of ``module.name`` while still running it."""
    return mock.patch.object(module, name, wraps=getattr(module, name))


@st.composite
def real_chains(draw):
    """A real chain the paper builds: H0, H0 A or A^-1 H0 A with A > 0."""
    n = draw(st.integers(2, 80))
    t = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.2, 3.0))
    onsite = draw(st.sampled_from(["zero", "harmonic"]))
    kwargs = {"omega2": draw(st.floats(0.0, 2.0))} if onsite == "harmonic" else {}
    scaling = draw(st.sampled_from(["geometric", "random", "explicit"]))
    if scaling == "geometric":
        # the total skin ratio s^(n-1) stays within 1e4 either way
        kwargs["s"] = (10.0 ** draw(st.floats(-4.0, 4.0))) ** (1.0 / (n - 1))
    elif scaling == "random":
        kwargs["seed"] = draw(st.integers(0, 2**32 - 1))
    else:
        kwargs["values"] = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=n,
                                               max_size=n)))
    spec = LatticeSpec(n=n, t=t, onsite=onsite, scaling=scaling, **kwargs)
    h0, a = build_h0(spec), build_scaling(spec)
    form = draw(st.sampled_from(["H0", "H0 A", "A^-1 H0 A"]))
    if form == "H0":
        return h0
    return construct_product(h0, a) if form == "H0 A" else construct_gauge(h0, a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(h=real_chains())
def test_structured_chain_matches_dense_solve(h):
    n = h.shape[0]
    with spy(scipy.linalg, "eig") as dense, spy(scipy.linalg, "eigh_tridiagonal") as tri:
        es = eig_full(h)
    assert dense.call_count == 0 and tri.call_count == 1
    norm = es.matrix_norm
    reference = np.sort_complex(scipy.linalg.eigvals(h))
    assert np.abs(es.eigenvalues - reference).max() <= DEFAULT.spectra_match_rel * norm
    assert es.residuals.max() <= DEFAULT.residual_rel * norm
    gram = es.left_vectors.T @ es.right_vectors
    assert np.abs(gram - np.eye(n)).max() <= DEFAULT.biorth
    assert es.norm_status == (BIORTHONORMAL,) * n
    assert np.abs(es.eigenvalues.imag).max() == 0


def lossy_chain():
    # a pumped site makes the loss non-uniform; uniform loss takes the chain path
    spec = LatticeSpec(n=9, scaling="geometric", s=1.5)
    m = construct_product(build_h0(spec), build_scaling(spec)) - 0.02j * np.eye(9)
    m[0, 0] += 0.05j
    return m


def indefinite_chain():
    spec = LatticeSpec(n=9, scaling="explicit", values=(1, 2, -1, 0.5, 1, -2, 1, 1, 3))
    return construct_product(build_h0(spec), build_scaling(spec, allow_indefinite=True))


def zeroed_site_chain():
    spec = LatticeSpec(n=9, scaling="geometric", s=1.5, zeroed_sites=(4,))
    return construct_product(build_h0(spec), build_scaling(spec))


def dense_product():
    rng = np.random.default_rng(4)
    return construct_product(random_hermitian(rng, 9), random_psd(rng, 9))


@pytest.mark.parametrize("make", [zeroed_site_chain, lossy_chain, indefinite_chain,
                                  dense_product, lambda: np.array([[2.5]])],
                         ids=["zeroed_site", "lossy", "indefinite", "dense", "n1"])
def test_other_inputs_take_one_dense_solve(make):
    h = make()
    with spy(scipy.linalg, "eig") as dense, spy(scipy.linalg, "eigh_tridiagonal") as tri:
        es = eig_full(h)
    assert dense.call_count == 1 and tri.call_count == 0
    assert es.residuals.max() <= DEFAULT.residual_rel * es.matrix_norm


def bench_chains():
    """The threshold benchmark's chains: H0 A and A^-1 H0 A, s^(n-1) = 1e4, n = 41, 101."""
    for n in (41, 101):
        spec = LatticeSpec(n=n, scaling="geometric", s=1e4 ** (1 / (n - 1)))
        h0, a = build_h0(spec), build_scaling(spec)
        yield f"H0 A n={n}", construct_product(h0, a)
        yield f"A^-1 H0 A n={n}", construct_gauge(h0, a)


def test_uniform_loss_takes_the_chain_path(chain9):
    # H - i kappa0 I of a real chain: one eigh_tridiagonal, no dense solve, the
    # dense spectrum, and a first-order pump shift that matches its finite difference
    _, _, _, h, hpp = chain9
    for label, m in [("H0 A n=9", h), ("A^-1 H0 A n=9", hpp), *bench_chains()]:
        pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
        lossy = pumped_hamiltonian(m, pump, 0.0)
        with spy(scipy.linalg, "eig") as dense, spy(scipy.linalg, "eigh_tridiagonal") as tri:
            es = eig_full(lossy)
        assert dense.call_count == 0 and tri.call_count == 1, label
        assert np.all(es.eigenvalues.imag == -pump.kappa0)
        reference, norm = np.sort_complex(np.linalg.eigvals(lossy)), es.matrix_norm
        assert np.abs(es.eigenvalues - reference).max() <= DEFAULT.spectra_match_rel * norm
        assert es.residuals.max() <= DEFAULT.residual_rel * norm
        zi = int(np.argmin(np.abs(es.eigenvalues.real)))
        pred = first_order(es, pump.pumped_sites, pump.kappa0, zi)
        step = 1e-3 * pump.kappa0

        def zero_mode(gamma):
            w = np.linalg.eigvals(pumped_hamiltonian(m, pump, gamma))
            return w[np.argmin(np.abs(w - es.eigenvalues[zi]))]

        slope = (zero_mode(step) - zero_mode(-step)) / (2 * step)
        assert abs(pred.energy_correction / pump.kappa0 - slope) <= 1e-6, label


def test_failed_chain_certificate_returns_dense_result(monkeypatch):
    spec = LatticeSpec(n=21, scaling="geometric", s=1.3)
    h = construct_product(build_h0(spec), build_scaling(spec))
    with monkeypatch.context() as m:
        m.setattr(nhlab.eig, "chain_form", lambda _: None)
        expected = eig_full(h)
    solve = scipy.linalg.eigh_tridiagonal

    def perturbed(d, e, **kwargs):
        w, phi = solve(d, e, **kwargs)
        return w, phi + 1e-3 * np.roll(phi, 1, axis=0)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
    with spy(scipy.linalg, "eig") as dense:
        es = eig_full(h)
    assert dense.call_count == 1
    for field in ("eigenvalues", "right_vectors", "left_vectors", "overlaps", "residuals"):
        np.testing.assert_array_equal(getattr(es, field), getattr(expected, field))
    assert es.norm_status == expected.norm_status


@pytest.mark.filterwarnings("error")
def test_overflowing_couplings_certify_on_the_chain_path():
    # entries reach ~1e204: a product m[i, i+1] * m[i+1, i] would overflow, and so
    # would the residuals of M itself; the chain path solves and certifies 2^k M
    spec = LatticeSpec(n=801, scaling="geometric", s=1.7977)
    h = construct_product(build_h0(spec), build_scaling(spec))
    form = nhlab.eig.chain_form(h)
    assert np.all(np.isfinite(form.off)) and np.all(np.isfinite(form.d))
    with spy(scipy.linalg, "eig") as dense:
        es = eig_full(h)
    assert dense.call_count == 0
    assert es.matrix_norm > 1e203 and es.all_biorthonormal
    assert 0 < es.residuals.max() <= DEFAULT.residual_rel * es.matrix_norm
    assert np.isfinite(es.eigenvalues).all() and not es.eigenvalues.imag.any()
    # an independent check on M / ||M||, each mode scaled to unit largest entry
    r = es.right_vectors / np.abs(es.right_vectors).max(axis=0)
    m, w = h / es.matrix_norm, es.eigenvalues / es.matrix_norm
    resid = np.linalg.norm(m @ r - r * w, axis=0) / np.linalg.norm(r, axis=0)
    assert resid.max() <= DEFAULT.residual_rel


@pytest.mark.parametrize("n", [101, 201, 401])
def test_ep_analyze_counts_chain_cluster_without_dense_eigvals(n):
    spec = LatticeSpec(n=n, scaling="geometric", s=1e4 ** (1.0 / (n - 1)))
    h = construct_product(build_h0(spec), build_scaling(spec))
    with spy(np.linalg, "eigvals") as dense:
        rep = ep_analyze(h, 0.0)
    assert dense.call_count == 0
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity) == (1, 1)
    assert rep.ep_orders == [1]
    assert not rep.boundary_warning
    assert rep.chain_residuals <= DEFAULT.zero_mode_rel


# ---------------------------------------------------------------------------
# diagonal A and B: elementwise products against the dense per-mode products

@pytest.mark.parametrize("coupling", [0.0, 0.5], ids=["diagonal", "non_diagonal"])
def test_metric_pairing_and_audit_match_dense_products(coupling):
    spec = LatticeSpec(n=15, scaling="random", seed=9, zeroed_sites=(3,))
    h0, a = build_h0(spec), build_scaling(spec)
    a[5, 6] = a[6, 5] = coupling * np.sqrt(a[5, 5] * a[6, 6])
    b = factor_psd(a)
    es = eig_full(construct_product(h0, a))
    pairing = apply_metric_pairing(es, a)
    audit = inner_product_audit(es, b)
    for mu, entry in enumerate(pairing.entries):
        image = a @ es.right(mu)
        assert entry.kernel == bool(np.linalg.norm(image) <= DEFAULT.kernel_rel
                                    * np.linalg.norm(es.right(mu)))
        if entry.kernel:
            continue
        resids = [collinearity_residual(image.conj(), es.left(nu)) for nu in range(es.dim)]
        assert entry.nu == int(np.argmin(resids))
        assert entry.collinearity == pytest.approx(min(resids), rel=1e-12, abs=1e-15)
    for mu, entry in enumerate(audit):
        psi = es.right(mu) / np.linalg.norm(es.right(mu))
        assert entry.value == pytest.approx(np.vdot(a @ psi, psi).real, rel=1e-14)
        assert entry.b_norm_sq == pytest.approx(np.linalg.norm(b @ psi) ** 2, rel=1e-14)
    # the zeroed site puts a kernel mode on both branches
    assert sum(e.kernel for e in pairing.entries) == 1
    assert sum(e.ep_candidate for e in audit) == 1


# ---------------------------------------------------------------------------
# the real chain path against the complex chain pairing it replaced

EPS = np.finfo(float).eps
PAPER_S = 1.797692959776262     # calibrate_s's ratio at the paper's n = 9


def reference_chain_system(h, tol=DEFAULT):
    """The complex chain pairing of the former ``eig_full``, kept literally as
    the oracle: (eigenvalues, right, left, norm_status, overlaps, residuals)."""
    form = chain_form(h)
    w, phi = scipy.linalg.eigh_tridiagonal(form.diag, form.off, check_finite=False)
    phi, d = phi.astype(complex), form.d[:, None]
    rhat, lhat = phi / d, phi * d
    rhat, lhat = rhat / np.linalg.norm(rhat, axis=0), lhat / np.linalg.norm(lhat, axis=0)
    overlaps = np.sum(lhat * rhat, axis=0)
    self_orth = np.abs(overlaps) < tol.self_orth
    scale = np.where(self_orth, 1.0, np.sqrt(overlaps))[None, :]
    right, left = rhat / scale, lhat / scale
    top = np.take_along_axis(right, np.argmax(np.abs(right), axis=0)[None, :], axis=0)
    phase = top / np.abs(top)
    right, left = right / phase, left * phase
    bands = [np.diagonal(h, k) for k in (-1, 0, 1)]
    residuals = [np.linalg.norm(_tridiagonal_product(*b, v) - v * w, axis=0)
                 / np.linalg.norm(v, axis=0) for b, v in ((bands, right), (bands[::-1], left))]
    status = tuple(SELF_ORTHOGONAL if so else BIORTHONORMAL for so in self_orth)
    return w.astype(complex), right, left, status, overlaps, np.maximum(*residuals)


def assert_matches_reference(es, h):
    """Eigenvalues and statuses equal; each vector within 32 eps of its column's
    largest entry, each overlap within 32 eps relative, each residual within
    16 eps ||M|| (observed: 7, 12 and 1 eps at n = 401)."""
    w, right, left, status, overlaps, residuals = reference_chain_system(h)
    np.testing.assert_array_equal(es.eigenvalues, w)
    assert es.norm_status == status
    for got, want in ((es.right_vectors, right), (es.left_vectors, left)):
        assert (np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)).max() <= 32 * EPS
    assert (np.abs(es.overlaps - overlaps) / np.abs(overlaps)).max() <= 32 * EPS
    assert np.abs(es.residuals - residuals).max() <= 16 * EPS * es.matrix_norm


@pytest.mark.parametrize("form", ["H0", "H0 A", "A^-1 H0 A"])
@pytest.mark.parametrize("ratio", ["skin_1e4", "paper"])
@pytest.mark.parametrize("n", [2, 3, 9, 100, 401])
def test_real_chain_path_matches_complex_pairing(n, ratio, form):
    s = 1e4 ** (1.0 / (n - 1)) if ratio == "skin_1e4" else PAPER_S
    spec = LatticeSpec(n=n, scaling="geometric", s=s)
    h0, a = build_h0(spec), build_scaling(spec)
    h = {"H0": h0, "H0 A": construct_product(h0, a), "A^-1 H0 A": construct_gauge(h0, a)}[form]
    with spy(scipy.linalg, "eig") as dense:
        es = eig_full(h)
    assert dense.call_count == 0
    assert_matches_reference(es, h)


def test_real_chain_path_matches_complex_pairing_on_a_chiral_stack():
    # the chiral_pairing suite's stacks: odd unit-coupling chains H0 A
    for n in (5, 9, 15):
        stack = _geometric_products([1.1, 1.5, 2.2], n, DEFAULT)
        for es, h in zip(eig_full(stack), stack):
            assert_matches_reference(es, h)


def test_chain_path_peak_memory_is_four_complex_matrices():
    n = 401
    spec = LatticeSpec(n=n, scaling="geometric", s=1e4 ** (1.0 / (n - 1)))
    h = construct_product(build_h0(spec), build_scaling(spec))
    eig_full(h)
    tracemalloc.start()
    try:
        eig_full(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * h.nbytes     # h is one complex n x n array


# ---------------------------------------------------------------------------
# the metric pairing against the full overlap Gram it replaced

def gram_pairing(es, a, tol=DEFAULT):
    """The former pairing, kept literally as the oracle: (nu, collinearity,
    kernel) from the argmax over the full Gram psi~^T A R."""
    images = a @ es.right_vectors
    kernel = (np.linalg.norm(images, axis=0)
              <= tol.kernel_rel * np.linalg.norm(es.right_vectors, axis=0))
    gram = np.abs(es.left_vectors.T @ images)
    best = np.argmax(gram / np.linalg.norm(es.left_vectors, axis=0)[:, None], axis=0)
    coll = np.where(kernel, 0.0, collinearity_residual(images.conj(), es.left_vectors[:, best]))
    return best, coll, kernel


def skin_chain_pair():
    spec = LatticeSpec(n=101, scaling="geometric", s=1e4 ** (1.0 / 100))
    return build_h0(spec), build_scaling(spec)


def dense_singular_pair():
    rng = np.random.default_rng(11)
    return random_hermitian(rng, 12), random_psd(rng, 12, 3)


def indefinite_pair():
    spec = LatticeSpec(n=9, scaling="explicit", values=(1, 2, -1, 0.5, 1, -2, 1, 1, 3))
    return build_h0(spec), build_scaling(spec, allow_indefinite=True)


def zeroed_pair():
    spec = LatticeSpec(n=15, scaling="random", seed=9, zeroed_sites=(3,))
    return build_h0(spec), build_scaling(spec)


@pytest.mark.parametrize("make, misses, kernels", [
    (skin_chain_pair, False, 0), (dense_singular_pair, False, 3), (indefinite_pair, True, 0),
    (zeroed_pair, False, 1)], ids=["chain", "dense_psd_zero_cluster", "indefinite", "zeroed"])
def test_metric_pairing_matches_full_gram(make, misses, kernels):
    h0, a = make()
    es = eig_full(construct_product(h0, a))
    entries = apply_metric_pairing(es, a).entries
    best, coll, kernel = gram_pairing(es, a)
    assert [e.kernel for e in entries] == kernel.tolist()
    assert [e.nu for e in entries] == [None if k else int(b) for b, k in zip(best, kernel)]
    assert [e.diagonal for e in entries] == (~kernel & (best == np.arange(es.dim))).tolist()
    np.testing.assert_allclose([e.collinearity for e in entries], coll, rtol=1e-10, atol=1e-14)
    assert sum(kernel) == kernels
    # a conjugate pair misses nu = mu, and its pairing comes from the Gram columns
    assert any(not e.diagonal for e in entries if not e.kernel) == misses
