"""Column-wise verdicts against the per-mode loops they replace.

Each oracle below is the former implementation written out literally: a
Python loop over modes (or junctions, or powers of N) calling the scalar
kernels.  The batched code must make the same choices (nu, kernel, diagonal
and mapped flags, verdicts, Jordan orders) and agree on every residual to
round-off.
"""

import numpy as np
import pytest
import scipy.linalg

from nhlab.config import DEFAULT
from nhlab.eig import apply_metric_pairing, collinearity_residual, eig_full
from nhlab.laser import PumpSpec, find_threshold, pump_indicator, power_flows, pumped_hamiltonian
from nhlab.model import (LatticeSpec, _is_diagonal, build_h0, build_scaling, construct_gauge,
                         construct_product, factor_psd, hermitian_equivalent, spectral_norm)
from nhlab.skin import BULK, SKIN_LEFT, SKIN_RIGHT, find_zero_mode, mode_reports, \
    verify_standard_skin
from nhlab.spectra import bmap_correspondence, ep_analyze

from conftest import random_hermitian, random_psd

N = 9           # odd chain: H0 has a zero mode
S = 1.8
ROUND_OFF = 1e-15


def scalar_collinearity(x, y):
    """The former one-pair kernel."""
    nx = np.linalg.norm(x)
    ny2 = np.vdot(y, y).real
    if nx == 0:
        return 0.0
    if ny2 == 0:
        return 1.0
    c = np.vdot(y, x) / ny2
    return float(np.linalg.norm(x - c * y) / nx)


def scaling(kind, seed=7):
    """(H0, A): the odd chain with a diagonal, singular, dense or indefinite A."""
    rng = np.random.default_rng(seed)
    spec = LatticeSpec(n=N, scaling="geometric", s=S,
                       zeroed_sites=(4,) if kind == "zeroed" else ())
    h0 = build_h0(spec).astype(complex)
    if kind in ("chain", "zeroed"):
        return h0, build_scaling(spec)
    if kind == "indefinite":
        return h0, random_hermitian(rng, N)
    return h0, random_psd(rng, N, 3 if kind == "dense_singular" else 0)


KINDS = ["chain", "zeroed", "dense_psd", "dense_singular", "indefinite"]


# ---------------------------------------------------------------------------
# the kernel

def test_column_kernel_matches_scalar_kernel_per_column():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    y = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
    y[:, 1] = 2.5j * x[:, 1]                  # collinear
    x[:, 2] = 0.0                             # zero x
    y[:, 3] = 0.0                             # zero y
    x[:, 4] = y[:, 4] = 0.0                   # both zero
    y[:, 5] = y[:, 5].real                    # real y against complex x
    got = collinearity_residual(x, y)
    want = [scalar_collinearity(x[:, j], y[:, j]) for j in range(8)]
    assert got.shape == (8,)
    assert np.abs(got - want).max() <= ROUND_OFF
    assert (got[2], got[3], got[4]) == (0.0, 1.0, 0.0)
    assert got[1] <= ROUND_OFF


def test_vector_call_returns_float_with_edge_cases():
    x = np.array([1.0, 2j, -3.0])
    assert isinstance(collinearity_residual(x, x), float)
    assert collinearity_residual(x, np.zeros(3)) == 1.0
    assert collinearity_residual(np.zeros(3), x) == 0.0
    assert collinearity_residual(np.zeros(3), np.zeros(3)) == 0.0
    e1 = np.array([1.0, 0.0, 0.0])
    assert collinearity_residual(x, e1) == pytest.approx(scalar_collinearity(x, e1),
                                                         abs=ROUND_OFF)


# ---------------------------------------------------------------------------
# verify_standard_skin

def looped_standard_skin(hpp_system, h0_system, s, tol=DEFAULT):
    zi, zi0 = find_zero_mode(hpp_system, tol), find_zero_mode(h0_system, tol)
    reports = mode_reports(hpp_system, s, tol)
    want = SKIN_LEFT if s > 1 else BULK if s == 1 else SKIN_RIGHT
    residuals = []
    n = hpp_system.dim
    for mu in range(n):
        lam = hpp_system.eigenvalues[mu]
        nu = int(np.argmin(np.abs(h0_system.eigenvalues - lam)))
        target = h0_system.right(nu) * s ** (-np.arange(n, dtype=float))
        residuals.append(float(scalar_collinearity(hpp_system.right(mu), target)))
    left_pred = h0_system.right(zi0) * s ** (+np.arange(n, dtype=float))
    left_res = scalar_collinearity(hpp_system.left(zi), left_pred)
    all_skin = all(r.classification == want for r in reports)
    passed = (max(residuals) <= tol.zero_mode_rel and all_skin
              and left_res <= tol.zero_mode_rel)
    return residuals, left_res, passed


@pytest.mark.parametrize("kind", KINDS)
def test_standard_skin_matches_looped_oracle(kind):
    h0, a = scaling(kind)
    singular = kind in ("zeroed", "dense_singular")
    hpp = construct_product(h0, a) if singular else construct_gauge(h0, a)
    hpp_system, h0_system = eig_full(hpp), eig_full(h0)
    rep = verify_standard_skin(hpp_system, h0_system, S)
    residuals, left_res, passed = looped_standard_skin(hpp_system, h0_system, S)
    assert isinstance(rep.envelope_residuals, list) and len(rep.envelope_residuals) == N
    assert np.abs(np.subtract(rep.envelope_residuals, residuals)).max() <= ROUND_OFF
    assert abs(rep.left_zero_residual - left_res) <= ROUND_OFF
    assert rep.passed == passed
    assert rep.passed == (kind == "chain")


# ---------------------------------------------------------------------------
# apply_metric_pairing

def looped_metric_pairing(es, a, tol=DEFAULT):
    a = np.asarray(a, dtype=complex)
    images = (np.diagonal(a)[:, None] * es.right_vectors if _is_diagonal(a)
              else a @ es.right_vectors)
    kernel = (np.linalg.norm(images, axis=0)
              <= tol.kernel_rel * np.linalg.norm(es.right_vectors, axis=0))
    gram = np.abs(es.left_vectors.T @ images)
    best = np.argmax(gram / np.linalg.norm(es.left_vectors, axis=0)[:, None], axis=0)
    entries = []
    for mu in range(es.dim):
        if kernel[mu]:
            entries.append((mu, None, 0.0, False, True))
            continue
        nu = int(best[mu])
        entries.append((mu, nu, scalar_collinearity(images[:, mu].conj(), es.left(nu)),
                        nu == mu, False))
    return entries


@pytest.mark.parametrize("kind", KINDS)
def test_metric_pairing_matches_looped_oracle(kind):
    h0, a = scaling(kind)
    es = eig_full(construct_product(h0, a))
    rep = apply_metric_pairing(es, a)
    oracle = looped_metric_pairing(es, a)
    assert len(rep.entries) == len(oracle) == N
    for e, (mu, nu, coll, diagonal, kernel) in zip(rep.entries, oracle):
        assert (e.mu, e.nu, e.diagonal, e.kernel) == (mu, nu, diagonal, kernel)
        assert type(e.nu) in (int, type(None)) and type(e.diagonal) is bool
        assert abs(e.collinearity - coll) <= ROUND_OFF
    assert rep.all_diagonal == all(d for _, _, _, d, k in oracle if not k)
    assert any(k for *_, k in oracle) == (kind in ("zeroed", "dense_singular"))


# ---------------------------------------------------------------------------
# bmap_correspondence

def looped_bmap(h0, b, tol=DEFAULT):
    """(invertible, [(mapped, residual)]) of the forward B-map check, one mode at a time."""
    b = np.asarray(b, dtype=complex)
    sv = np.abs(np.diagonal(b)) if _is_diagonal(b) else np.linalg.svd(b, compute_uv=False)
    invertible = bool(sv.min() > tol.invertible_rel * max(sv.max(), 1e-300))
    es = eig_full(construct_product(h0, b.conj().T @ b, tol), tol)
    he = hermitian_equivalent(h0, b, tol)
    entries = []
    for mu in range(es.dim):
        psi = es.right(mu) / np.linalg.norm(es.right(mu))
        image = b @ psi
        mapped = np.linalg.norm(image) > tol.kernel_rel
        res = 0.0
        if mapped:
            image = image / np.linalg.norm(image)
            res = (np.linalg.norm(he @ image - es.eigenvalues[mu] * image)
                   / max(es.matrix_norm, 1e-300))
        entries.append((bool(mapped), float(res)))
    return invertible, entries


def b_factor(kind, seed=7):
    if kind == "general_b":
        # an invertible B that is not the Hermitian square root of its A
        rng = np.random.default_rng(seed)
        h0, _ = scaling("chain")
        return h0, rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    h0, a = scaling(kind)
    return h0, factor_psd(a)


@pytest.mark.parametrize("kind", ["chain", "zeroed", "dense_psd", "dense_singular",
                                  "general_b"])
def test_bmap_matches_looped_oracle(kind):
    h0, b = b_factor(kind)
    rep = bmap_correspondence(h0, b)
    invertible, oracle = looped_bmap(h0, b)
    assert rep.invertible == invertible == (kind not in ("zeroed", "dense_singular"))
    assert [e.mu for e in rep.entries] == list(range(N))
    assert [e.mapped for e in rep.entries] == [m for m, _ in oracle]
    # only the kernel of a singular B escapes the map
    assert all(e.mapped for e in rep.entries) == invertible
    # the batched map forms its residuals with the same products, one column
    # at a time in the oracle, so they agree to round-off of the norm scale
    assert max(abs(e.residual - r) for e, (_, r) in zip(rep.entries, oracle)) <= ROUND_OFF
    assert max(e.residual for e in rep.entries) <= 1e-8


# ---------------------------------------------------------------------------
# power_flows

def looped_power_flows(mode, h_a, pump, gamma):
    v = np.asarray(mode, dtype=complex)
    v = v / v[0]
    n = len(v)
    site_terms = 2.0 * (gamma * pump_indicator(pump.pumped_sites, n) - pump.kappa0) * np.abs(v) ** 2
    fwd, bwd, gains = np.zeros(n - 1), np.zeros(n - 1), np.zeros(n - 1)
    for j in range(n - 1):
        t_fwd = h_a[j, j + 1]
        t_bwd = h_a[j + 1, j]
        fwd[j] = 2.0 * np.real(1j * np.conj(t_fwd) * np.conj(v[j + 1]) * v[j])
        bwd[j] = 2.0 * np.real(1j * np.conj(t_bwd) * np.conj(v[j]) * v[j + 1])
        gains[j] = fwd[j] + bwd[j]
    return site_terms, fwd, bwd, gains


@pytest.mark.parametrize("gauge", [False, True], ids=["product", "gauge"])
def test_power_flows_match_looped_oracle(gauge):
    h0, a = scaling("chain")
    matrix = construct_gauge(h0, a) if gauge else construct_product(h0, a)
    pump = PumpSpec(kappa0=0.1, pumped_sites=(1, 4))
    res = find_threshold(matrix, pump)
    h_a = pumped_hamiltonian(matrix, pump, res.threshold)
    rep = power_flows(res.threshold_mode, h_a, pump, res.threshold)
    site_terms, fwd, bwd, gains = looped_power_flows(res.threshold_mode, h_a, pump,
                                                     res.threshold)
    # the same products, but vectorized complex products may round differently
    atol = 16 * np.finfo(float).eps * rep.max_term
    for got, want in ((rep.site_terms, site_terms), (rep.flows_forward, fwd),
                      (rep.flows_backward, bwd), (rep.junction_gains, gains)):
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    assert np.abs(gains).max() > 1e6 * atol


def test_power_flows_of_one_cavity_have_no_junction():
    pump = PumpSpec(kappa0=0.3, pumped_sites=(1,))
    rep = power_flows(np.array([2.0 + 0j]), np.array([[0.2j]]), pump, 0.5)
    assert rep.junction_gains.shape == rep.flows_forward.shape == (0,)
    assert rep.site_terms.tolist() == [2.0 * (0.5 - 0.3)]


# ---------------------------------------------------------------------------
# ep_analyze: the rank sequence read from the kernels of the powers of N

def looped_ep_orders(h, target=0.0, tol=DEFAULT):
    """Jordan orders from the former rank loop (singular values only)."""
    norm = max(spectral_norm(h), 1e-300)
    ctol, ntol = tol.cluster_rel * norm, tol.nullity_rel * norm
    t, _, k = scipy.linalg.schur(h, output="complex", sort=lambda x: abs(x - target) <= ctol)
    nk = t[:k, :k] - target * np.eye(k)
    ranks = [k]
    power = np.eye(k, dtype=complex)
    for _ in range(k):
        power = power @ nk
        ranks.append(int(np.sum(np.linalg.svd(power, compute_uv=False) > ntol)))
    geq = [ranks[p - 1] - ranks[p] for p in range(1, k + 1)]
    orders = []
    for p in range(k, 0, -1):
        orders.extend([p] * (geq[p - 1] - (geq[p] if p < k else 0)))
    return orders


def jordan_matrix(blocks, seed=11):
    """Upper-triangular: nilpotent Jordan blocks at 0, then distinct nonzero
    eigenvalues, coupled to the blocks by random entries above the diagonal."""
    rng = np.random.default_rng(seed)
    k = sum(blocks)
    m = np.triu(rng.normal(size=(k + 3, k + 3)) + 1j * rng.normal(size=(k + 3, k + 3)))
    m[:k, :k] = 0.0
    start = 0
    for size in blocks:
        for i in range(start, start + size - 1):
            m[i, i + 1] = 1.0
        start += size
    m[np.arange(k, k + 3), np.arange(k, k + 3)] = [1.5, -2.0, 2.5j]
    return m


@pytest.mark.parametrize("blocks", [[1], [2, 1], [3], [2, 2], [3, 1, 1]])
def test_ep_orders_match_looped_rank_sequence(blocks):
    h = jordan_matrix(blocks)
    rep = ep_analyze(h, 0.0)
    assert rep.ep_orders == looped_ep_orders(h) == sorted(blocks, reverse=True)
    assert rep.geometric_multiplicity == len(blocks)
    assert rep.chain_residuals <= DEFAULT.nullity_rel * rep.matrix_norm


def test_ep_orders_match_looped_rank_sequence_on_zeroed_chain():
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0, zeroed_sites=(4,))
    h = construct_product(build_h0(spec), build_scaling(spec))
    assert ep_analyze(h, 0.0).ep_orders == looped_ep_orders(h) == [2, 1]
