"""The pumped-chain solve against the dense oracle: the pumped matrices and
their dense spectra, tracking, the secular step's closed-form residual, the
overlap-matching fast path, the regula falsi threshold root, and call
counts that keep each input kind on its one exact solve."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab import laser
from nhlab.config import DEFAULT
from nhlab.eig import chain_form
from nhlab.laser import (NoThresholdError, PumpSpec, TrackingAmbiguityError, _column_norm,
                         _match_modes, _PumpedChain, _secular, find_threshold,
                         pumped_hamiltonian, track_mode)
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product

from conftest import random_hermitian


@st.composite
def pumped_chains(draw):
    """(matrix, pump): a scaled chain in either gauge, 1-3 pumped sites."""
    n = draw(st.integers(2, 60))
    if draw(st.booleans()):
        ratio = draw(st.sampled_from([10.0, 1e2, 1e4]))
        spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=ratio ** (1.0 / (n - 1)))
    else:
        spec = LatticeSpec(n=n, t=1.0, scaling="random", seed=draw(st.integers(0, 2**32 - 1)))
    h0, a = build_h0(spec), build_scaling(spec)
    m = construct_product(h0, a) if draw(st.booleans()) else construct_gauge(h0, a)
    sites = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    kappa0 = draw(st.sampled_from([0.02, 0.3, 1.0]))
    return m, PumpSpec(kappa0=kappa0, pumped_sites=tuple(sites))


def dense_track(h, pump, grid, margin=DEFAULT.track_margin):
    """Reference tracker: np.linalg.eig per grid point and the greedy
    overlap loop."""
    w, v = np.linalg.eig(pumped_hamiltonian(h, pump, grid[0]))
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order] / np.linalg.norm(v[:, order], axis=0)
    traj = [w]
    for g in grid[1:]:
        wn, vn = np.linalg.eig(pumped_hamiltonian(h, pump, g))
        vn = vn / np.linalg.norm(vn, axis=0)
        perm = greedy_match(np.abs(v.conj().T @ vn), margin)
        w, v = wn[perm], vn[:, perm]
        traj.append(w)
    return np.array(traj)


def symmetric_form(m):
    """The chain's T = D M D^-1 as a dense matrix."""
    form = chain_form(m)
    return np.diag(form.diag) + np.diag(form.off, 1) + np.diag(form.off, -1)


def greedy_match(overlaps, margin):
    n = overlaps.shape[0]
    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)
    for prev in range(n):
        row = overlaps[prev].copy()
        row[used] = -1.0
        best = int(np.argmax(row))
        rest = row.copy()
        rest[best] = -1.0
        second = rest.max()
        if second > 0 and (row[best] - second) < margin * row[best]:
            raise TrackingAmbiguityError("tie")
        perm[prev] = best
        used[best] = True
    return perm


class Counter:
    def __init__(self, monkeypatch):
        self.calls = {"eig": 0, "eigvals": 0}
        for name in self.calls:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    @property
    def solves(self):
        return sum(self.calls.values())


# ---------------------------------------------------------------------------
# the pumped matrices and tracking against np.linalg

@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=pumped_chains(), gamma_factor=st.sampled_from([0.0, 0.7, 1.5, 4.0]))
def test_pumped_matrix_and_max_imag_match_dense(case, gamma_factor):
    m, pump = case
    g = gamma_factor * pump.kappa0
    chain = _PumpedChain(m, pump, DEFAULT)
    dense = pumped_hamiltonian(m, pump, g)
    assert chain.top(g).imag == np.linalg.eigvals(dense).imag.max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=pumped_chains(), points=st.integers(3, 17),
       top=st.sampled_from([0.5, 2.0, 6.0]))
def test_track_mode_matches_dense_tracker(case, points, top):
    m, pump = case
    grid = np.linspace(0.0, top * pump.kappa0, points)
    try:
        ref = dense_track(symmetric_form(m), pump, grid)   # modes are tracked on T
    except TrackingAmbiguityError:
        ref = None
    if ref is None:
        with pytest.raises(TrackingAmbiguityError):
            track_mode(m, pump, grid)
        return
    got = track_mode(m, pump, grid).eigenvalues
    assert np.abs(got - ref).max() <= DEFAULT.spectra_match_rel * np.linalg.norm(m, 2)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=pumped_chains(), gamma_factor=st.sampled_from([0.5, 2.0, 10.0]),
       offset=st.sampled_from([0.0, 1e-6, 1e-2]))
def test_secular_residual_is_the_formed_residual(case, gamma_factor, offset):
    # |F| / |y| against ||T(gamma) phi - w phi|| / ||phi|| with phi = U y formed,
    # at the first-order point of each mode, moved off its root by offset * c;
    # they differ by the eigenbasis' own residual and the round-off of forming phi
    m, pump = case
    chain = _PumpedChain(m, pump, DEFAULT)
    lam, u = chain.basis[:2]
    mu, slope = chain.seed(*chain.solve(0.0))
    g = gamma_factor * pump.kappa0
    c = _column_norm(chain.form.off, chain.diagonal(g))
    delta = g * slope + offset * c * np.exp(1j * np.arange(len(mu)))
    w = lam[mu] + delta - 1j * pump.kappa0
    res = _secular(chain.basis, mu, w + 1j * pump.kappa0 - lam[mu], g)[2]   # phi's delta
    phi = chain.vectors(w, mu, g)
    t = pumped_hamiltonian(symmetric_form(m), pump, g)
    formed = np.linalg.norm(t @ phi - phi * w, axis=0) / np.linalg.norm(phi, axis=0)
    basis_error = np.linalg.norm(symmetric_form(m).real @ u - u * lam, 2)
    n = len(m)
    assert np.abs(res - formed).max() <= basis_error + 4 * n * np.finfo(float).eps * c


@pytest.mark.parametrize("sites", [(1,), (3, 77), (1, 50, 130)])
def test_blocked_secular_equals_one_unblocked_evaluation(monkeypatch, sites):
    # at n = 200, all modes (and every second one) make more than _BLOCK modes x poles, so
    # _secular sums over blocks of _BLOCK // n modes; one matrix-vector product per moment entry
    # sums each row in the same order in any block, so every output is bit for bit that of a
    # single block
    rng, n = np.random.default_rng(len(sites)), 200
    b, c = rng.uniform(0.5, 2.0, n - 1), rng.uniform(-1.0, 1.0, n)
    chain = _PumpedChain(np.diag(c) + np.diag(b, 1) + np.diag(b, -1), PumpSpec(0.3, sites),
                         DEFAULT)
    mu, slope = chain.seed(*chain.solve(0.0))
    for g, every in ((0.1, 1), (0.7, 1), (0.7, 2)):
        m, delta = mu[::every], (g * slope + 1e-3 * np.exp(1j * np.arange(n)))[::every]
        assert len(m) * n > laser._BLOCK
        blocked = _secular(chain.basis, m, delta, g)
        with monkeypatch.context() as patch:
            patch.setattr(laser, "_BLOCK", len(m) * n)
            whole = _secular(chain.basis, m, delta, g)
        for x, y in zip(blocked, whole, strict=True):
            np.testing.assert_array_equal(x, y)


def test_dense_input_and_failed_certificate_use_np_eig(monkeypatch, chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    grid = np.linspace(0.0, 0.05, 9)
    ref = dense_track(h, pump, grid)
    # inputs without a ChainForm: a dense matrix, a chain with a sign-flipped
    # coupling pair, and a Hermitian chain with complex couplings
    flipped = LatticeSpec(n=9, t=1.0, scaling="explicit",
                          values=(1, 1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.05, -0.5))
    others = [random_hermitian(np.random.default_rng(4), 9),
              construct_product(build_h0(flipped), build_scaling(flipped, allow_indefinite=True)),
              np.diag(np.full(8, np.exp(0.3j)), 1) + np.diag(np.full(8, np.exp(-0.3j)), -1)]
    assert all(chain_form(m) is None for m in others)
    refs = [dense_track(m, pump, grid) for m in others]
    counter = Counter(monkeypatch)
    # a zero residual bound fails every certificate: dense fallback per point
    strict = DEFAULT.with_overrides({"residual_rel": 0.0})
    got = track_mode(h, pump, grid, strict).eigenvalues
    assert counter.calls == {"eig": len(grid), "eigvals": 0}
    assert np.abs(got - ref).max() <= 1e-12 * np.linalg.norm(h, 2)
    for m, m_ref in zip(others, refs):
        counter.calls.update(eig=0, eigvals=0)
        got = track_mode(m, pump, grid).eigenvalues
        assert counter.calls == {"eig": len(grid), "eigvals": 0}
        assert np.array_equal(got, m_ref)


# ---------------------------------------------------------------------------
# overlap matching: fast path against the greedy loop

def tie_heavy_overlaps(n, seed):
    rng = np.random.default_rng(seed)
    levels = np.array([0.0, 0.25, 0.5, 0.995, 1.0])
    ov = levels[rng.integers(0, len(levels), size=(n, n))]
    if seed % 2:   # near-permutation with ties sprinkled in
        ov = 0.1 * ov + np.eye(n)[rng.permutation(n)]
    return ov


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       margin=st.sampled_from([0.0, 0.01, 0.3]))
def test_match_modes_equals_greedy_loop(n, seed, margin):
    ov = tie_heavy_overlaps(n, seed)
    try:
        ref = greedy_match(ov, margin)
    except TrackingAmbiguityError:
        with pytest.raises(TrackingAmbiguityError):
            _match_modes(ov, margin, 0.0)
        return
    assert np.array_equal(_match_modes(ov, margin, 0.0), ref)


def test_match_modes_exact_ties():
    # two rows share an argmax: the loop decides, and the second row takes the rest
    ov = np.array([[1.0, 0.2], [0.9, 0.1]])
    assert list(_match_modes(ov, 0.01, 0.0)) == [0, 1]
    # an exact tie inside a row refuses
    with pytest.raises(TrackingAmbiguityError):
        _match_modes(np.array([[0.5, 0.5], [0.0, 1.0]]), 0.01, 0.0)
    # all-zero rows take the first free column, as the loop does
    assert list(_match_modes(np.zeros((3, 3)), 0.01, 0.0)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# call counts and the threshold root

def test_track_mode_makes_no_dense_eig_on_a_chain(monkeypatch, chain9):
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    counter = Counter(monkeypatch)
    for matrix in (h, hpp):
        track_mode(matrix, pump, np.linspace(0.0, 0.1, 21))
    assert counter.calls["eig"] == 0 and counter.calls["eigvals"] <= 2


# (kappa0, input) -> (dense eig, dense eigvals) of find_threshold, as measured:
# none for a chain, and a dense input's eigvals of its regula falsi search
# and one eig at the root for its mode
THRESHOLD_SOLVES = {
    (0.02, "h"): (0, 0), (0.02, "hpp"): (0, 0), (0.02, "u h u*"): (1, 5),
    (0.02, "u hpp u*"): (1, 9), (1.0, "h"): (0, 0), (1.0, "hpp"): (0, 0),
    (1.0, "u h u*"): (1, 8), (1.0, "u hpp u*"): (1, 8),
}


@pytest.mark.parametrize("kappa0", [0.02, 1.0])
def test_find_threshold_solve_budget(monkeypatch, chain9, kappa0):
    # a dense input's bracket and root search share the solves at 0 and at the
    # root; the threshold mode takes no dense solve on a chain, one eig otherwise
    _, _, _, h, hpp = chain9
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    u = np.eye(9, dtype=complex)
    u[1:, 1:] = q                                 # fixes the pumped site 1
    pump = PumpSpec(kappa0=kappa0, pumped_sites=(1,))
    for label, matrix in (("h", h), ("hpp", hpp), ("u h u*", u @ h @ u.conj().T),
                          ("u hpp u*", u @ hpp @ u.conj().T)):
        assert (chain_form(matrix) is None) == label.startswith("u ")
        counter = Counter(monkeypatch)
        res = find_threshold(matrix, pump)
        eig, eigvals = THRESHOLD_SOLVES[kappa0, label]
        assert counter.calls == {"eig": eig, "eigvals": eigvals}
        at = np.linalg.eigvals(pumped_hamiltonian(matrix, pump, res.threshold)).imag.max()
        assert abs(at) <= DEFAULT.threshold_imag * kappa0
        lo = np.linalg.eigvals(pumped_hamiltonian(matrix, pump, res.bracket[0])).imag.max()
        assert lo < 0


def test_two_site_chain_threshold_passes_dense_oracles():
    # a 2-site chain's shifted systems are 2 x 2 tridiagonal blocks, which
    # the stacked factorization closes with its 1 x 1 block
    h = np.array([[0.3, 1], [2, -0.1]], dtype=complex)
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    assert chain_form(h) is not None
    res = find_threshold(h, pump)
    m = pumped_hamiltonian(h, pump, res.threshold)
    w = np.linalg.eigvals(m)
    assert abs(w.imag.max()) <= DEFAULT.threshold_imag * pump.kappa0
    assert np.linalg.eigvals(pumped_hamiltonian(h, pump, res.bracket[0])).imag.max() < 0
    psi = res.threshold_mode
    assert psi[0] == 1.0
    top = w[w.imag.argmax()]
    assert np.linalg.norm(m @ psi - top * psi) <= 1e-15 * np.linalg.norm(m, 2) * np.linalg.norm(psi)


def test_failing_search_stops_when_bracket_cannot_shrink(monkeypatch, calibration):
    # at n = 61 the stop test (2e-11) sits below the noise floor of H0 A: the
    # dense search (H0 A under a unitary similarity that fixes the pumped
    # site 1) must give up once its bracket stops shrinking
    spec = LatticeSpec(n=61, t=1.0, scaling="geometric", s=calibration["s"])
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(60, 60)))
    u = scipy.linalg.block_diag(1.0, q)
    h = u @ construct_product(build_h0(spec), build_scaling(spec)) @ u.T
    assert chain_form(h) is None
    counter = Counter(monkeypatch)
    with pytest.raises(NoThresholdError) as err:
        find_threshold(h, PumpSpec(kappa0=0.02, pumped_sites=(1,)))
    assert counter.solves <= 100
    msg = str(err.value)
    for part in ("n = 61", "cannot shrink", "closest |max Im w|", "tolerance 2.000e-11",
                 "eps*||H||"):
        assert part in msg


def test_lossy_chain_above_threshold_raises_at_zero_pump():
    h = np.array([[0.5j]])
    with pytest.raises(NoThresholdError, match="gamma = 0"):
        find_threshold(h, PumpSpec(kappa0=0.2, pumped_sites=(1,)))
    # f(0) is evaluated, not assumed to be -kappa0
    res = find_threshold(np.array([[-0.1j]]), PumpSpec(kappa0=0.2, pumped_sites=(1,)))
    assert res.threshold == pytest.approx(0.3, rel=1e-9)
