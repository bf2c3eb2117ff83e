"""Pumped chains tracked on their symmetric form T(gamma) = D M(gamma) D^-1
against dense solves: the continuation against a per-point greedy tracker on
T and against M's dense eigvals, the benchmark's A^-1 H0 A chains at
kappa0 = t against M-based oracles, the forced fallback, the dense-solve
budget, and the converged threshold carried by a tracking tie."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab.config import DEFAULT
from nhlab.laser import (PumpSpec, TrackingAmbiguityError, find_threshold,
                         pumped_hamiltonian, track_mode)

from test_laser_structured import Counter, dense_track, pumped_chains, symmetric_form

GOLDEN = (1 + 5 ** 0.5) / 2


def skin_chains(n):
    """The threshold benchmark's chains: H0 A and A^-1 H0 A with s^(n-1) = 1e4."""
    a = (1e4 ** (1 / (n - 1))) ** np.arange(n)
    h0 = np.eye(n, k=1) + np.eye(n, k=-1)
    return (h0 * a[None, :]).astype(complex), (h0 * a[None, :] / a[:, None]).astype(complex)


def max_imag(m, pump, gamma):
    return scipy.linalg.eigvals(pumped_hamiltonian(m, pump, gamma)).imag.max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=pumped_chains(), points=st.sampled_from([9, 33, 41]),
       top=st.sampled_from([1.0, 4.0, 20.0]))
def test_continuation_matches_greedy_tracker_on_t_and_dense_m(case, points, top):
    m, pump = case
    grid = np.linspace(0.0, top * pump.kappa0, points)
    try:
        ref = dense_track(symmetric_form(m), pump, grid)
    except TrackingAmbiguityError:
        with pytest.raises(TrackingAmbiguityError):
            track_mode(m, pump, grid)
        return
    tr = track_mode(m, pump, grid)
    norm = np.linalg.norm(m, 2)
    bound = DEFAULT.spectra_match_rel * norm
    assert np.abs(tr.eigenvalues - ref).max() <= bound
    for g, w in zip(grid, tr.eigenvalues):
        dense = np.linalg.eigvals(pumped_hamiltonian(m, pump, g))
        gap = np.abs(w[:, None] - dense[None, :])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= bound
    # final vectors: M's unit right vectors, largest entry real positive
    psi, w = tr.final_vectors, tr.eigenvalues[-1]
    resid = pumped_hamiltonian(m, pump, grid[-1]) @ psi - psi * w
    assert np.linalg.norm(resid, axis=0).max() <= DEFAULT.residual_rel * norm
    assert np.allclose(np.linalg.norm(psi, axis=0), 1.0, atol=1e-14)
    top_entry = psi[np.abs(psi).argmax(axis=0), np.arange(len(w))]
    assert np.all(top_entry.imag == 0) and np.all(top_entry.real > 0)


@pytest.mark.parametrize("n", [41, 101])
def test_gauge_chain_at_kappa0_t_passes_dense_oracles(monkeypatch, n):
    # the benchmark's A^-1 H0 A, kappa0 = t operations: find_threshold and
    # track_mode on the grid shared with H0 A, judged on M's dense spectrum
    h, hg = skin_chains(n)
    pump = PumpSpec(kappa0=1.0, pumped_sites=(1,))
    res = find_threshold(hg, pump)
    assert max_imag(hg, pump, res.bracket[0]) < 0
    assert abs(max_imag(hg, pump, res.threshold)) <= DEFAULT.threshold_imag * pump.kappa0
    assert res.threshold == pytest.approx(GOLDEN, rel=1e-8)
    grid = np.linspace(0.0, max(res.threshold, find_threshold(h, pump).threshold), 41)
    counter = Counter(monkeypatch)
    for m in (h, hg):
        tr = track_mode(m, pump, grid)
        assert tr.zero_mode_index is not None
    # at most one dense solve per track (a continuation step's fallback)
    assert counter.calls["eig"] == 0 and counter.calls["eigvals"] <= 2


def test_forced_fallback_equals_exact_per_point_solve(chain9):
    # a zero residual bound fails every certificate: each point is solved
    # by np.linalg.eig on T(gamma), as the reference tracker does
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    grid = np.linspace(0.0, 0.1, 17)
    strict = DEFAULT.with_overrides({"residual_rel": 0.0})
    for m in (h, hpp):
        got = track_mode(m, pump, grid, strict)
        assert np.array_equal(got.eigenvalues, dense_track(symmetric_form(m), pump, grid))
        exact = track_mode(m, pump, grid)
        assert np.abs(got.final_vectors - exact.final_vectors).max() <= 1e-12


def test_tracking_tie_keeps_the_converged_threshold():
    # A^-1 H0 A at n = 41, kappa0 = t under a unitary similarity that fixes
    # site 1: a dense input (tracked on M), whose overlaps are those of M
    n = 41
    _, hg = skin_chains(n)
    rng = np.random.default_rng(11)
    q, r = np.linalg.qr(rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1)))
    u = scipy.linalg.block_diag(1.0, q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    m = u @ hg @ u.conj().T
    pump = PumpSpec(kappa0=1.0, pumped_sites=(1,))
    with pytest.raises(TrackingAmbiguityError) as err:
        find_threshold(m, pump)
    exc = err.value
    lo, hi = exc.bracket
    assert exc.threshold in (lo, hi) and lo < hi
    for part in ("overlap tie", repr(exc.threshold), repr(lo), repr(hi)):
        assert part in str(exc)
    assert isinstance(exc.__cause__, TrackingAmbiguityError)
    assert exc.__cause__.threshold is None
    assert max_imag(m, pump, lo) < 0
    assert abs(max_imag(m, pump, exc.threshold)) <= DEFAULT.threshold_imag * pump.kappa0
    assert exc.threshold == pytest.approx(find_threshold(hg, pump).threshold, rel=1e-8)
