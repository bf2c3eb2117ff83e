"""Pumped chains tracked on their symmetric form T(gamma) = D M(gamma) D^-1
against dense solves: the continuation against a per-point greedy tracker on
T and against M's dense eigvals, the threshold mode against the tracked
crossing mode and M's dense eig, the benchmark's A^-1 H0 A chains at
kappa0 = t against M-based oracles, the forced fallback, the dense-solve
budget, the kernels a chain's track calls and its pinned secular
evaluations, the overlap match of secular vectors against the greedy
tracker, and a threshold found where tracking to it ties."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab import laser
from nhlab.config import DEFAULT
from nhlab.eig import chain_form
from nhlab.laser import (PumpSpec, TrackingAmbiguityError, find_threshold, power_flows,
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


def threshold_cases(chain9):
    """chain9 in both gauges and the threshold benchmark's chains, at both losses."""
    _, _, _, h, hpp = chain9
    return [(m, PumpSpec(kappa0=k0, pumped_sites=(1,)))
            for m in (h, hpp, *skin_chains(41), *skin_chains(101)) for k0 in (0.02, 1.0)]


def refined(t, x, steps=3):
    """x after Rayleigh-quotient inverse iteration on the complex symmetric t
    in extended precision (Gaussian elimination with partial pivoting): free
    of the dense eig's eps ||T|| / gap error, ~1e-12 on the n = 101 chains."""
    t, x = t.astype(np.clongdouble), x.astype(np.clongdouble)
    for _ in range(steps):
        a, y = t - (x @ t @ x) / (x @ x) * np.eye(len(x)), x.copy()
        for k in range(len(x)):
            i = k + int(np.abs(a[k:, k]).argmax())
            a[[k, i]], y[[k, i]] = a[[i, k]], y[[i, k]]
            f = a[k + 1:, k] / a[k, k]
            a[k + 1:, k:] -= f[:, None] * a[k, k:]
            y[k + 1:] -= f * y[k]
        for k in range(len(x) - 1, -1, -1):
            y[k] = (y[k] - a[k, k + 1:] @ y[k + 1:]) / a[k, k]
        x = y / y[np.abs(y).argmax()]
    return x


def test_threshold_mode_is_the_tracked_crossing_mode(chain9):
    # the crossing mode of a 33-point track to the root, its vector from the
    # dense eig of T, refined, mapped to psi = phi / d: an eigenvector of M at
    # the threshold, psi_1 = 1, in power balance
    for m, pump in threshold_cases(chain9):
        res = find_threshold(m, pump)
        tr = track_mode(m, pump, np.linspace(0.0, res.threshold, 33))
        w = tr.eigenvalues[-1, np.argmax(tr.eigenvalues[-1].imag)]
        t = pumped_hamiltonian(symmetric_form(m), pump, res.threshold)
        lam, phi = np.linalg.eig(t)
        ref = refined(t, phi[:, np.abs(lam - w).argmin()]) / chain_form(m).d
        psi = res.threshold_mode
        assert psi[0] == 1.0
        assert np.linalg.norm(psi - ref / ref[0]) <= 1e-12 * np.linalg.norm(psi)
        mt = pumped_hamiltonian(m, pump, res.threshold)
        resid = np.linalg.norm(mt @ psi - w * psi)
        assert resid <= DEFAULT.residual_rel * np.linalg.norm(mt, 2) * np.linalg.norm(psi)
        flows = power_flows(psi, mt, pump, res.threshold)
        assert flows.balance_residual <= DEFAULT.balance_rel * flows.max_term


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
    # no dense solve: every step is certified on the secular equation
    assert counter.solves == 0


# (n, input, kappa0) -> dense eig of track_mode on the benchmark's grid, as
# measured: none, as every step is certified by its Newton-Kantorovich bound
TRACK_FALLBACKS = {}


def test_track_mode_on_a_chain_takes_one_eigh_tridiagonal_and_no_lu(monkeypatch, chain9):
    # chain9 and the threshold benchmark's chains on its grids: the modes at
    # gamma = 0 come from one eigh_tridiagonal and every later point from the
    # secular step, with no shifted tridiagonal factorization
    _, _, _, h, hpp = chain9
    calls = dict.fromkeys(("zgttrf", "zgttrs", "eigh_tridiagonal"), 0)
    for name in calls:
        module = scipy.linalg if name == "eigh_tridiagonal" else scipy.linalg.lapack

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    counter = Counter(monkeypatch)
    for n, pair in ((9, (h, hpp)), (41, skin_chains(41)), (101, skin_chains(101))):
        for k0 in (0.02, 1.0):
            pump = PumpSpec(kappa0=k0, pumped_sites=(1,))
            top = max(find_threshold(m, pump).threshold for m in pair)
            for label, m in zip(("H0 A", "A^-1 H0 A"), pair):
                calls.update(zgttrf=0, zgttrs=0, eigh_tridiagonal=0)
                counter.calls.update(eig=0, eigvals=0)
                track_mode(m, pump, np.linspace(0.0, top, 41))
                assert calls == {"zgttrf": 0, "zgttrs": 0, "eigh_tridiagonal": 1}
                fallbacks = TRACK_FALLBACKS.get((n, label, k0), 0)
                assert counter.calls == {"eig": fallbacks, "eigvals": 0}


# (n, input, kappa0) -> _secular evaluations of track_mode on the benchmark's grid, as
# measured with the cubic Hermite prediction and the Newton-Kantorovich stop (the
# first-order prediction and the step-size stop alone took 1299, 889 of them on
# the n = 41 and 101 tracks, where these take 441); more evaluations fail here
SECULAR_CALLS = {
    (9, "H0 A", 0.02): 40, (9, "A^-1 H0 A", 0.02): 40, (9, "H0 A", 1.0): 40,
    (9, "A^-1 H0 A", 1.0): 73, (41, "H0 A", 0.02): 40, (41, "A^-1 H0 A", 0.02): 40,
    (41, "H0 A", 1.0): 40, (41, "A^-1 H0 A", 1.0): 84, (101, "H0 A", 0.02): 40,
    (101, "A^-1 H0 A", 0.02): 50, (101, "H0 A", 1.0): 60, (101, "A^-1 H0 A", 1.0): 87}


def test_track_mode_secular_evaluations_stay_within_their_pins(chain9):
    for i, (m, pump, grid) in enumerate(bench_tracks(chain9)):
        key = (len(m), ("H0 A", "A^-1 H0 A")[i % 2], pump.kappa0)
        with mock.patch.object(laser, "_secular", wraps=laser._secular) as secular:
            track_mode(m, pump, grid)
        assert secular.call_count <= SECULAR_CALLS[key], key


def bench_tracks(chain9):
    """(m, pump, grid): chain9 and the threshold benchmark's chains on its grids."""
    _, _, _, h, hpp = chain9
    for pair in ((h, hpp), skin_chains(41), skin_chains(101)):
        for k0 in (0.02, 1.0):
            pump = PumpSpec(kappa0=k0, pumped_sites=(1,))
            grid = np.linspace(0.0, max(find_threshold(m, pump).threshold for m in pair), 41)
            for m in pair:
                yield m, pump, grid


def greedy_prefix(h, pump, grid):
    """(tie, trajectory): the first grid index where ``dense_track`` ties (None if it
    does not) and its trajectory on the grid up to there (None below two points)."""
    try:
        return None, dense_track(h, pump, grid)
    except TrackingAmbiguityError:
        lo, hi = 1, len(grid) - 1              # grid[:hi + 1] ties, grid[:lo] does not
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                dense_track(h, pump, grid[:mid + 1])
                lo = mid + 1
            except TrackingAmbiguityError:
                hi = mid
        return lo, dense_track(h, pump, grid[:lo]) if lo > 1 else None


def overlap_path_eigs(m, pump, grid):
    """Check that ``track_mode`` with the separation test refusing every secular
    step, so that each point after the first is a dense solve of T(gamma)
    matched by eigenvector overlap, gives the dense tracker's trajectory and
    first tie."""
    tie, ref = greedy_prefix(symmetric_form(m), pump, grid)
    with mock.patch.object(laser, "_separated", lambda w, guess, limit: False):
        if tie is not None:
            with pytest.raises(TrackingAmbiguityError, match=f"gamma={grid[tie]:.6g}"):
                track_mode(m, pump, grid)
            grid = grid[:tie]
        if ref is not None:
            bound = DEFAULT.spectra_match_rel * np.linalg.norm(m, 2)
            assert np.abs(track_mode(m, pump, grid).eigenvalues - ref).max() <= bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=pumped_chains(), points=st.sampled_from([9, 33, 41]),
       top=st.sampled_from([1.0, 4.0, 20.0]))
def test_overlap_path_matches_greedy_tracker_on_drawn_chains(case, points, top):
    # a point whose continued Newton misses its certificate (near an EP) takes
    # the dense solve; the trajectory and the ties are the dense tracker's
    m, pump = case
    overlap_path_eigs(m, pump, np.linspace(0.0, top * pump.kappa0, points))


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


def test_tracking_tie_keeps_the_converged_threshold():
    # A^-1 H0 A at n = 41, kappa0 = t under a unitary similarity that fixes
    # site 1: a dense input (tracked on M), whose overlaps are those of M.
    # The search tracks nothing: it returns the root, while a 33-point
    # track to that root ties.
    n = 41
    _, hg = skin_chains(n)
    rng = np.random.default_rng(11)
    q, r = np.linalg.qr(rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1)))
    u = scipy.linalg.block_diag(1.0, q * (np.diagonal(r) / np.abs(np.diagonal(r))))
    m = u @ hg @ u.conj().T
    pump = PumpSpec(kappa0=1.0, pumped_sites=(1,))
    res = find_threshold(m, pump)
    lo, hi = res.bracket
    assert res.threshold in (lo, hi) and lo < hi
    assert max_imag(m, pump, lo) < 0
    assert abs(max_imag(m, pump, res.threshold)) <= DEFAULT.threshold_imag * pump.kappa0
    assert res.threshold == pytest.approx(find_threshold(hg, pump).threshold, rel=1e-8)
    mt = pumped_hamiltonian(m, pump, res.threshold)
    w = np.linalg.eigvals(mt)
    resid = np.linalg.norm(mt @ res.threshold_mode - w[w.imag.argmax()] * res.threshold_mode)
    assert resid <= DEFAULT.residual_rel * np.linalg.norm(mt, 2) * np.linalg.norm(res.threshold_mode)
    with pytest.raises(TrackingAmbiguityError, match="overlap tie"):
        track_mode(m, pump, np.linspace(0.0, res.threshold, 33))
