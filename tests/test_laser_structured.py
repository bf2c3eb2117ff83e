"""The structured pumped-chain solve against the dense oracle: tridiagonal
inverse-iteration vectors, tracking, the overlap-matching fast path, the
regula falsi threshold root, and call counts that keep dense eigensolves from
returning to the tridiagonal path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab.config import DEFAULT
from nhlab.eig import chain_form
from nhlab.laser import (NoThresholdError, PumpSpec, TrackingAmbiguityError, _match_modes,
                         _PumpedChain, _tridiagonal_vectors, find_threshold,
                         pumped_hamiltonian, track_mode)
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product

from conftest import random_hermitian


@st.composite
def pumped_chains(draw):
    """(matrix, pump): a scaled chain in either gauge, 1-3 pumped sites."""
    n = draw(st.integers(3, 60))
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
# structured eigenvectors against np.linalg.eig

@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=pumped_chains(), gamma_factor=st.sampled_from([0.0, 0.7, 1.5, 4.0]))
def test_structured_vectors_match_dense_oracle(case, gamma_factor):
    m, pump = case
    g = gamma_factor * pump.kappa0
    chain = _PumpedChain(m, pump, DEFAULT)
    assert chain.tridiagonal
    dense = pumped_hamiltonian(m, pump, g)
    assert np.array_equal(chain.matrix(g), dense)
    w = chain.eigvals(g)
    assert np.array_equal(w, np.linalg.eigvals(dense))
    v = _tridiagonal_vectors(chain.sub, chain.diagonal(g), chain.sup, w, chain.start,
                             DEFAULT.residual_rel)
    assert v is not None
    norm = np.linalg.norm(dense, 2)
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-14)
    assert np.linalg.norm(dense @ v - v * w, axis=0).max() <= DEFAULT.residual_rel * norm
    w_ref = np.linalg.eig(dense)[0]
    gap = np.abs(w[:, None] - w_ref[None, :])
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= DEFAULT.spectra_match_rel * norm


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


def test_dense_input_and_failed_certificate_use_np_eig(monkeypatch, chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    grid = np.linspace(0.0, 0.05, 9)
    ref = dense_track(h, pump, grid)
    dense_h = random_hermitian(np.random.default_rng(4), 9)
    dense_ref = dense_track(dense_h, pump, grid)
    counter = Counter(monkeypatch)
    # a zero residual bound fails every structured vector: dense fallback per point
    strict = DEFAULT.with_overrides({"residual_rel": 0.0})
    got = track_mode(h, pump, grid, strict).eigenvalues
    assert counter.calls["eig"] == len(grid)
    assert np.abs(got - ref).max() <= 1e-12 * np.linalg.norm(h, 2)
    counter.calls.update(eig=0, eigvals=0)
    got = track_mode(dense_h, pump, grid).eigenvalues
    assert counter.calls == {"eig": len(grid), "eigvals": 0}
    assert np.array_equal(got, dense_ref)


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


@pytest.mark.parametrize("kappa0", [0.02, 1.0])
def test_find_threshold_solve_budget(monkeypatch, chain9, kappa0):
    # 33 tracking points plus the bracket and the regula falsi steps, sharing
    # the solves at 0 and at the root
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=kappa0, pumped_sites=(1,))
    for matrix in (h, hpp):
        counter = Counter(monkeypatch)
        res = find_threshold(matrix, pump)
        assert counter.calls["eig"] == 0
        assert counter.solves <= 42
        at = np.linalg.eigvals(pumped_hamiltonian(matrix, pump, res.threshold)).imag.max()
        assert abs(at) <= DEFAULT.threshold_imag * kappa0
        lo = np.linalg.eigvals(pumped_hamiltonian(matrix, pump, res.bracket[0])).imag.max()
        assert lo < 0


def test_failing_search_stops_when_bracket_cannot_shrink(monkeypatch, calibration):
    # at n = 61 the stop test (2e-11) sits below the noise floor of H0 A: the
    # search must give up once its bracket stops shrinking
    spec = LatticeSpec(n=61, t=1.0, scaling="geometric", s=calibration["s"])
    h = construct_product(build_h0(spec), build_scaling(spec))
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
