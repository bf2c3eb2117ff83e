"""The threshold search's Newton proposals on T's crossing mode and the
continuation that keeps its mode order: the order against a per-point
overlap tracker, the dense-eigvals budget of a chain search, its bracket
from kappa0 with no dense solve at gamma = 0 and its doubling fallback,
the secant continuation after a Newton point fails M's dense check, the
stalled search's report of T's root, the secular step's swap guard, and
dense inputs searched exactly as by the plain regula falsi."""

import numpy as np
import pytest

from nhlab.config import DEFAULT
from nhlab.eig import chain_form
from nhlab.laser import (NoThresholdError, PumpSpec, _PumpedChain, find_threshold,
                         pumped_hamiltonian, track_mode)
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_product

from conftest import random_hermitian
from test_laser_structured import Counter, dense_track, symmetric_form
from test_laser_symmetric import skin_chains, threshold_cases


def bench_cases():
    """The threshold benchmark's n = 41 chains at both loss strengths."""
    return [(m, PumpSpec(kappa0=k0, pumped_sites=(1,)))
            for m in skin_chains(41) for k0 in (0.02, 1.0)]


def calibrated_product(n, s):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
    return construct_product(build_h0(spec), build_scaling(spec))


def regula_falsi(h, pump, tol=DEFAULT):
    """Reference search: bracket doubling and Illinois regula falsi on the
    dense max Im eigvals of M, with no Newton proposals."""
    f = lambda g: np.linalg.eigvals(pumped_hamiltonian(h, pump, g)).imag.max()
    ftol = tol.threshold_imag * pump.kappa0
    lo, f_lo, hi = 0.0, f(0.0), pump.kappa0
    f_hi = f(hi)
    while f_hi < 0 and abs(f_hi) > ftol:
        lo, f_lo, hi = hi, f_hi, 2 * hi
        f_hi = f(hi)
    g, f_g, side = hi, f_hi, 0
    while abs(f_g) > ftol:
        g = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < g < hi:
            g = 0.5 * (lo + hi)
        f_g = f(g)
        if f_g < 0:
            f_hi = 0.5 * f_hi if side < 0 else f_hi
            lo, f_lo, side = g, f_g, -1
        else:
            f_lo = 0.5 * f_lo if side > 0 else f_lo
            hi, f_hi, side = g, f_g, 1
    return g, (lo, hi)


def test_continued_order_matches_a_per_point_overlap_tracker(chain9):
    # every step of the 33-point track up to the threshold, against
    # np.linalg.eig of T at each point matched by maximal overlap: same
    # order, same values
    _, _, _, h, hpp = chain9
    cases = [(m, PumpSpec(kappa0=k0, pumped_sites=(1,)))
             for m in (h, hpp) for k0 in (0.02, 1.0)] + bench_cases()
    for m, pump in cases:
        traj = track_mode(m, pump, np.linspace(0.0, find_threshold(m, pump).threshold, 33))
        ref = dense_track(symmetric_form(m), pump, traj.gammas)
        norm = np.linalg.norm(symmetric_form(m), 2)
        assert np.abs(traj.eigenvalues - ref).max() <= 1e-12 * norm
        grid = np.linspace(0.0, 2 * traj.gammas[-1], 41)
        got = track_mode(m, pump, grid).eigenvalues
        assert np.abs(got - dense_track(symmetric_form(m), pump, grid)).max() <= 1e-12 * norm


def test_chain_search_takes_one_dense_check_beyond_its_bracket(monkeypatch):
    for m, pump in bench_cases():
        counter = Counter(monkeypatch)
        res = find_threshold(m, pump)
        # at most the doubling bracket's count: f(0), then kappa0 * 2^j up to
        # the first end at or above the root
        bracket_evals = 2 + max(0, int(np.ceil(np.log2(res.threshold / pump.kappa0))))
        assert counter.calls["eig"] == 0
        assert counter.calls["eigvals"] <= bracket_evals + 2
        at = np.linalg.eigvals(pumped_hamiltonian(m, pump, res.threshold)).imag.max()
        assert abs(at) <= DEFAULT.threshold_imag * pump.kappa0


def test_newton_point_failing_the_dense_check_falls_back_to_the_secant():
    # on the paper's chain at n = 41 the root of T's crossing mode lies
    # inside M's noise: M's max Im w there misses the tolerance, and the
    # regula falsi continuation still finds a root that passes it
    h = calibrated_product(41, 1.7977)
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    ftol = DEFAULT.threshold_imag * pump.kappa0
    chain = _PumpedChain(h, pump, DEFAULT)
    t_root = chain.t_root(2 * pump.kappa0, chain.top(2 * pump.kappa0))
    assert t_root / pump.kappa0 == pytest.approx(1.448038, abs=1e-6)
    assert abs(chain.top(t_root).imag) > ftol
    res = find_threshold(h, pump)
    assert res.threshold / pump.kappa0 == pytest.approx(1.448038, abs=1e-6)
    assert abs(chain.top(res.threshold).imag) <= ftol
    assert chain.top(res.bracket[0]).imag < 0


def test_stalled_chain_search_names_t_root():
    h = calibrated_product(61, 1.7977)
    with pytest.raises(NoThresholdError) as err:
        find_threshold(h, PumpSpec(kappa0=0.02, pumped_sites=(1,)))
    msg = str(err.value)
    assert "cannot shrink" in msg
    assert "T's root at 1.448038 kappa0, where M's max Im w = " in msg
    assert "np.float64" not in msg


def test_t_root_is_nan_when_the_slope_vanishes():
    # the zero mode (1, 0, -1) of the 3-site unit chain has no weight on its
    # pumped site 2: the Newton slope is 0 and the step is infinite
    chain = _PumpedChain(build_h0(LatticeSpec(n=3)), PumpSpec(kappa0=0.1, pumped_sites=(2,)),
                         DEFAULT)
    assert chain.form is not None
    assert np.isnan(chain.t_root(0.3, -0.1j))


def test_swap_guard_refuses_a_step_that_reorders_modes(chain9):
    # exact modes at gamma = 0 with two eigenvalue labels swapped: Newton takes
    # each mode back to its own pole's root and every residual certifies,
    # but each swapped prediction is nearest the other's root
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    chain = _PumpedChain(h, pump, DEFAULT)
    w, v = chain.solve(0.0)
    mu, slope = chain.seed(w, v)
    assert chain.step(w, mu, slope, 0.0, 1e-9) is not None
    swapped = w[[1, 0] + list(range(2, len(w)))]
    assert chain.step(swapped, mu, slope, 0.0, 1e-9) is None


def test_dense_inputs_keep_the_regula_falsi_bits(chain9):
    # inputs without a ChainForm take no Newton proposal: threshold and
    # bracket equal the plain search's, bit for bit, and the threshold mode
    # is M's eigenvector for its eigenvalue of largest Im w there
    _, _, _, h, _ = chain9
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    u = np.eye(9, dtype=complex)
    u[1:, 1:] = q                                 # fixes the pumped site 1
    for m in (u @ h @ u.conj().T, random_hermitian(rng, 9)):
        assert chain_form(m) is None
        for k0 in (0.02, 1.0):
            pump = PumpSpec(kappa0=k0, pumped_sites=(1,))
            res = find_threshold(m, pump)
            threshold, bracket = regula_falsi(m, pump)
            assert res.threshold == threshold and res.bracket == bracket
            mt = pumped_hamiltonian(m, pump, res.threshold)
            w = np.linalg.eigvals(mt)
            psi = res.threshold_mode
            assert psi[0] == 1.0
            resid = np.linalg.norm(mt @ psi - w[w.imag.argmax()] * psi)
            assert resid <= DEFAULT.residual_rel * np.linalg.norm(mt, 2) * np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# a chain's bracket: Newton points from kappa0, no dense solve at gamma = 0

def searched_points(monkeypatch):
    """The pump strengths at which find_threshold takes M's dense eigvals."""
    points, top = [], _PumpedChain.top

    def recorded(chain, gamma):
        points.append(gamma)
        return top(chain, gamma)
    monkeypatch.setattr(_PumpedChain, "top", recorded)
    return points


def test_chain_search_takes_no_dense_solve_at_zero(monkeypatch, chain9):
    for m, pump in threshold_cases(chain9):
        points = searched_points(monkeypatch)
        counter = Counter(monkeypatch)
        res = find_threshold(m, pump)
        assert 0.0 not in points and points[0] == pump.kappa0
        assert counter.calls["eig"] == 0 and counter.calls["eigvals"] <= 3
        at = np.linalg.eigvals(pumped_hamiltonian(m, pump, res.threshold)).imag.max()
        assert abs(at) <= DEFAULT.threshold_imag * pump.kappa0


def test_gamma_zero_shortcut_matches_the_dense_spectrum(chain9):
    # M(0) is similar to T0 - i kappa0 with T0 real symmetric: its dense max
    # Im w is -kappa0 up to round-off, and the bracket's low end, which the
    # search may leave at 0 without solving there, is below the axis
    for m, pump in threshold_cases(chain9):
        m0 = pumped_hamiltonian(m, pump, 0.0)
        noise = len(m) * np.finfo(float).eps * np.linalg.norm(m0, 2)
        assert abs(np.linalg.eigvals(m0).imag.max() + pump.kappa0) <= noise
        lo = find_threshold(m, pump).bracket[0]
        assert np.linalg.eigvals(pumped_hamiltonian(m, pump, lo)).imag.max() < 0


def test_newton_bracket_past_the_ceiling_falls_back_to_doubling(monkeypatch, chain9):
    # a Newton point beyond gamma_max_factor * kappa0 is not taken: the bracket
    # doubles from kappa0, and the search is the plain regula falsi's
    for m, pump in threshold_cases(chain9):
        ceiling = DEFAULT.gamma_max_factor * pump.kappa0
        monkeypatch.setattr(_PumpedChain, "t_root", lambda chain, gamma, w: 2 * ceiling)
        points = searched_points(monkeypatch)
        res = find_threshold(m, pump)
        assert (res.threshold, res.bracket) == regula_falsi(m, pump)
        doublings = int(np.ceil(np.log2(res.threshold / pump.kappa0)))
        assert points[:doublings + 1] == [pump.kappa0 * 2.0 ** j for j in range(doublings + 1)]
