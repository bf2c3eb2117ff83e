"""The threshold search's Newton proposals on T's crossing mode and the
continuation that keeps its mode order: the order against a per-point
overlap tracker, the dense-eigvals budget of a chain search, the secant
continuation after a Newton point fails M's dense check, the stalled
search's report of T's root, the swap guard, and dense inputs searched
exactly as by the plain regula falsi."""

import numpy as np
import pytest

from nhlab.config import DEFAULT
from nhlab.eig import chain_form
from nhlab.laser import (NoThresholdError, PumpSpec, _continue, _PumpedChain,
                         find_threshold, pumped_hamiltonian, track_mode)
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_product

from conftest import random_hermitian
from test_laser_structured import Counter, dense_track, symmetric_form
from test_laser_symmetric import skin_chains


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
        # f(0), then kappa0 * 2^j up to the first end at or above the root
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
    assert abs(chain.max_imag(t_root)) > ftol
    res = find_threshold(h, pump)
    assert res.threshold / pump.kappa0 == pytest.approx(1.448038, abs=1e-6)
    assert abs(chain.max_imag(res.threshold)) <= ftol
    assert chain.max_imag(res.bracket[0]) < 0


def test_stalled_chain_search_names_t_root():
    h = calibrated_product(61, 1.7977)
    with pytest.raises(NoThresholdError) as err:
        find_threshold(h, PumpSpec(kappa0=0.02, pumped_sites=(1,)))
    msg = str(err.value)
    assert "cannot shrink" in msg
    assert "T's root at 1.448038 kappa0, where M's max Im w = " in msg
    assert "np.float64" not in msg


def test_swap_guard_refuses_a_step_that_reorders_modes(chain9):
    # exact eigenpairs of T with two eigenvalue labels swapped: every residual
    # certifies, but each swapped prediction is nearest the other's mode
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    chain = _PumpedChain(h, pump, DEFAULT)
    w, v = chain.solve(0.0)
    off, diag = chain.form.off, chain.diagonal(1e-9)
    assert _continue(off, diag, chain.p, w, v.T, 1e-9, DEFAULT) is not None
    swapped = w[[1, 0] + list(range(2, len(w)))]
    assert _continue(off, diag, chain.p, swapped, v.T, 1e-9, DEFAULT) is None


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
