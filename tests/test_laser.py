import numpy as np
import pytest

from nhlab.laser import (NoThresholdError, PumpSpec, TrackingAmbiguityError, find_threshold,
                         power_flows, pumped_hamiltonian, track_mode)
from nhlab.model import LatticeSpec, build_h0


def test_pump_spec_validation():
    with pytest.raises(ValueError):
        PumpSpec(kappa0=0.0, pumped_sites=(1,))
    with pytest.raises(ValueError):
        PumpSpec(kappa0=1.0, pumped_sites=())
    with pytest.raises(ValueError, match="unknown"):
        PumpSpec.from_dict({"kappa0": 1.0, "pumped_sites": [1], "extra": 2})


def test_pump_spec_refuses_non_integer_sites():
    # the same rule as pump_indicator: a non-integer site is refused, not truncated
    for site in (1.9, 1.0, "3", None):
        with pytest.raises(ValueError, match=f"pumped site {site!r} is not an integer"):
            PumpSpec(kappa0=1.0, pumped_sites=(1, site))
    pump = PumpSpec(kappa0=1.0, pumped_sites=(np.int64(2), 3))
    assert pump.pumped_sites == (2, 3)
    assert all(type(j) is int for j in pump.pumped_sites)


def test_pump_strength_is_not_a_pump_spec_field():
    # gamma is passed to each function that applies the pump, never stored
    with pytest.raises(ValueError, match=r"unknown pump fields: \['gamma'\]"):
        PumpSpec.from_dict({"kappa0": 1.0, "pumped_sites": [1], "gamma": 0.5})
    with pytest.raises(TypeError):
        PumpSpec(kappa0=1.0, pumped_sites=(1,), gamma=0.5)
    with pytest.raises(TypeError):
        pumped_hamiltonian(np.zeros((2, 2)), PumpSpec(kappa0=1.0, pumped_sites=(1,)))


def test_single_cavity_threshold_is_kappa0():
    h = np.zeros((1, 1), dtype=complex)
    pump = PumpSpec(kappa0=0.35, pumped_sites=(1,))
    ha = pumped_hamiltonian(h, pump, gamma=0.5)
    assert ha[0, 0] == 1j * (0.5 - 0.35)
    res = find_threshold(h, pump)
    assert res.threshold == pytest.approx(0.35, rel=1e-9)


def test_unpumped_spectrum_shifts_rigidly(chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    w = np.linalg.eigvals(pumped_hamiltonian(h, pump, gamma=0.0))
    assert np.allclose(w.imag, -0.02, atol=1e-12)


def test_uniform_pump_at_kappa0_restores_h(chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=tuple(range(1, 10)))
    assert np.array_equal(pumped_hamiltonian(h, pump, 0.02), h)


def test_pumped_sites_bounds_checked(chain9):
    _, _, _, h, _ = chain9
    with pytest.raises(ValueError, match=r"^pumped site must be in 1\.\.9, got 10$"):
        pumped_hamiltonian(h, PumpSpec(kappa0=1.0, pumped_sites=(10,)), 0.0)


# ---------------------------------------------------------------------------
# tracking

def test_zero_mode_frequency_pinned(chain9):
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    for matrix in (h, hpp):
        d = find_threshold(matrix, pump).threshold
        tr = track_mode(matrix, pump, np.linspace(0.0, 2 * d, 33))
        assert tr.zero_mode_index is not None
        z = tr.eigenvalues[:, tr.zero_mode_index]
        assert np.abs(z.real).max() <= 1e-8 * np.abs(tr.eigenvalues).max()


def test_all_modes_rise_monotonically(chain9):
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    for matrix in (h, hpp):
        tr = track_mode(matrix, pump, np.linspace(0.0, 0.02, 21))
        imag = tr.eigenvalues.imag
        assert np.allclose(imag[0], -0.02, atol=1e-12)
        assert np.all(np.diff(imag, axis=0) >= -1e-12)


def test_hermitian_chain_chiral_trajectory():
    h = build_h0(LatticeSpec(n=9, t=1.0)).astype(complex)
    pump = PumpSpec(kappa0=0.1, pumped_sites=(1,))
    tr = track_mode(h, pump, np.linspace(0.0, 0.1, 11))
    for k in range(len(tr.gammas)):
        w = tr.eigenvalues[k]
        for val in w:
            mirrored = np.abs(w - (-np.conj(val))).min()
            assert mirrored <= 1e-9


def test_tracking_refuses_ambiguous_step():
    h = np.array([[0, 1], [1, 0]], dtype=complex)
    pump = PumpSpec(kappa0=1.0, pumped_sites=(1,))
    with pytest.raises(TrackingAmbiguityError):
        track_mode(h, pump, np.array([0.0, 4.0]))   # leaps across the spectral collision


def test_track_grid_validation(chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    with pytest.raises(ValueError):
        track_mode(h, pump, np.array([0.5, 0.2]))


def _bad_input(kind):
    h = build_h0(LatticeSpec(n=4, t=1.0)).astype(complex)
    grid = np.linspace(0.0, 0.1, 5)
    if kind in ("nan", "inf"):
        h[1, 2] = np.nan if kind == "nan" else np.inf
    elif kind == "non_square":
        h = h[:, :3]
    else:
        grid[2] = np.nan if kind == "nan_grid" else np.inf
    return h, grid


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry in ("find_threshold", "track_mode")
    for kind in ("nan", "inf", "non_square")] + [
    ("track_mode", "nan_grid"), ("track_mode", "inf_grid")])
def test_laser_entry_points_reject_bad_input(entry, kind):
    # a typed message, not numpy's LinAlgError (a ValueError subclass) or an
    # incidental broadcast error
    h, grid = _bad_input(kind)
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    with pytest.raises(ValueError, match="non-finite|must be square|gamma_grid must be finite"):
        if entry == "find_threshold":
            find_threshold(h, pump)
        else:
            track_mode(h, pump, grid)


# ---------------------------------------------------------------------------
# thresholds

def test_paper_thresholds_weak_loss(chain9):
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    d = find_threshold(h, pump)
    dpp = find_threshold(hpp, pump)
    assert d.threshold / 0.02 == pytest.approx(1.44, rel=0.01)
    assert dpp.threshold / 0.02 == pytest.approx(4.99, rel=0.01)
    # crossing mode is the frequency-pinned zero mode
    tr = track_mode(h, pump, np.linspace(0.0, d.threshold, 33))
    assert tr.zero_mode_index == int(np.argmax(tr.eigenvalues[-1].imag))


def test_paper_thresholds_strong_loss(chain9):
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=1.0, pumped_sites=(1,))
    assert find_threshold(h, pump).threshold == pytest.approx(1.35, rel=0.01)
    assert find_threshold(hpp, pump).threshold == pytest.approx(1.62, rel=0.01)


def test_first_crossing_optimality(chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    d = find_threshold(h, pump).threshold
    below = np.linalg.eigvals(pumped_hamiltonian(h, pump, d * (1 - 1e-4))).imag
    above = np.linalg.eigvals(pumped_hamiltonian(h, pump, d * (1 + 1e-4))).imag
    assert np.all(below < 0)
    assert np.sum(above > 0) == 1


def test_threshold_mode_normalization_and_pinning(chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    res = find_threshold(h, pump)
    assert res.threshold_mode[0] == 1.0
    wa = np.linalg.eigvals(pumped_hamiltonian(h, pump, res.threshold))
    assert abs(wa.imag.max()) <= 1e-9 * pump.kappa0


def test_threshold_mode_vanishing_at_site_1_is_one_at_its_pumped_site():
    # site 1 decoupled and unpumped: the crossing mode lives on sites 2-3, whose
    # eigenvalues i gamma / 2 +- sqrt(1 - gamma^2 / 4) - i kappa0 cross at 2 kappa0
    h = np.array([[0.5, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    pump = PumpSpec(kappa0=0.1, pumped_sites=(3,))
    res = find_threshold(h, pump)
    assert res.threshold == pytest.approx(0.2, rel=1e-9)
    assert res.threshold_mode[2] == 1.0 and res.threshold_mode[0] == 0
    assert abs(res.threshold_mode[1]) == pytest.approx(1.0, rel=1e-9)
    wa = np.linalg.eigvals(pumped_hamiltonian(h, pump, res.threshold))
    assert abs(wa.imag.max()) <= 1e-9 * pump.kappa0


def test_threshold_monotone_in_added_pump_site(chain9):
    _, _, _, h, _ = chain9
    d1 = find_threshold(h, PumpSpec(kappa0=0.02, pumped_sites=(1,))).threshold
    d2 = find_threshold(h, PumpSpec(kappa0=0.02, pumped_sites=(1, 3))).threshold
    assert d2 <= d1 + 1e-12


def test_no_threshold_error_when_search_ceiling_hit(chain9):
    from nhlab.config import DEFAULT
    _, _, _, _, hpp = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    capped = DEFAULT.with_overrides({"gamma_max_factor": 2.0})  # D'' ~ 4.99 kappa0
    with pytest.raises(NoThresholdError):
        find_threshold(hpp, pump, capped)


# ---------------------------------------------------------------------------
# power flows

def test_hermitian_couplings_have_zero_junction_gain():
    h = build_h0(LatticeSpec(n=9, t=1.0)).astype(complex)
    pump = PumpSpec(kappa0=0.1, pumped_sites=(1,))
    res = find_threshold(h, pump)
    rep = power_flows(res.threshold_mode, pumped_hamiltonian(h, pump, res.threshold),
                      pump, gamma=res.threshold)
    assert np.abs(rep.junction_gains).max() <= 1e-12 * np.abs(rep.site_terms).max()


def test_junction_gain_closed_form(chain9):
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    res = find_threshold(h, pump)
    ha = pumped_hamiltonian(h, pump, res.threshold)
    rep = power_flows(res.threshold_mode, ha, pump, gamma=res.threshold)
    v = res.threshold_mode
    for j in range(8):
        direct = 2.0 * np.real(1j * (np.conj(h[j, j + 1]) - h[j + 1, j])
                               * np.conj(v[j + 1]) * v[j])
        assert rep.junction_gains[j] == pytest.approx(direct, abs=1e-15)
        assert rep.junction_gains[j] == pytest.approx(
            rep.flows_forward[j] + rep.flows_backward[j], abs=1e-15)


def test_power_balance_and_contrast(chain9):
    _, _, _, h, hpp = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    reports = {}
    for key, matrix in (("sel", h), ("std", hpp)):
        res = find_threshold(matrix, pump)
        ha = pumped_hamiltonian(matrix, pump, res.threshold)
        rep = power_flows(res.threshold_mode, ha, pump, gamma=res.threshold)
        assert np.all(rep.junction_gains < 0)
        assert rep.balance_residual <= 1e-8 * rep.max_term
        reports[key] = rep
    contrast = (np.abs(reports["std"].junction_gains).max()
                / np.abs(reports["sel"].junction_gains).max())
    assert contrast >= 5.0
