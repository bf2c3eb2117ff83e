import numpy as np
import pytest

from nhlab.mech import (OscillatorChain, dynamical_matrix, eigenfrequencies,
                        integrate, spectral_peaks, stiffness_matrix, total_energy)
from nhlab.model import spectral_norm


def test_chain_validation():
    with pytest.raises(ValueError):
        OscillatorChain(n=2, masses=(1.0,))
    with pytest.raises(ValueError):
        OscillatorChain(n=2, masses=(1.0, -1.0))
    with pytest.raises(ValueError):
        OscillatorChain(n=1, masses=(1.0,), spring_k=0.0)


@pytest.mark.parametrize("bad, match", [
    ({"n": True}, "n True is not an integer"),
    ({"n": 2.0}, "n 2.0 is not an integer"),
    ({"masses": "ab"}, "masses 'ab' is not a list"),
    ({"masses": (1.0, "2")}, "mass '2' is not a real number"),
    ({"masses": (1.0, np.nan)}, "mass nan is not finite"),
    ({"masses": (1.0, np.inf)}, "mass inf is not finite"),
    ({"spring_k": np.inf}, "spring_k inf is not finite"),
    ({"spring_k": np.nan}, "spring_k nan is not finite"),
    ({"spring_k": "1"}, "spring_k '1' is not a real number"),
])
def test_chain_rejects_mistyped_fields(bad, match):
    with pytest.raises(ValueError, match=match):
        OscillatorChain(**{"n": 2, "masses": (1.0, 2.0), "spring_k": 1.0, **bad})


def test_chain_fields_stored_as_python_numbers():
    chain = OscillatorChain(n=np.int64(2), masses=np.array([1, 2]), spring_k=np.float32(0.5))
    assert (type(chain.n), chain.masses, type(chain.spring_k)) == (int, (1.0, 2.0), float)
    assert [type(m) for m in chain.masses] == [float, float]


def test_two_mass_matrix_and_eigenvalues():
    chain = OscillatorChain(n=2, masses=(1.0, 2.0), spring_k=1.0)
    m = dynamical_matrix(chain)
    assert np.array_equal(m.real, np.array([[-2.0, 1.0], [0.5, -1.0]]))
    lam = np.sort(np.linalg.eigvals(m).real)
    expected = np.sort([(-3 - np.sqrt(3)) / 2, (-3 + np.sqrt(3)) / 2])
    assert np.abs(lam - expected).max() < 1e-10
    freqs = eigenfrequencies(m)
    assert np.allclose(freqs, np.sqrt(-expected[::-1]), atol=1e-10)
    assert freqs[0] == pytest.approx(0.7962252170181258, abs=1e-9)
    assert freqs[1] == pytest.approx(1.5381890013208515, abs=1e-9)


def test_single_mass_frequency():
    chain = OscillatorChain(n=1, masses=(2.5,), spring_k=3.0)
    freqs = eigenfrequencies(dynamical_matrix(chain))
    assert freqs[0] == pytest.approx(np.sqrt(2 * 3.0 / 2.5), rel=1e-12)


def test_equal_masses_closed_form():
    n, mass, k = 7, 1.7, 2.0
    chain = OscillatorChain(n=n, masses=(mass,) * n, spring_k=k)
    m = dynamical_matrix(chain)
    assert np.abs(m - m.conj().T).max() < 1e-15     # Hermitian for equal masses
    lam = np.sort(np.linalg.eigvals(m).real)
    q = np.arange(1, n + 1)
    expected = np.sort(-4 * (k / mass) * np.sin(q * np.pi / (2 * (n + 1))) ** 2)
    assert np.abs(lam - expected).max() < 1e-12


def test_random_masses_real_nonpositive():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(1, 41))
        chain = OscillatorChain(n=n, masses=tuple(rng.uniform(0.2, 5.0, n)))
        lam = np.linalg.eigvals(dynamical_matrix(chain))
        scale = spectral_norm(dynamical_matrix(chain))
        assert np.abs(lam.imag).max() <= 1e-8 * scale
        assert lam.real.max() <= 1e-8 * scale


def test_mass_graded_equivalent_spectrum():
    rng = np.random.default_rng(23)
    n = 12
    chain = OscillatorChain(n=n, masses=tuple(rng.uniform(0.3, 4.0, n)))
    m = dynamical_matrix(chain)
    root = np.diag(1 / np.sqrt(np.array(chain.masses)))
    w = np.sort(np.linalg.eigvals(m).real)
    we = np.sort(np.linalg.eigvalsh(root @ stiffness_matrix(chain) @ root))
    assert np.abs(w - we).max() <= 1e-8 * spectral_norm(m)


def test_eigenfrequencies_reject_unstable():
    with pytest.raises(ValueError, match="positive eigenvalue"):
        eigenfrequencies(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(ValueError, match="non-real"):
        eigenfrequencies(np.array([[0, 1], [-1, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# integration oracle

@pytest.fixture(scope="module")
def random_chain():
    rng = np.random.default_rng(3)
    n = 5
    return OscillatorChain(n=n, masses=tuple(rng.uniform(0.5, 3.0, n)), spring_k=1.0)


def test_integrator_guard(random_chain):
    freqs = eigenfrequencies(dynamical_matrix(random_chain))
    with pytest.raises(ValueError, match="guard"):
        integrate(random_chain, np.zeros(5), np.zeros(5), dt=0.2 / freqs.max() * 10,
                  steps=10)


def test_single_mode_stays_pure(random_chain):
    m = dynamical_matrix(random_chain)
    lam, vecs = np.linalg.eig(m)
    idx = int(np.argsort(-lam.real)[2])
    x0 = np.real(vecs[:, idx])
    w_target = float(np.sqrt(-lam.real[idx]))
    freqs = eigenfrequencies(m)
    dt = 0.05 / freqs.max()
    steps = int(100 * 2 * np.pi / w_target / dt)
    traj = integrate(random_chain, x0, np.zeros(5), dt, steps)
    # shape preserved: every snapshot collinear with the initial mode
    k = steps // 3
    overlap = abs(traj.positions[k] @ x0) / (np.linalg.norm(traj.positions[k])
                                             * np.linalg.norm(x0))
    assert overlap > 1 - 1e-6
    # frequency recovered to 0.1% over 100 periods
    site = int(np.argmax(np.abs(x0)))
    peaks = spectral_peaks(traj.positions[:, site], dt, rel_floor=0.5)
    assert abs(peaks - w_target).min() / w_target < 1e-3


def test_energy_conservation(random_chain):
    rng = np.random.default_rng(4)
    freqs = eigenfrequencies(dynamical_matrix(random_chain))
    dt = 0.002 / freqs.max()
    traj = integrate(random_chain, rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5),
                     dt, 20000)
    energies = [total_energy(random_chain, traj.positions[k], traj.velocities[k])
                for k in range(0, 20000, 200)]
    energies = np.array(energies)
    assert (energies.max() - energies.min()) / energies.mean() <= 1e-6


def test_fourier_recovers_all_excited_frequencies(random_chain):
    rng = np.random.default_rng(5)
    m = dynamical_matrix(random_chain)
    freqs = eigenfrequencies(m)
    dt = 0.05 / freqs.max()
    steps = 1 << 15
    traj = integrate(random_chain, rng.uniform(-1, 1, 5), np.zeros(5), dt, steps)
    peaks = spectral_peaks(traj.positions[:, 0], dt, rel_floor=3e-2)
    resolution = 2 * np.pi / (steps * dt)
    for pk in peaks:
        assert np.abs(freqs - pk).min() <= max(1e-3 * freqs.max(), 2 * resolution)


def _reference_verlet(m, x, v, dt, steps):
    """The per-step velocity-Verlet loop, kept literally as the oracle."""
    xs = np.empty((steps, len(x)))
    vs = np.empty((steps, len(x)))
    acc = m @ x
    for i in range(steps):
        xs[i], vs[i] = x, v
        x = x + v * dt + 0.5 * acc * dt * dt
        acc_new = m @ x
        v = v + 0.5 * (acc + acc_new) * dt
        acc = acc_new
    return xs, vs


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 5, 1000, 4097, 1 << 15])
def test_integrate_matches_reference_loop(random_chain, steps):
    rng = np.random.default_rng(6)
    x0, v0 = rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
    m = dynamical_matrix(random_chain)
    dt = 0.05 / eigenfrequencies(m).max()
    traj = integrate(random_chain, x0, v0, dt, steps)
    xs, vs = _reference_verlet(m.real, x0, v0, dt, steps)
    assert traj.positions.shape == traj.velocities.shape == (steps, 5)
    assert np.array_equal(traj.times, np.arange(steps) * dt)
    if steps == 0:
        return
    assert np.array_equal(traj.positions[0], x0) and np.array_equal(traj.velocities[0], v0)
    assert np.abs(traj.positions - xs).max() <= 1e-10 * np.abs(xs).max()
    assert np.abs(traj.velocities - vs).max() <= 1e-10 * np.abs(vs).max()


@pytest.mark.parametrize("bad, match", [
    ({"dt": np.nan}, "dt"),
    ({"dt": np.inf}, "dt"),
    ({"dt": 0.0}, "dt"),
    ({"dt": -1e-3}, "dt"),
    ({"dt": -10.0}, "dt"),
    ({"steps": -1}, "steps"),
    ({"steps": 2.5}, "steps"),
    ({"steps": "10"}, "steps"),
    ({"x0": np.array([0.0, np.nan, 0.0, 0.0, 0.0])}, "finite"),
    ({"v0": np.array([0.0, 0.0, np.inf, 0.0, 0.0])}, "finite"),
    ({"x0": np.zeros(4)}, "length"),
    ({"v0": np.zeros((5, 1))}, "length"),
])
def test_integrate_rejects_bad_input_before_eigensolve(random_chain, monkeypatch, bad, match):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("input reached the eigensolve")

    monkeypatch.setattr("nhlab.mech.eigenfrequencies", no_eigensolve)
    args = {"x0": np.zeros(5), "v0": np.zeros(5), "dt": 1e-3, "steps": 10, **bad}
    with pytest.raises(ValueError, match=match):
        integrate(random_chain, **args)


def loop_peaks(signal, dt, rel_floor=1e-3):
    """Reference: the peak search as a loop over the FFT bins."""
    sig = np.asarray(signal, dtype=float)
    sig = sig - sig.mean()
    mag = np.abs(np.fft.rfft(sig * np.hanning(len(sig))))
    if mag.max() == 0:
        return np.array([])
    freqs = []
    for i in range(1, len(mag) - 1):
        if mag[i] >= rel_floor * mag.max() and mag[i] > mag[i - 1] and mag[i] >= mag[i + 1]:
            delta = 0.0
            if mag[i - 1] > 0 and mag[i + 1] > 0:
                la, lb, lc = np.log(mag[i - 1]), np.log(mag[i]), np.log(mag[i + 1])
                denom = la - 2 * lb + lc
                delta = 0.5 * (la - lc) / denom if denom != 0 else 0.0
            freqs.append((i + delta) * 2.0 * np.pi / (len(sig) * dt))
    return np.array(sorted(freqs))


@pytest.mark.parametrize("seed", range(8))
def test_spectral_peaks_equal_the_loop_over_bins(seed):
    # array expressions over the bins, bit for bit: noisy sums of sines, a
    # three-sample signal, and a pure tone on a bin, whose side bins are round-off
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    t = np.arange(n) * 0.1
    sig = sum(rng.uniform(0.1, 2) * np.sin(rng.uniform(0.1, 30) * t) for _ in range(4))
    cases = [sig + 1e-3 * rng.normal(size=n), sig[:3], np.cos(2 * np.pi * 4 * np.arange(64) / 64)]
    for x in cases:
        for floor in (1e-3, 0.5):
            assert np.array_equal(spectral_peaks(x, 0.1, floor), loop_peaks(x, 0.1, floor))
