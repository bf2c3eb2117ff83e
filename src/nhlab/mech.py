"""Coupled frictionless oscillator chains with unequal masses.

The second-order dynamics m_i x''_i = -2k x_i + k (x_{i-1} + x_{i+1}) with
fixed walls has the dynamical-matrix form x'' = M x with M = diag(1/m) M0,
M0 tridiagonal (-2k diagonal, k off-diagonals).  M is non-Hermitian for
unequal masses yet its spectrum is real and nonpositive; the eigenfrequencies
are sqrt(-lambda).  A velocity-Verlet integrator provides an independent
time-domain oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances, _integer, _positive, _real
from .model import _is_list, _matrix, norm_scale


@dataclass(frozen=True)
class OscillatorChain:
    """n masses joined by identical springs k, walls at both ends."""

    n: int
    masses: tuple[float, ...]
    spring_k: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        object.__setattr__(self, "spring_k", _positive(self.spring_k, "spring_k"))
        masses = self.masses
        if not (isinstance(masses, np.ndarray) and masses.dtype == float   # else mass by mass
                and masses.shape == (self.n,) and np.all((masses > 0) & (masses < np.inf))):
            if not _is_list(masses) or len(masses) != self.n:
                raise ValueError(f"masses {masses!r} is not a list of {self.n} masses")
            masses = np.array([_positive(m, "mass") for m in masses])
        object.__setattr__(self, "masses", tuple(masses.tolist()))


def stiffness_matrix(chain: OscillatorChain) -> np.ndarray:
    """Tridiagonal M0: -2k on the diagonal, k on the off-diagonals."""
    off = np.full(chain.n - 1, chain.spring_k)
    return np.diag(np.full(chain.n, -2.0 * chain.spring_k)) + np.diag(off, 1) + np.diag(off, -1)


def dynamical_matrix(chain: OscillatorChain) -> np.ndarray:
    """M = diag(1/m) M0; non-Hermitian whenever the masses differ."""
    inv_m = 1.0 / np.array(chain.masses)
    return (inv_m[:, None] * stiffness_matrix(chain)).astype(complex)


def eigenfrequencies(m: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """sqrt(-lambda) for each eigenvalue, ascending; for a (k, n, n) stack one row per
    matrix, each equal to its 2-D call.

    The spectrum is certified real and nonpositive first; violations beyond
    ``mech_spectrum_rel * ||M||`` (``norm_scale``) mean the matrix is not a
    physical chain, and for a stack the message starts with the stack index of
    the first such matrix.  A real M is solved in real arithmetic (``dgeev``).
    """
    m = _matrix(m, "m", stack=True)
    stack = m if m.ndim == 3 else m[None]
    lam = np.empty(stack.shape[:-1], dtype=complex)
    real = ~stack.imag.any(axis=(-2, -1))
    for rows, part in ((real, stack.real), (~real, stack)):
        if rows.any():
            lam[rows] = np.linalg.eigvals(part[rows])
    imag, top = np.abs(lam.imag).max(axis=-1), lam.real.max(axis=-1)
    limit = tol.mech_spectrum_rel * np.maximum(
        norm_scale(stack, np.maximum(imag, top), tol.mech_spectrum_rel), 1e-300)
    if (bad := (imag > limit) | (top > limit)).any():
        i = int(np.argmax(bad))
        where = f"stack index {i}: " if m.ndim == 3 else ""
        if imag[i] > limit[i]:
            raise ValueError(where + f"non-real eigenvalue (max |Im| = {imag[i]:.3e})")
        raise ValueError(where + f"positive eigenvalue {top[i]:.3e}: not a stable chain")
    freqs = np.sort(np.sqrt(-np.clip(lam.real, None, 0.0)), axis=-1)
    return freqs if m.ndim == 3 else freqs[0]


def total_energy(chain: OscillatorChain, x: np.ndarray, v: np.ndarray) -> float:
    """Kinetic plus spring energy, including the two wall springs."""
    k = chain.spring_k
    masses = np.array(chain.masses)
    kinetic = 0.5 * float((masses * v * v).sum())
    stretch = float(x[0] ** 2 + x[-1] ** 2 + ((x[1:] - x[:-1]) ** 2).sum()) if chain.n > 1 \
        else float(2.0 * x[0] ** 2)
    return kinetic + 0.5 * k * stretch


def _real_vector(v, name: str, n: int | None = None) -> np.ndarray:
    """A vector argument: finite by ``_matrix``'s rule, nonempty, of length n
    when given, and real (a nonzero imaginary part is refused, not dropped)."""
    v = _matrix(v, name, np.shape(v))
    if v.ndim != 1 or not v.size or n not in (None, v.size):
        raise ValueError(f"{name} must be a nonempty vector{f' of length {n}' if n else ''}, "
                         f"got shape {v.shape}")
    if v.imag.any():
        raise ValueError(f"{name} has a nonzero imaginary part")
    return v.real


@dataclass
class MechTrajectory:
    times: np.ndarray
    positions: np.ndarray       # shape (steps, n)
    velocities: np.ndarray


def integrate(chain: OscillatorChain, x0: np.ndarray, v0: np.ndarray,
              dt: float, steps: int, tol: Tolerances = DEFAULT) -> MechTrajectory:
    """Velocity-Verlet integration of x'' = M x.

    The per-site masses live inside M, so the update is symplectic for the
    physical phase space; energy errors stay bounded for any run length.
    The step must satisfy dt * max(omega) < integrator_guard.

    A step is the linear map z -> G z of z = (x, v), G = [[I + h^2 M/2, h I],
    [h M + h^3 M^2/4, I + h^2 M/2]]; the rows z_k = G^k z_0 are filled by
    block doubling, Z[k:2k] = Z[:k] (G^k)^T with G^k squared after each block.
    """
    n = chain.n
    x, v = _real_vector(x0, "x0", n), _real_vector(v0, "v0", n)
    dt, steps = _positive(dt, "dt"), _integer(steps, "steps", 0)
    m = dynamical_matrix(chain)
    omega_max = eigenfrequencies(m, tol).max()
    if dt * omega_max >= tol.integrator_guard:
        raise ValueError(f"dt * max omega = {dt * omega_max:.3f} exceeds the "
                         f"stability guard {tol.integrator_guard}")
    m = m.real  # chain matrices are real
    half = np.eye(n) + 0.5 * dt * dt * m
    gt = np.block([[half, dt * np.eye(n)],
                   [dt * m + 0.25 * dt ** 3 * (m @ m), half]]).T
    z = np.empty((steps, 2 * n))
    z[:1] = np.concatenate((x, v))
    k = 1
    while k < steps:
        j = min(k, steps - k)
        np.matmul(z[:j], gt, out=z[k:k + j])
        gt = gt @ gt
        k *= 2
    return MechTrajectory(times=np.arange(steps) * dt, positions=z[:, :n],
                          velocities=z[:, n:])


def spectral_peaks(signal: np.ndarray, dt: float, rel_floor: float = 1e-3) -> np.ndarray:
    """Angular frequencies of the spectral peaks of a real signal.

    Hann-windowed FFT magnitude; local maxima above ``rel_floor`` times the
    global peak are refined by quadratic interpolation of the log magnitude.
    """
    dt, rel_floor = _positive(dt, "dt"), _real(rel_floor, "rel_floor")
    sig = _real_vector(signal, "signal")
    mag = np.abs(np.fft.rfft((sig - sig.mean()) * np.hanning(len(sig))))
    if mag.max() == 0:
        return np.array([])
    i = 1 + np.flatnonzero((mag[1:-1] >= rel_floor * mag.max()) & (mag[1:-1] > mag[:-2])
                           & (mag[1:-1] >= mag[2:]))
    with np.errstate(divide="ignore", invalid="ignore"):   # zero neighbours are not refined
        la, lb, lc = np.log(mag[i - 1]), np.log(mag[i]), np.log(mag[i + 1])
        denom = la - 2 * lb + lc
        delta = np.where((mag[i - 1] > 0) & (mag[i + 1] > 0) & (denom != 0),
                         0.5 * (la - lc) / denom, 0.0)
    return (i + delta) * 2.0 * np.pi / (len(sig) * dt)
