"""Matrix builders for the product construction H = H0 * A.

A Hermitian tight-binding chain ``H0`` multiplied from the right by a
positive semi-definite scaling ``A`` yields a non-Hermitian matrix with a
provably real spectrum.  This module builds ``H0``, the diagonal scalings,
the product ``H = H0 A``, the similarity-transformed ``H'' = A^-1 H0 A``,
the PSD factor ``B`` (with ``B^dag B = A``), the Hermitian equivalent
``B H0 B^dag``, and spectral shifts.

Sites are 1-based in every user-facing field; arrays are 0-based inside.
All builders are pure functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances

_MASK64 = (1 << 64) - 1

ONSITE_KINDS = ("zero", "harmonic")
SCALING_KINDS = ("identity", "geometric", "random", "explicit")


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """Return ``count`` uniform draws in [0, 1) from the SplitMix64 stream.

    The generator is fixed so that seeded scalings are bit-reproducible
    across platforms: 64-bit SplitMix64 state updates, output mixed and
    truncated to the top 53 bits, mapped to [0, 1) by * 2^-53.
    """
    state = int(seed) & _MASK64
    out = np.empty(count, dtype=float)
    for i in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out[i] = (z >> 11) * 2.0**-53
    return out


@dataclass(frozen=True)
class LatticeSpec:
    """Declarative description of a chain Hamiltonian and its site scaling.

    Parameters
    ----------
    n : int
        Number of lattice sites (>= 1).
    t : float
        Nearest-neighbor coupling; must be nonzero.
    onsite : str
        "zero" or "harmonic".  The harmonic potential places
        ``w_j = [j - (n-1)/2]^2 * omega2 / 2`` on site j (1-based).
    omega2 : float
        Curvature of the harmonic potential (ignored for "zero").
    scaling : str
        "identity", "geometric" (a_j = s^(j-1)), "random" (a_j = 2(1-u_j)
        with u_j from the SplitMix64 stream, so a_j in (0, 2]), or
        "explicit" (a_j given verbatim).
    s : float
        Ratio of the geometric scaling (> 0).
    seed : int
        Seed of the random scaling stream.
    values : tuple of float, optional
        Explicit diagonal, length n.
    zeroed_sites : tuple of int
        1-based sites whose a_j is forced to 0 after the scaling is built.
    """

    n: int
    t: float = 1.0
    onsite: str = "zero"
    omega2: float = 0.0
    scaling: str = "identity"
    s: float = 1.0
    seed: int = 0
    values: tuple[float, ...] | None = None
    zeroed_sites: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.t == 0:
            raise ValueError("coupling t must be nonzero")
        if self.onsite not in ONSITE_KINDS:
            raise ValueError(f"onsite must be one of {ONSITE_KINDS}, got {self.onsite!r}")
        if self.scaling not in SCALING_KINDS:
            raise ValueError(f"scaling must be one of {SCALING_KINDS}, got {self.scaling!r}")
        if self.scaling == "geometric" and not self.s > 0:
            raise ValueError(f"geometric scaling needs s > 0, got {self.s}")
        if self.scaling == "explicit":
            if self.values is None or len(self.values) != self.n:
                raise ValueError("explicit scaling needs len(values) == n")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.scaling == "random" and not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "zeroed_sites", tuple(int(j) for j in self.zeroed_sites))
        for j in self.zeroed_sites:
            if not 1 <= j <= self.n:
                raise ValueError(f"zeroed site {j} outside 1..{self.n}")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"n": self.n, "t": self.t, "onsite": self.onsite,
                             "scaling": self.scaling}
        if self.onsite == "harmonic":
            d["omega2"] = self.omega2
        if self.scaling == "geometric":
            d["s"] = self.s
        if self.scaling == "random":
            d["seed"] = self.seed
        if self.scaling == "explicit":
            d["values"] = list(self.values)
        if self.zeroed_sites:
            d["zeroed_sites"] = list(self.zeroed_sites)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "LatticeSpec":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown lattice fields: {sorted(unknown)}")
        kwargs = dict(d)
        if "values" in kwargs and kwargs["values"] is not None:
            kwargs["values"] = tuple(kwargs["values"])
        if "zeroed_sites" in kwargs:
            kwargs["zeroed_sites"] = tuple(kwargs["zeroed_sites"])
        return cls(**kwargs)


# Smallest n at which a tridiagonal norm takes the banded route: below it one
# dense SVD is cheaper (at n = 9, 30 us against 82 us for the banded call).
BANDED_NORM_MIN_N = 32


def spectral_norm(m: np.ndarray) -> float:
    """2-norm used as the tolerance scale throughout.

    A square tridiagonal matrix with n >= ``BANDED_NORM_MIN_N`` takes the
    banded route of ``_tridiagonal_norm``; every other input, and a banded
    solve that fails, takes a dense SVD.  The size is tested first, so a
    small input pays nothing for the structure test.
    """
    m = np.asarray(m)
    if m.ndim == 2 and m.shape[0] >= BANDED_NORM_MIN_N and _is_tridiagonal(m):
        try:
            return _tridiagonal_norm(np.diagonal(m, -1), np.diagonal(m), np.diagonal(m, 1))
        except np.linalg.LinAlgError:
            pass
    return float(np.linalg.svd(m, compute_uv=False).max(initial=0.0))


def _tridiagonal_norm(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> float:
    """Largest singular value of the tridiagonal matrix with these diagonals.

    sigma_max = c sqrt(lambda_max(G^H G)) with G = M / c and c = max|m_ij|:
    G^H G is pentadiagonal Hermitian, and its top eigenvalue comes from one
    ``eigvals_banded`` call.  Without the scaling by c the squares of large
    couplings overflow in the banded solver.
    """
    c = max(np.abs(diag).max(), np.abs(sub).max(initial=0.0), np.abs(sup).max(initial=0.0))
    if c == 0:
        return 0.0
    if not any(np.any(x.imag) for x in (sub, diag, sup)):
        sub, diag, sup = sub.real, diag.real, sup.real    # the real band solver is ~5x faster
    lo, d, up = sub / c, diag / c, sup / c
    n = len(d)
    # upper band storage: row 2 the diagonal, row 1 (j-1, j), row 0 (j-2, j)
    band = np.zeros((3, n), dtype=np.result_type(d, 1.0))
    band[2] = np.abs(d) ** 2
    band[2, 1:] += np.abs(up) ** 2
    band[2, :-1] += np.abs(lo) ** 2
    band[1, 1:] = d[:-1].conj() * up + lo.conj() * d[1:]
    band[0, 2:] = lo[:-1].conj() * up[1:]
    top = scipy.linalg.eigvals_banded(band, select="i", select_range=(n - 1, n - 1),
                                      check_finite=False)
    return float(c * np.sqrt(max(top[0], 0.0)))


def hermitian_defect(m: np.ndarray) -> float:
    """Max-norm Hermiticity defect relative to the max entry (0 for m = 0)."""
    scale = np.abs(m).max()
    if scale == 0:
        return 0.0
    return float(np.abs(m - m.conj().T).max() / scale)


def assert_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT, name: str = "matrix") -> np.ndarray:
    """Validate the Hermitian tag and return an exactly-Hermitian copy.

    The returned storage satisfies ``out[i, j] == conj(out[j, i])`` bitwise,
    which makes the adjoint identity (H0 A)^dag == A H0 hold entrywise.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if hermitian_defect(m) > tol.hermitian_rel:
        raise ValueError(f"{name} is not Hermitian (defect {hermitian_defect(m):.3e})")
    return (m + m.conj().T) / 2


def assert_psd(m: np.ndarray, tol: Tolerances = DEFAULT, name: str = "matrix") -> np.ndarray:
    """Validate the PSD tag (Hermitian + eigenvalues >= -psd_rel * ||m||)."""
    m = assert_hermitian(m, tol, name)
    evals = np.linalg.eigvalsh(m)
    scale = max(spectral_norm(m), 1e-300)
    if evals.min() < -tol.psd_rel * scale:
        raise ValueError(f"{name} is not positive semi-definite "
                         f"(lowest eigenvalue {evals.min():.3e})")
    return m


def onsite_values(spec: LatticeSpec) -> np.ndarray:
    """On-site potential w_j per site (1-based j mapped to index j-1)."""
    if spec.onsite == "zero":
        return np.zeros(spec.n)
    j = np.arange(1, spec.n + 1, dtype=float)
    return (j - (spec.n - 1) / 2.0) ** 2 * spec.omega2 / 2.0


def build_h0(spec: LatticeSpec) -> np.ndarray:
    """Tridiagonal real-symmetric chain: diagonal w_j, off-diagonals t."""
    h = np.zeros((spec.n, spec.n), dtype=complex)
    np.fill_diagonal(h, onsite_values(spec))
    for j in range(spec.n - 1):
        h[j, j + 1] = spec.t
        h[j + 1, j] = spec.t
    return h


def scaling_values(spec: LatticeSpec) -> np.ndarray:
    """Diagonal a_j of the scaling, with zeroed_sites applied."""
    if spec.scaling == "identity":
        a = np.ones(spec.n)
    elif spec.scaling == "geometric":
        a = spec.s ** np.arange(spec.n, dtype=float)
    elif spec.scaling == "random":
        # 2(1-u) keeps the lower endpoint open: a_j in (0, 2]
        a = 2.0 * (1.0 - splitmix64_stream(spec.seed, spec.n))
    else:
        a = np.array(spec.values, dtype=float)
    a = a.copy()
    for j in spec.zeroed_sites:
        a[j - 1] = 0.0
    return a


def build_scaling(spec: LatticeSpec, allow_indefinite: bool = False) -> np.ndarray:
    """Diagonal scaling matrix A = diag(a_j).

    Explicit values containing negatives are rejected unless
    ``allow_indefinite`` is set (Hermitian-only studies).
    """
    a = scaling_values(spec)
    if not allow_indefinite and a.min() < 0:
        bad = [int(j + 1) for j in np.flatnonzero(a < 0)]
        raise ValueError(f"scaling has negative entries at sites {bad}; "
                         "pass allow_indefinite=True for a Hermitian-only study")
    return np.diag(a).astype(complex)


def _is_diagonal(m: np.ndarray) -> bool:
    """Every nonzero on the diagonal (counted in place, no n x n temporary)."""
    return bool(np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)))


def _is_tridiagonal(m: np.ndarray) -> bool:
    """Square, with every nonzero on the diagonal or next to it."""
    return bool(m.shape[0] == m.shape[1] and np.count_nonzero(m) == sum(
        np.count_nonzero(np.diagonal(m, k)) for k in (-1, 0, 1)))


def construct_product(h0: np.ndarray, a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """H = H0 A (this exact order; the reversed order A H0 equals H^dag).

    Both inputs must carry the Hermitian tag.  The contraction uses a fixed
    accumulation order so that (H0 A)^dag == A H0 holds exactly entrywise.
    """
    h0 = assert_hermitian(h0, tol, "h0")
    a = assert_hermitian(a, tol, "a")
    if h0.shape != a.shape:
        raise ValueError(f"dimension mismatch: {h0.shape} vs {a.shape}")
    if _is_diagonal(a):
        return h0 * np.diagonal(a)[None, :]
    return np.einsum("ik,kj->ij", h0, a)


def construct_gauge(h0: np.ndarray, a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Similarity transform H'' = A^-1 H0 A (spectrum equals H0's)."""
    h0 = np.asarray(h0, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if h0.shape != a.shape:
        raise ValueError(f"dimension mismatch: {h0.shape} vs {a.shape}")
    if _is_diagonal(a):
        d = np.diagonal(a)
        zero = np.flatnonzero(d == 0)
        if zero.size:
            raise ValueError("scaling is singular at sites "
                             f"{[int(j + 1) for j in zero]}; cannot gauge-transform")
        return (h0 * d[None, :]) / d[:, None]
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= tol.invertible_rel * sv[0]:
        raise ValueError("scaling is numerically singular; cannot gauge-transform")
    return np.linalg.solve(a, h0 @ a)


def factor_psd(a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Factor a PSD matrix as A = B^dag B and return B.

    For diagonal A the factor is diag(sqrt(a_j)) exactly; otherwise B is
    built from the Hermitian eigendecomposition, with the eigenvalues below
    ``psd_rel * max|lambda|`` (the round-off of a singular A, and the tiny
    negatives the PSD check admits) set to zero, so that B is singular
    exactly where A is.
    """
    a = np.asarray(a, dtype=complex)
    if _is_diagonal(a):
        d = np.diagonal(a).real
        if d.min() < -tol.psd_rel * max(np.abs(d).max(), 1e-300):
            raise ValueError(f"diagonal entries below PSD tolerance: min {d.min():.3e}")
        return np.diag(np.sqrt(np.clip(d, 0.0, None))).astype(complex)
    a = assert_psd(a, tol, "a")
    evals, vecs = np.linalg.eigh(a)
    evals[evals <= tol.psd_rel * np.abs(evals).max(initial=0.0)] = 0.0
    return (np.sqrt(evals)[:, None] * vecs.conj().T)


def hermitian_equivalent(h0: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Hermitian partner H_e = B H0 B^dag of the product construction."""
    h0 = assert_hermitian(h0, tol, "h0")
    b = np.asarray(b, dtype=complex)
    if h0.shape != b.shape:
        raise ValueError(f"dimension mismatch: {h0.shape} vs {b.shape}")
    if _is_diagonal(b):
        bd = np.diagonal(b)
        he = bd[:, None] * h0 * bd.conj()[None, :]
    else:
        he = b @ h0 @ b.conj().T
    return assert_hermitian(he, tol, "B H0 B^dag")


def shift_spectrum(h: np.ndarray, c: float) -> np.ndarray:
    """H + c*I; every eigenvalue moves by exactly c."""
    h = np.asarray(h, dtype=complex)
    return h + c * np.eye(h.shape[0])
