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

from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances, _integer, _positive, _real, _record

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


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1


def _sites(value, name: str, n: int | None = None) -> tuple[int, ...]:
    """The one rule for a user-facing list of 1-based sites: a list, tuple or
    1-D array of integers >= 1 (in 1..n when n is given), stored as a tuple
    of int."""
    if not _is_list(value):
        raise ValueError(f"{name} {value!r} is not a list of sites")
    return tuple(_integer(j, name.replace("_sites", " site"), 1, n) for j in value)


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
        if self.onsite not in ONSITE_KINDS:
            raise ValueError(f"onsite must be one of {ONSITE_KINDS}, got {self.onsite!r}")
        if self.scaling not in SCALING_KINDS:
            raise ValueError(f"scaling must be one of {SCALING_KINDS}, got {self.scaling!r}")
        object.__setattr__(self, "n", _integer(self.n, "n", 1))
        seed_range = (0, _MASK64) if self.scaling == "random" else ()
        object.__setattr__(self, "seed", _integer(self.seed, "seed", *seed_range))
        for name in ("t", "omega2", "s"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        object.__setattr__(self, "zeroed_sites",
                           _sites(self.zeroed_sites, "zeroed_sites", self.n))
        if self.t == 0:
            raise ValueError("coupling t must be nonzero")
        if self.scaling == "geometric":
            _positive(self.s, "s")
        if self.scaling == "explicit":
            if not _is_list(self.values) or len(self.values) != self.n:
                raise ValueError("explicit scaling needs a list of n values")
            object.__setattr__(self, "values", tuple(_real(v, "value") for v in self.values))

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
        return _record(cls, d, "lattice", ("n",))


# Smallest n at which a tridiagonal norm takes the banded route: below it one
# dense SVD is cheaper (at n = 9, 30 us against 82 us for the banded call).
BANDED_NORM_MIN_N = 32


def spectral_norm(m: np.ndarray) -> float | np.ndarray:
    """2-norm used as the tolerance scale throughout.

    A square tridiagonal matrix with n >= ``BANDED_NORM_MIN_N`` takes the
    banded route of ``_tridiagonal_norm``; every other input, and a banded
    solve that fails, takes a dense SVD.  The size is tested first, so a
    small input pays nothing for the structure test.

    A stack of shape (..., n, n) gives an array of one norm per matrix,
    each equal to its 2-D call: below ``BANDED_NORM_MIN_N`` from one stacked
    SVD, from there on matrix by matrix.
    """
    m = np.asarray(m)
    if m.ndim > 2 and m.shape[-1] >= BANDED_NORM_MIN_N:
        flat = m.reshape(-1, *m.shape[-2:])
        return np.array([spectral_norm(x) for x in flat]).reshape(m.shape[:-2])
    if m.ndim == 2 and m.shape[0] >= BANDED_NORM_MIN_N and _is_tridiagonal(m):
        try:
            return _tridiagonal_norm(np.diagonal(m, -1), np.diagonal(m), np.diagonal(m, 1))
        except np.linalg.LinAlgError:
            pass
    norm = np.linalg.svd(m, compute_uv=False).max(axis=-1, initial=0.0)
    return float(norm) if m.ndim == 2 else norm


FLOOR_SLACK = 1e-8     # round-off of a norm bound: small multiples of n eps (backward stable)


def norm_scale(m: np.ndarray, values, rel: float) -> float | np.ndarray:
    """Scale s of each matrix of m (or a stack) for values <= rel * s: its largest column
    norm times 1 - FLOOR_SLACK where that decides, else (and if rel < 0) ``spectral_norm``."""
    scale = np.array(np.linalg.norm(m, axis=-2).max(axis=-1) * (1 - FLOOR_SLACK))
    if (doubt := ~(values <= rel * scale) | (rel < 0)).any():
        scale[doubt] = spectral_norm(m[doubt])
    return float(scale) if m.ndim == 2 else scale


def residual_norm(r: np.ndarray, m: np.ndarray, rel: float) -> tuple[np.ndarray, np.ndarray]:
    """(value, limit) of ||R||_2 <= rel * ||M||_2 over stacks r and m: value is the ceiling
    ||R||_F / (1 - FLOOR_SLACK) where it passes limit = rel * ``norm_scale``, else ``spectral_norm``."""
    value = np.linalg.norm(r, axis=(-2, -1)) / (1 - FLOOR_SLACK)
    limit = rel * norm_scale(m, value, rel)
    if (doubt := ~(value <= limit)).any():
        value[doubt] = spectral_norm(r[doubt])
    return value, limit


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


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(m.conj(), -1, -2)


def hermitian_defect(m: np.ndarray) -> float | np.ndarray:
    """Max-norm Hermiticity defect relative to the max entry (0 for m = 0).

    A stack of shape (..., n, n) gives an array of one defect per matrix.
    """
    m = np.asarray(m)
    scale = np.abs(m).max(axis=(-2, -1))
    # a zero matrix has a zero gap, so 0 / 1 gives its defect 0
    defect = np.abs(m - _adjoint(m)).max(axis=(-2, -1)) / np.where(scale == 0, 1.0, scale)
    return float(defect) if m.ndim == 2 else defect


def _matrix(m, name: str = "matrix", shape: tuple[int, ...] | None = None,
            stack: bool = False) -> np.ndarray:
    """The one rule for a matrix argument: a finite, nonempty, square complex
    array, or with ``stack`` a (k, n, n) stack of them; when ``shape`` (another
    input's) is given, a finite complex array of that shape.  Anything else is
    a ValueError that names the argument."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a numeric array") from None
    if shape is not None:
        if m.shape != shape:
            raise ValueError(f"dimension mismatch: {name} has shape {m.shape}, "
                             f"expected shape {shape}")
    elif m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got {m.shape}")
    elif m.size == 0:
        raise ValueError(f"{name} is empty, got {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def assert_hermitian(m: np.ndarray, tol: Tolerances = DEFAULT, name: str = "matrix",
                     shape: tuple[int, ...] | None = None) -> np.ndarray:
    """Validate a matrix argument (``_matrix``'s rule, stacks allowed) with
    the Hermitian tag and return an exactly-Hermitian copy.

    The returned storage satisfies ``out[i, j] == conj(out[j, i])`` bitwise.
    A (k, n, n) stack is validated and symmetrized matrix by matrix.
    """
    m = _matrix(m, name, shape, stack=True)
    adjoint = _adjoint(m)                    # moduli only for an inexact input:
    if (m != adjoint).any() and np.any((defect := hermitian_defect(m)) > tol.hermitian_rel):
        raise ValueError(f"{name} is not Hermitian (defect {np.nanmax(defect):.3e})")
    adjoint *= 0.5                           # in place on _adjoint's fresh copy: each term
    return m * 0.5 + adjoint                 # halved first, so entries above 8.99e307 stay finite


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
    j = np.arange(spec.n - 1)
    h[j, j + 1] = h[j + 1, j] = spec.t
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
    a[[j - 1 for j in spec.zeroed_sites]] = 0.0
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
    """Every nonzero on the diagonal, of every matrix of a stack (counted in
    place, no n x n temporary)."""
    return bool(np.count_nonzero(m) == np.count_nonzero(np.diagonal(m, axis1=-2, axis2=-1)))


def _is_tridiagonal(m: np.ndarray) -> bool:
    """Square, with every nonzero on the diagonal or next to it."""
    return bool(m.shape[0] == m.shape[1] and np.count_nonzero(m) == sum(
        np.count_nonzero(np.diagonal(m, k)) for k in (-1, 0, 1)))


def construct_product(h0: np.ndarray, a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """H = H0 A (this exact order; the reversed order A H0 equals H^dag).

    Both inputs must carry the Hermitian tag, A with H0's shape.  A diagonal A
    scales H0's columns; any other gives (H0 A + (A H0)^dag) / 2 from two BLAS
    products, halved before the sum (which then cannot overflow), so that
    (H0 A)^dag == A H0 holds exactly entrywise.  (k, n, n) stacks give the stack
    of products, each equal to its 2-D call when every A is diagonal or none is.
    """
    h0 = assert_hermitian(h0, tol, "h0")
    a = assert_hermitian(a, tol, "a", h0.shape)
    if _is_diagonal(a):
        return h0 * np.diagonal(a, axis1=-2, axis2=-1)[..., None, :]
    return h0 @ a * 0.5 + _adjoint(a @ h0 * 0.5)


def construct_gauge(h0: np.ndarray, a: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Similarity transform H'' = A^-1 H0 A (spectrum equals H0's) of two
    square matrices; a stack is refused."""
    h0 = _matrix(h0, "h0")
    a = _matrix(a, "a", h0.shape)
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

    For diagonal A the factor is diag(sqrt(a_j)) exactly.  Otherwise one
    ``eigh`` of the Hermitian-tagged A gives the PSD test (eigenvalues >=
    -psd_rel * max|lambda|, which is ||A||_2) and B, with the eigenvalues below
    ``psd_rel * max|lambda|`` (round-off of a singular A, and the tiny negatives
    the test admits) set to zero, so that B is singular exactly where A is.
    """
    a = _matrix(a, "a")
    if _is_diagonal(a):
        d = np.diagonal(a).real
        if d.min() < -tol.psd_rel * max(np.abs(d).max(), 1e-300):
            raise ValueError(f"diagonal entries below PSD tolerance: min {d.min():.3e}")
        return np.diag(np.sqrt(np.clip(d, 0.0, None))).astype(complex)
    evals, vecs = np.linalg.eigh(assert_hermitian(a, tol, "a"))
    if evals[0] < -tol.psd_rel * max(scale := np.abs(evals).max(), 1e-300):
        raise ValueError(f"a is not positive semi-definite (lowest eigenvalue {evals[0]:.3e})")
    evals[evals <= tol.psd_rel * scale] = 0.0
    return (np.sqrt(evals)[:, None] * vecs.conj().T)


def hermitian_equivalent(h0: np.ndarray, b: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Hermitian partner H_e = B H0 B^dag of the product construction (of
    each pair of a stack, B with H0's shape)."""
    h0 = assert_hermitian(h0, tol, "h0")
    b = _matrix(b, "b", h0.shape)
    if _is_diagonal(b):
        bd = np.diagonal(b, axis1=-2, axis2=-1)
        he = bd[..., :, None] * h0 * bd.conj()[..., None, :]
    else:
        he = b @ h0 @ _adjoint(b)
    return assert_hermitian(he, tol, "B H0 B^dag")


def shift_spectrum(h: np.ndarray, c: float) -> np.ndarray:
    """H + c*I; every eigenvalue moves by exactly c."""
    h = _matrix(h, "h")
    return h + _real(c, "c") * np.eye(h.shape[0])
