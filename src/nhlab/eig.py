"""Paired right/left eigensystems with biorthogonal normalization.

A real tridiagonal matrix whose coupling pairs m[i, i+1], m[i+1, i] are
nonzero with one sign (every real chain H0, H0 A, A^-1 H0 A of the product
construction with A > 0) is solved through its symmetric form
T = D M D^-1, with D diagonal: ``eigh_tridiagonal`` gives T = Phi w Phi^T,
and psi = D^-1 phi, psi~ = D phi are biorthogonal by construction.  Every
other matrix, and a chain whose pairs miss their certificate, takes the
dense path.

One dense LAPACK solve (``zgeev`` with both vector sets) returns right
vectors psi and left vectors psi~ = conj(vl), paired by index because both
come from the same Schur form (psi~^T M = w psi~^T).  Only a semisimple
multiplet, a cluster of eigenvalues whose index-paired overlap block is
invertible but not already biorthogonal, needs more: its left vectors are
biorthogonalized in place.  Inside a defective cluster (an EP) the index
pairing stands.  Biorthonormal pairs are rescaled so psi~^T psi = 1,
self-orthogonal pairs (EP candidates) are kept at unit 2-norm, and every
pair is rotated so the largest entry of psi is real positive.  Every
returned pair carries a residual certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .model import _is_diagonal, _is_tridiagonal, spectral_norm

BIORTHONORMAL = "biorthonormal"
SELF_ORTHOGONAL = "self_orthogonal"


class EigensolveError(RuntimeError):
    """Eigensolve failed to converge or missed its residual contract."""


@dataclass
class EigenSystem:
    """Eigenvalues with paired right/left eigenvectors (columns).

    ``eigenvalues`` are sorted by (Re, Im) ascending; ``left_vectors[:, mu]``
    satisfies psi~^T M = w_mu psi~^T and pairs ``right_vectors[:, mu]``.
    ``overlaps[mu]`` is psi~^T psi with both vectors at unit 2-norm (the
    self-orthogonality diagnostic); after construction, biorthonormal pairs
    are stored rescaled so that psi~^T psi = 1, and each pair is phased so
    the largest-modulus entry of psi is real positive.  ``residuals[mu]`` is
    the max of the right and left residual norms per unit eigenvector.
    """

    dim: int
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    norm_status: tuple[str, ...]
    overlaps: np.ndarray
    residuals: np.ndarray
    matrix_norm: float

    def right(self, mu: int) -> np.ndarray:
        return self.right_vectors[:, mu]

    def left(self, mu: int) -> np.ndarray:
        return self.left_vectors[:, mu]

    @property
    def all_biorthonormal(self) -> bool:
        return all(s == BIORTHONORMAL for s in self.norm_status)

    def to_dict(self) -> dict:
        def cvec(v):
            return [[float(z.real), float(z.imag)] for z in v]
        return {
            "dim": self.dim,
            "eigenvalues": cvec(self.eigenvalues),
            "right_vectors": [cvec(self.right_vectors[:, k]) for k in range(self.dim)],
            "left_vectors": [cvec(self.left_vectors[:, k]) for k in range(self.dim)],
            "norm_status": list(self.norm_status),
            "overlaps": cvec(self.overlaps),
            "residuals": [float(r) for r in self.residuals],
            "matrix_norm": self.matrix_norm,
        }


def _clusters(values: np.ndarray, tol_abs: float) -> list[list[int]]:
    """Connected components of |w_i - w_j| <= tol_abs (desk-scale O(n^2))."""
    n = len(values)
    seen = np.zeros(n, dtype=bool)
    out = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            k = stack.pop()
            comp.append(k)
            close = np.flatnonzero(~seen & (np.abs(values - values[k]) <= tol_abs))
            seen[close] = True
            stack.extend(close.tolist())
        out.append(sorted(comp))
    return out


def _unit_columns(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=0)


def _residuals(mv: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||M v - w v|| / ||v|| per column, given M v (overwritten in place)."""
    mv -= v * w
    return np.linalg.norm(mv, axis=0) / np.linalg.norm(v, axis=0)


def _condition(m: np.ndarray) -> float:
    sv = np.linalg.svd(m, compute_uv=False)
    return sv[0] / max(sv[-1], 1e-300)


def _biorthogonalize_cluster(comp: list[int], lhat: np.ndarray, rhat: np.ndarray,
                             tol: Tolerances) -> None:
    """Biorthogonalize the left vectors of one eigenvalue cluster, in place.

    Index pairing stands when the unit overlap block P = L^T R of the cluster
    is already biorthogonal (distinct eigenvalues lumped by the cluster
    tolerance) or singular (a defective cluster, an EP).  A semisimple
    multiplet (P invertible) gets L <- L P^-T.
    """
    block = lhat[:, comp].T @ rhat[:, comp]
    if np.abs(block - np.diag(np.diagonal(block))).max() <= tol.biorth:
        return
    if np.linalg.svd(block, compute_uv=False)[-1] >= tol.self_orth:
        lhat[:, comp] = _unit_columns(np.linalg.solve(block, lhat[:, comp].T).T)


@dataclass(frozen=True)
class ChainForm:
    """Symmetric tridiagonal form T = D M D^-1 of a real chain M.

    ``diag`` and ``off`` are T's diagonal and off-diagonal, ``d`` the
    diagonal of D: an eigenvector phi of T gives psi = phi / d (right) and
    psi~ = phi * d (left) of M.
    """

    diag: np.ndarray
    off: np.ndarray
    d: np.ndarray


def chain_form(m: np.ndarray) -> ChainForm | None:
    """The ``ChainForm`` of a real chain, or None.

    The off-diagonal of T is sign * sqrt|m[i, i+1]| * sqrt|m[i+1, i]| (square
    roots taken apart, so no product of couplings can overflow), and D comes
    from a log-space cumulative sum with its mean removed.  None when M is
    not real tridiagonal with n >= 2, a coupling pair has a zero or a sign
    flip, or D is not finite and positive.
    """
    n = m.shape[0]
    if n < 2 or m.imag.any():
        return None
    m = m.real
    sup, sub = np.diagonal(m, 1), np.diagonal(m, -1)
    if not np.all(np.sign(sup) * np.sign(sub) > 0) or not _is_tridiagonal(m):
        return None
    log_sup, log_sub = np.log(np.abs(sup)), np.log(np.abs(sub))
    log_d = np.concatenate(([0.0], np.cumsum((log_sup - log_sub) / 2)))
    d = np.exp(log_d - log_d.mean())
    if not np.all(np.isfinite(d) & (d > 0)):
        return None
    off = np.sign(sup) * np.sqrt(np.abs(sup)) * np.sqrt(np.abs(sub))
    return ChainForm(diag=np.diagonal(m).copy(), off=off, d=d)


def _tridiagonal_product(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for a tridiagonal M, from its three diagonals (v one column per mode)."""
    out = np.diagonal(m)[:, None] * v
    out[1:] += np.diagonal(m, -1)[:, None] * v[:-1]
    out[:-1] += np.diagonal(m, 1)[:, None] * v[1:]
    return out


def _validated(m: np.ndarray) -> np.ndarray:
    """The input as a complex array, or a ValueError if it is not a finite,
    nonempty square matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix is empty (0x0)")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _paired_system(m: np.ndarray, norm: float, w: np.ndarray, rhat: np.ndarray,
                   lhat: np.ndarray, tol: Tolerances, tridiagonal: bool = False) -> EigenSystem:
    """Normalize, phase and certify index-paired unit right/left vectors.

    For a ``tridiagonal`` M the residuals take O(n^2) from its diagonals.
    """
    n = m.shape[0]
    overlaps = np.sum(lhat * rhat, axis=0)
    self_orth = np.abs(overlaps) < tol.self_orth
    # split the rescaling symmetrically, principal branch
    scale = np.where(self_orth, 1.0, np.sqrt(overlaps))
    right, left = rhat / scale, lhat / scale
    top = right[np.argmax(np.abs(right), axis=0), np.arange(n)]
    phase = top / np.abs(top)
    right, left = right / phase, left * phase
    status = tuple(SELF_ORTHOGONAL if so else BIORTHONORMAL for so in self_orth)
    # residual certificates (per unit vector)
    product = _tridiagonal_product if tridiagonal else np.matmul
    residuals = np.maximum(_residuals(product(m, right), right, w),
                           _residuals(product(m.T, left), left, w))
    return EigenSystem(dim=n, eigenvalues=w, right_vectors=right, left_vectors=left,
                       norm_status=status, overlaps=overlaps, residuals=residuals,
                       matrix_norm=norm)


def _certified(es: EigenSystem, tol: Tolerances) -> bool:
    """Every residual within ``residual_rel * ||M||`` (a NaN fails)."""
    return bool(es.residuals.max() <= tol.residual_rel * max(es.matrix_norm, 1e-300))


def eig_full(m: np.ndarray, tol: Tolerances = DEFAULT) -> EigenSystem:
    """Full biorthogonal eigensystem of a dense complex matrix.

    Raises
    ------
    ValueError
        If M is not a finite, nonempty square matrix.
    EigensolveError
        If LAPACK fails to converge or a residual exceeds the certificate
        bound ``residual_rel * ||M||``.
    """
    m = _validated(m)
    n = m.shape[0]
    norm = spectral_norm(m)
    form = chain_form(m)
    if form is not None:
        try:
            w, phi = scipy.linalg.eigh_tridiagonal(form.diag, form.off, check_finite=False)
        except np.linalg.LinAlgError:
            pass    # the dense path decides
        else:
            phi = phi.astype(complex)
            d = form.d[:, None]
            es = _paired_system(m, norm, w.astype(complex), _unit_columns(phi / d),
                                _unit_columns(phi * d), tol, tridiagonal=True)
            if _certified(es, tol):
                return es

    try:
        w, vl, vr = scipy.linalg.eig(m, left=True, right=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigensolve failed for {n}x{n} matrix "
                              f"(||M||={norm:.3e}, cond={_condition(m):.3e}): {exc}") from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    rhat = _unit_columns(vr[:, order])
    lhat = _unit_columns(vl[:, order].conj())
    for comp in _clusters(w, tol.cluster_rel * norm):
        if len(comp) > 1:
            _biorthogonalize_cluster(comp, lhat, rhat, tol)

    es = _paired_system(m, norm, w, rhat, lhat, tol)
    if not _certified(es, tol):
        raise EigensolveError(f"eigenpair residual {es.residuals.max():.3e} exceeds "
                              f"{tol.residual_rel:.1e} * ||M|| = {tol.residual_rel * norm:.3e} "
                              f"(cond={_condition(m):.3e})")
    return es


@dataclass
class MetricPairEntry:
    """Eq.-of-motion pairing of one right mode through the scaling A."""

    mu: int
    nu: int | None           # index of the left vector proportional to (A psi_mu)*
    collinearity: float      # residual of that proportionality
    diagonal: bool           # nu == mu (real-spectrum signature)
    kernel: bool             # A psi_mu ~ 0 (zero-eigenvalue branch)


@dataclass
class MetricPairingReport:
    entries: list[MetricPairEntry]

    @property
    def all_diagonal(self) -> bool:
        return all(e.diagonal for e in self.entries if not e.kernel)

    def to_dict(self) -> dict:
        return {"entries": [{"mu": e.mu, "nu": e.nu, "collinearity": e.collinearity,
                             "diagonal": e.diagonal, "kernel": e.kernel}
                            for e in self.entries],
                "all_diagonal": self.all_diagonal}


def collinearity_residual(x: np.ndarray, y: np.ndarray) -> float:
    """min over complex c of ||x - c y|| / ||x|| (1.0 if y is zero)."""
    nx = np.linalg.norm(x)
    ny2 = np.vdot(y, y).real
    if nx == 0:
        return 0.0
    if ny2 == 0:
        return 1.0
    c = np.vdot(y, x) / ny2
    return float(np.linalg.norm(x - c * y) / nx)


def _square_operator(op: np.ndarray, es: EigenSystem, name: str) -> np.ndarray:
    """The operator as a complex array, or a ValueError naming both shapes
    when it does not act on the eigensystem's vectors."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (es.dim, es.dim):
        raise ValueError(f"{name} has shape {op.shape}, but the eigensystem's vectors "
                         f"have shape {es.right_vectors.shape}")
    return op


def apply_metric_pairing(es: EigenSystem, a: np.ndarray,
                         tol: Tolerances = DEFAULT) -> MetricPairingReport:
    """Locate, for each right mode, the left mode proportional to (A psi)*.

    For H = H0 A the conjugated image (A psi_mu)* is itself a left
    eigenvector with eigenvalue w_mu*; the permutation mu -> nu it induces is
    diagonal exactly when the spectrum is real.  Modes with A psi_mu ~ 0 are
    reported on the kernel branch (w_mu = 0).
    """
    a = _square_operator(a, es, "A")
    if _is_diagonal(a):
        images = np.diagonal(a)[:, None] * es.right_vectors
    else:
        images = a @ es.right_vectors
    kernel = (np.linalg.norm(images, axis=0)
              <= tol.kernel_rel * np.linalg.norm(es.right_vectors, axis=0))
    # the residual of (A psi_mu)* against psi~_nu is smallest where
    # |psi~_nu^T A psi_mu| / ||psi~_nu|| is largest
    gram = np.abs(es.left_vectors.T @ images)
    best = np.argmax(gram / np.linalg.norm(es.left_vectors, axis=0)[:, None], axis=0)
    entries = []
    for mu in range(es.dim):
        if kernel[mu]:
            entries.append(MetricPairEntry(mu=mu, nu=None, collinearity=0.0,
                                           diagonal=False, kernel=True))
            continue
        nu = int(best[mu])
        entries.append(MetricPairEntry(
            mu=mu, nu=nu, collinearity=collinearity_residual(images[:, mu].conj(), es.left(nu)),
            diagonal=(nu == mu), kernel=False))
    return MetricPairingReport(entries=entries)
