"""Paired right/left eigensystems with biorthogonal normalization.

A real chain (real tridiagonal, coupling pairs m[i, i+1], m[i+1, i] nonzero
with one sign: H0, H0 A and A^-1 H0 A with A > 0) is solved in real
arithmetic through its symmetric form T = D M D^-1 = U w U^T: psi = U / d
and psi~ = U * d take closed-form scales from their column norms, so
psi~^T psi = u^T u; each pair is signed so its largest |psi| entry is
positive and certified by one real tridiagonal product per side, and the
complex arrays are formed once, at the end.  A chain plus a uniform loss i c I
takes the same path with eigenvalues w + i c.  Every other matrix, and a chain
that misses its certificate, takes one dense ``zgeev`` solve with both
vector sets: psi and psi~ = conj(vl) pair by index (one Schur form).  Only a
semisimple multiplet (an invertible, non-biorthogonal overlap block) has its
left vectors biorthogonalized; inside a defective cluster (an EP) the index
pairing stands.  Biorthonormal pairs are rescaled so psi~^T psi = 1,
self-orthogonal pairs (EP candidates) keep unit 2-norm, and each pair is
rotated so the largest entry of psi is real positive and carries a residual
certificate.

``apply_metric_pairing`` takes nu = mu wherever (A psi_mu)* is collinear
with psi~_mu within ``metric_rel`` and forms the Gram only over the other
modes.  A (k, n, n) stack gives one system per matrix; all but the LAPACK
calls are array expressions over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .model import _is_diagonal, _is_tridiagonal, _matrix, spectral_norm

_SMLNUM = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps   # zgeev's smlnum, 6.7e-139
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


class EigenSystems(list):
    """The eigensystems of a stack, one per matrix, in stack order."""

    @property
    def norm_status(self) -> tuple[str, ...]:
        """Every mode's status, matrix after matrix."""
        return tuple(s for es in self for s in es.norm_status)


def _clusters(values: np.ndarray, tol_abs: float) -> list[list[int]]:
    """Connected components of |w_i - w_j| <= tol_abs, each sorted, in the
    order of their smallest members.

    Each index takes the smallest label among itself and its neighbours, then
    the label of that label, until no label moves; every index of a component
    then holds the component's smallest member.  Each round is one O(n^2)
    array pass, and pointer jumping keeps the rounds few on long chains.
    """
    n = len(values)
    close = np.abs(values[:, None] - values[None, :]) <= tol_abs
    label = np.arange(n)
    while True:
        nxt = np.minimum(label, np.where(close, label, n).min(axis=1, initial=n))
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    comps: dict[int, list[int]] = {}
    for i, root in enumerate(label.tolist()):
        comps.setdefault(root, []).append(i)
    return list(comps.values())


def _unit_columns(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-2)[..., None, :]


def _residuals(mv: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||M v - w v|| / ||v|| per column, given M v (overwritten in place)."""
    mv -= v * w[..., None, :]
    return np.linalg.norm(mv, axis=-2) / np.linalg.norm(v, axis=-2)


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


def _tridiagonal_product(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                         v: np.ndarray) -> np.ndarray:
    """T v for the tridiagonal T with diagonals (sub, diag, sup), one vector
    per column of v (for each matrix of a stack of diagonals and of v)."""
    out = diag[..., :, None] * v
    out[..., :-1, :] += sup[..., :, None] * v[..., 1:, :]
    out[..., 1:, :] += sub[..., :, None] * v[..., :-1, :]
    return out


def _systems(norm: np.ndarray, w: np.ndarray, right: np.ndarray, left: np.ndarray,
             self_orth: np.ndarray, overlaps: np.ndarray,
             residuals: np.ndarray) -> list[EigenSystem]:
    """One ``EigenSystem`` per matrix of the stacked arrays."""
    return [EigenSystem(dim=right.shape[-1], eigenvalues=w[i], right_vectors=right[i],
                        left_vectors=left[i], norm_status=tuple(
                            SELF_ORTHOGONAL if so else BIORTHONORMAL for so in self_orth[i]),
                        overlaps=overlaps[i], residuals=residuals[i], matrix_norm=float(norm[i]))
            for i in range(len(right))]


def _certified(es: EigenSystem, tol: Tolerances) -> bool:
    """Every residual within ``residual_rel * ||M||`` (a NaN fails)."""
    return bool(es.residuals.max() <= tol.residual_rel * max(es.matrix_norm, 1e-300))


def _stacked(arrays: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """The arrays as one stack (one array is not copied), each slice in its own
    layout: numpy sums a contiguous axis pairwise, so LAPACK's Fortran order
    keeps each column sum's round-off that of a lone matrix."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _chain_systems(stack: np.ndarray, norm: np.ndarray,
                   tol: Tolerances) -> dict[int, EigenSystem]:
    """Certified systems by stack index of each M = R + i c I, R a real chain and c = 0 or a
    uniform loss: R's, in real arithmetic, with eigenvalues w + i c and certified on M's own
    bands.  A chain whose ``eigh_tridiagonal`` fails or misses its certificate is left out."""
    solved = {}
    for i, m in enumerate(stack):
        c = m.imag[0, 0]               # a uniform loss: Im M == c I, its n nonzeros all c
        lossy = c and (m.imag.diagonal() == c).all() and np.count_nonzero(m.imag) == len(m)
        form = chain_form(m.real if lossy else m)
        try:
            if form is not None:
                w, u = scipy.linalg.eigh_tridiagonal(form.diag, form.off, check_finite=False)
                solved[i] = (form.d, w + 1j * c, u)
        except np.linalg.LinAlgError:
            pass    # the dense path decides
    if not solved:
        return {}
    index = list(solved)
    d, w, right = map(_stacked, zip(*solved.values()))
    left, right = right * d[..., None], right / d[..., None]
    # unit overlap 1 / (||u/d|| ||u*d||); scales sqrt(||u*d|| / ||u/d||)^(+-1) give u^T u
    nr, nl = np.linalg.norm(right, axis=-2), np.linalg.norm(left, axis=-2)
    overlaps = 1.0 / (nr * nl)
    self_orth = overlaps < tol.self_orth
    sign = np.sign(np.take_along_axis(right, np.argmax(np.abs(right), -2)[..., None, :], -2))
    right *= sign * np.where(self_orth, 1.0 / nr, np.sqrt(nl / nr))[..., None, :]
    left *= sign * np.where(self_orth, 1.0 / nl, np.sqrt(nr / nl))[..., None, :]
    bands = [np.diagonal(stack, k, -2, -1)[index] for k in (-1, 0, 1)]
    if not w.imag.any():                      # real chains: real arithmetic
        w, bands = w.real, [b.real for b in bands]
    residuals = np.maximum(_residuals(_tridiagonal_product(*bands, right), right, w),
                           _residuals(_tridiagonal_product(*bands[::-1], left), left, w))
    # both complex vector sets in one allocation, each slice in LAPACK's column order
    vectors = np.empty((2,) + right.shape, dtype=complex).swapaxes(-1, -2)
    vectors[0], vectors[1] = right, left
    systems = _systems(norm[index], w.astype(complex), *vectors, self_orth,
                       overlaps.astype(complex), residuals)
    return {i: es for i, es in zip(index, systems) if _certified(es, tol)}


def _dense_systems(stack: np.ndarray, norm: np.ndarray, index: list[int], tol: Tolerances,
                   prefix: str) -> dict[int, EigenSystem]:
    """Certified systems of the matrices ``index`` of the stack, by stack
    index, from one ``scipy.linalg.eig`` each.  Only a matrix with two
    eigenvalues within ``cluster_rel * ||M||`` has its clusters treated.  An
    ``EigensolveError`` message starts with ``prefix.format(i)``."""
    n = stack.shape[-1]
    solved = []
    for i in index:
        k = -max(np.frexp(norm[i])[1], -1000) if norm[i] < _SMLNUM else 0  # zgeev fails below
        try:
            wi, vli, vri = scipy.linalg.eig(np.ldexp(1.0, k) * stack[i] if k else stack[i],
                                            left=True, right=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(prefix.format(i) + f"eigensolve failed for {n}x{n} matrix "
                                  f"(||M||={norm[i]:.3e}, cond={_condition(stack[i]):.3e}): "
                                  f"{exc}") from exc
        solved.append((np.ldexp(1.0, -k) * wi if k else wi, np.conjugate(vli, out=vli), vri))
    w, vl, vr = map(_stacked, zip(*solved))
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    # gather on the transposed vectors, so every slice stays in LAPACK's Fortran order
    rhat, lhat = (_unit_columns(np.take_along_axis(v.swapaxes(-1, -2), order[..., None], -2)
                                .swapaxes(-1, -2)) for v in (vr, vl))
    lim = tol.cluster_rel * norm[index]
    close = np.abs(w[:, :, None] - w[:, None, :]) <= lim[:, None, None]
    for j in np.flatnonzero((close & ~np.eye(n, dtype=bool)).any(axis=(-2, -1))):
        for comp in _clusters(w[j], lim[j]):
            if len(comp) > 1:
                _biorthogonalize_cluster(comp, lhat[j], rhat[j], tol)
    # biorthonormal pairs rescaled symmetrically (principal branch), each phased and certified
    overlaps = np.sum(lhat * rhat, axis=-2)
    self_orth = np.abs(overlaps) < tol.self_orth
    scale = np.where(self_orth, 1.0, np.sqrt(overlaps))[..., None, :]
    right, left = rhat / scale, lhat / scale
    top = np.take_along_axis(right, np.argmax(np.abs(right), axis=-2)[..., None, :], axis=-2)
    phase = top / np.abs(top)
    right, left = right / phase, left * phase
    m = _stacked([stack[i] for i in index])
    residuals = np.maximum(_residuals(m @ right, right, w),
                           _residuals(m.swapaxes(-1, -2) @ left, left, w))
    systems = _systems(norm[index], w, right, left, self_orth, overlaps, residuals)
    for i, es in zip(index, systems):
        if not _certified(es, tol):
            raise EigensolveError(prefix.format(i) + f"eigenpair residual "
                                  f"{es.residuals.max():.3e} exceeds {tol.residual_rel:.1e} * "
                                  f"||M|| = {tol.residual_rel * norm[i]:.3e} "
                                  f"(cond={_condition(stack[i]):.3e})")
    return dict(zip(index, systems))


def eig_full(m: np.ndarray, tol: Tolerances = DEFAULT) -> EigenSystem | EigenSystems:
    """Full biorthogonal eigensystem of a dense complex matrix, or the list of
    one per matrix of a (k, n, n) stack, each equal to its matrix's own call.

    Raises
    ------
    ValueError
        If M is not a finite, nonempty square matrix or stack of them.
    EigensolveError
        If LAPACK fails to converge or a residual exceeds the certificate
        bound ``residual_rel * ||M||``; for a stack the message starts with
        the stack index of the matrix.
    """
    m = _matrix(m, stack=True)
    stack = m if m.ndim == 3 else m[None]
    norm = spectral_norm(stack)
    systems = _chain_systems(stack, norm, tol)
    dense = [i for i in range(len(stack)) if i not in systems]
    if dense:
        systems.update(_dense_systems(stack, norm, dense, tol,
                                      "stack index {}: " if m.ndim == 3 else ""))
    return EigenSystems(systems[i] for i in range(len(stack))) if m.ndim == 3 else systems[0]


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


def collinearity_residual(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """min over complex c of ||x - c y|| / ||x|| (0.0 if x is zero, else 1.0
    if y is zero).

    2-D x and y give one residual per column pair; 1-D vectors give a float.
    """
    x, y = np.asarray(x), np.asarray(y)
    nx = np.linalg.norm(x, axis=0)
    ny2 = np.sum(y.conj() * y, axis=0).real
    # a zero y gives c = 0 and a zero x a zero numerator: no 0/0 is formed
    c = np.sum(y.conj() * x, axis=0) / np.where(ny2 > 0, ny2, 1.0)
    res = np.linalg.norm(x - c * y, axis=0) / np.where(nx > 0, nx, 1.0)
    return float(res) if x.ndim == 1 else res


def apply_metric_pairing(es: EigenSystem, a: np.ndarray,
                         tol: Tolerances = DEFAULT) -> MetricPairingReport:
    """Locate, for each right mode, the left mode proportional to (A psi)*.

    For H = H0 A the conjugated image (A psi_mu)* is itself a left
    eigenvector with eigenvalue w_mu*; the permutation mu -> nu it induces is
    diagonal exactly when the spectrum is real.  Modes with A psi_mu ~ 0 are
    reported on the kernel branch (w_mu = 0).
    """
    a = _matrix(a, "A", (es.dim, es.dim))
    right, left = es.right_vectors, es.left_vectors
    images = np.diagonal(a)[:, None] * right if _is_diagonal(a) else a @ right
    kernel = np.linalg.norm(images, axis=0) <= tol.kernel_rel * np.linalg.norm(right, axis=0)
    # (A psi_mu)* is closest to the psi~_nu of largest |psi~_nu^T A psi_mu| / ||psi~_nu||; by
    # Cauchy-Schwarz only a psi~_nu within metric_rel of psi~_mu can beat a nu = mu that meets it
    best, coll = np.arange(es.dim), collinearity_residual(images.conj(), left)
    miss = np.flatnonzero(~kernel & ~(coll <= tol.metric_rel))
    gram = np.abs(left.T @ images[:, miss])
    best[miss] = np.argmax(gram / np.linalg.norm(left, axis=0)[:, None], axis=0)
    coll[miss] = collinearity_residual(images[:, miss].conj(), left[:, best[miss]])
    coll[kernel] = 0.0
    return MetricPairingReport(entries=[
        MetricPairEntry(mu=mu, nu=None if k else nu, collinearity=c,
                        diagonal=not k and nu == mu, kernel=k)
        for mu, (nu, c, k) in enumerate(zip(best.tolist(), coll.tolist(), kernel.tolist()))])
