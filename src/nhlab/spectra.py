"""Spectral certificates: reality, pseudo-Hermiticity, inner-product
positivity, exceptional-point structure, and the B-map correspondence.

A real chain (``eig.chain_form``: real tridiagonal, same-sign coupling
pairs) goes through its symmetric tridiagonal form T = D M D^-1.  There
``ep_analyze`` takes T's eigenvalues near the target and their vectors
from one call and, for a cluster of one eigenvalue, returns the
eigenvector D^-1 phi once its residual passes: an unreduced tridiagonal
matrix is nonderogatory, so no Jordan analysis is needed.  ``certify``
takes the singular values of a chain H0 as |eigenvalues|, and
``bmap_correspondence`` takes a chain H_e's eigenvalues from one
``eigh_tridiagonal`` and applies a diagonal B elementwise.

Other input first tries to certify an empty cluster from one LU inverse X of
M = H - target*I: sigma_min(M) >= (1 - ||I - X M||_F - e) / ||X||_F, e a rounding
slack (``ep_analyze``).  Where that fails, and for a chain eigenvector that
misses its residual bound, a sorted Schur decomposition isolates the cluster
into its invariant subspace, and the Jordan structure is read off rank tests of
that (nearly nilpotent) block alone, which is stable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances, _complex
from .eig import EigenSystem, _tridiagonal_product, chain_form, eig_full
from .model import (_is_diagonal, _matrix, assert_hermitian, construct_product,
                    hermitian_equivalent, spectral_norm)


class CertificateError(RuntimeError):
    """A computed result violates an identity it is certified against."""


class IllConditionedError(RuntimeError):
    """A rank decision that the float64 noise floor of the matrix cannot make."""

    def __init__(self, message: str, n: int, matrix_norm: float, floor: float):
        super().__init__(f"{message} (n={n}, ||H||={matrix_norm:.3e}, "
                         f"floor nullity_rel*||H||={floor:.3e})")
        self.n = n
        self.matrix_norm = matrix_norm
        self.floor = floor


@dataclass
class SpectralCertificate:
    """Reality and pseudo-Hermiticity diagnostics of one matrix."""

    max_imag: float
    is_real: bool
    pseudo_hermitian_residual: float | None   # None when the metric is singular
    conjugate_pairs: list[tuple[int, int]]    # (mu, nu) with w_mu ~ w_nu*; mu == nu if real
    pair_residuals: list[float]
    inner_products: list[complex]             # unit-normalized psi~^T psi per mode
    matrix_norm: float


def _conjugate_matching(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(partner, residual) of every index of a spectrum or a stack of them (last axis),
    in the greedy matching of ``conjugate_pairs``: partner[mu] = nu and residual[mu] =
    |w_mu - w_nu*| for each pair, both ways.

    The greedy takes candidates in (cost, i, j) order, so a candidate that is the least
    of every candidate at both its ends is taken: each index's least, ties to the
    smaller index, is an argmin of its cost row, and the mutual ones are matched.  The
    indices left over repeat this among themselves (rarely more than once).
    """
    d = w[..., :, None] - np.conj(w)[..., None, :]
    cost = np.hypot(d.real, d.imag)      # symmetric, and scalar abs() bit for bit
    partner = np.argmin(cost, axis=-1)
    flat, costs = partner.reshape(-1, w.shape[-1]), cost.reshape(-1, *cost.shape[-2:])
    for i in np.flatnonzero((np.take_along_axis(flat, flat, -1) != np.arange(flat.shape[-1]))
                            .any(axis=-1)):
        p, c = flat[i], costs[i]
        free = np.flatnonzero(p[p] != np.arange(len(p)))
        while free.size:
            p[free] = free[np.argmin(c[np.ix_(free, free)], axis=1)]
            free = free[p[p[free]] != free]
    return partner, np.take_along_axis(cost, partner[..., None], -1)[..., 0]


def conjugate_pairs(eigenvalues: np.ndarray) -> tuple[list[tuple[int, int]], list[float]]:
    """Greedy matching of the spectrum against its complex conjugate.

    Every index ends up in exactly one pair; a real eigenvalue self-pairs
    (mu, mu).  The per-pair residual |w_mu - w_nu*| quantifies closure under
    conjugation.  Pairs come in the order of their first index.

    The particle-hole pairing w_nu = -w_mu* of a bipartite chain is the
    conjugate pairing of i*w: multiplying by 1j is exact in float64, so
    ``conjugate_pairs(1j * w)`` matches with the costs |w_mu + w_nu*|.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    n = len(w)
    if not w.imag.any():
        # every self-pair costs 0 and wins its (cost, i, j) tie, repeats included
        return [(i, i) for i in range(n)], [0.0] * n
    partner, resid = _conjugate_matching(w)
    first = np.flatnonzero(partner >= np.arange(n))
    return list(zip(first.tolist(), partner[first].tolist())), resid[first].tolist()


def certify(h: np.ndarray, h0: np.ndarray, es: EigenSystem,
            tol: Tolerances = DEFAULT) -> SpectralCertificate:
    """Certificate for H against the Hermitian factor H0 (metric H0^-1).

    The pseudo-Hermiticity residual ||H0^-1 H H0 - H^dag|| / ||H|| is
    reported as None when H0 is numerically singular (for a chain H0, the
    singular values are the moduli of its ``eigh_tridiagonal`` eigenvalues).
    H must have the shape of ``es``'s matrix, H0 that of H.
    """
    h = _matrix(h, "h", (es.dim, es.dim))
    h0 = assert_hermitian(h0, tol, "h0", h.shape)
    norm = es.matrix_norm
    max_imag = float(np.abs(es.eigenvalues.imag).max())
    pairs, resid = conjugate_pairs(es.eigenvalues)

    form = chain_form(h0)
    if form is None:
        sv = np.linalg.svd(h0, compute_uv=False)
    else:
        # h0 is exactly symmetric here, so D = 1 and sigma = |eigenvalue|
        sv = np.abs(scipy.linalg.eigh_tridiagonal(form.diag, form.off, eigvals_only=True,
                                                  check_finite=False))
    if sv.min() > tol.invertible_rel * max(sv.max(), 1e-300):
        lhs = np.linalg.solve(h0, h @ h0)
        metric_resid = float(spectral_norm(lhs - h.conj().T) / max(norm, 1e-300))
    else:
        metric_resid = None

    return SpectralCertificate(
        max_imag=max_imag,
        is_real=bool(max_imag <= tol.reality_rel * max(norm, 1e-300)),
        pseudo_hermitian_residual=metric_resid,
        conjugate_pairs=pairs,
        pair_residuals=resid,
        inner_products=[complex(z) for z in es.overlaps],
        matrix_norm=norm,
    )


@dataclass
class InnerProductEntry:
    mu: int
    value: float            # (A psi)^dag psi with psi at unit norm
    b_norm_sq: float        # ||B psi||^2, equal to value when A = B^dag B
    ep_candidate: bool      # ||B psi|| ~ 0: the only place an EP may hide


def inner_product_audit(es: EigenSystem, b: np.ndarray,
                        tol: Tolerances = DEFAULT) -> list[InnerProductEntry]:
    """Check the positivity identity psi~^T psi = ||B psi||^2 per mode.

    Uses the metric normalization psi~ = (A psi)* with A = B^dag B, under
    which the biorthogonal inner product is manifestly nonnegative.  Modes
    with B psi ~ 0 are flagged as the only admissible EP candidates.

    Raises
    ------
    CertificateError
        If the identity misses ``metric_rel`` (relative to max(||B psi||^2, 1)).
    """
    b = _matrix(b, "B", (es.dim, es.dim))
    psi = es.right_vectors / np.linalg.norm(es.right_vectors, axis=0)
    if _is_diagonal(b):
        bd = np.diagonal(b)[:, None]
        a_psi, b_psi = (bd.conj() * bd) * psi, bd * psi
    else:
        a_psi, b_psi = (b.conj().T @ b) @ psi, b @ psi
    values = np.real(np.sum(a_psi.conj() * psi, axis=0))
    bnorms = np.sum(np.abs(b_psi) ** 2, axis=0)
    bad = np.flatnonzero(np.abs(values - bnorms) > tol.metric_rel * np.maximum(bnorms, 1.0))
    if bad.size:
        mu = int(bad[0])
        raise CertificateError(f"inner-product identity violated at mode {mu}: "
                             f"{float(values[mu])} vs {float(bnorms[mu])}")
    return [InnerProductEntry(mu=mu, value=float(values[mu]), b_norm_sq=float(bnorms[mu]),
                              ep_candidate=bool(np.sqrt(bnorms[mu]) <= tol.kernel_rel))
            for mu in range(es.dim)]


@dataclass
class EPReport:
    """Jordan structure of an eigenvalue cluster at a target energy."""

    target_energy: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    ep_orders: list[int]                    # Jordan block sizes, descending
    jordan_chains: list[list[np.ndarray]]   # per block: v1..vk, (H-wI)v1 ~ 0
    chain_residuals: float
    boundary_warning: bool                  # an eigenvalue sits near the cluster edge
    matrix_norm: float


def _orthobasis(columns: np.ndarray, tol_abs: float) -> np.ndarray:
    """Orthonormal basis of the column span (SVD, absolute threshold)."""
    u, sv, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, sv > tol_abs]


def _nullspace(m: np.ndarray, tol_abs: float) -> np.ndarray:
    _, sv, vh = np.linalg.svd(m)
    return vh[int(np.sum(sv > tol_abs)):].conj().T


def _cluster_is_empty(hm: np.ndarray, radius: float) -> bool:
    """``ep_analyze``'s certificate that no eigenvalue of hm = H - target*I is within radius of 0."""
    try:
        x = np.linalg.inv(hm)
    except np.linalg.LinAlgError:
        return False
    with np.errstate(all="ignore"):      # a non-finite or zero norm fails the test
        xn, n = np.linalg.norm(x), hm.shape[0]
        if not 1.0 / xn > radius:      # the test below cannot pass: skip the product
            return False
        rn = np.linalg.norm(np.eye(n) - x @ hm)
        slack = (4 * (n + 2) * xn * np.linalg.norm(hm) + n * n) * np.finfo(float).eps
        return bool(rn + slack <= 0.5 and (1.0 - rn - slack) / xn > radius)


def ep_analyze(h: np.ndarray, target: complex = 0.0,
               tol: Tolerances = DEFAULT) -> EPReport:
    """Multiplicities and Jordan chains of the cluster at ``target``.

    The cluster is every eigenvalue within ctol = ``cluster_rel * ||H||`` of
    the target; a real chain takes those of its symmetric tridiagonal form within
    twice that of Re target, with their vectors, from one ``eigh_tridiagonal``
    call.  A chain whose cluster holds one eigenvalue has geometric
    multiplicity 1 (an unreduced tridiagonal matrix is nonderogatory) and
    Jordan chain D^-1 phi, accepted when ||(H - target) v|| <=
    ``nullity_rel * ||H||``.  Other input is certified empty where it can be,
    from one LU inverse X of M = H - target*I and no SVD: with R = I - X M,
    every eigenvalue has |lambda - target| >= sigma_min(M) >= (1 - ||R||_F - e)
    / ||X||_F if ||R||_F + e <= 1/2, and the empty report returns when that
    exceeds 2 ctol.  The slack e = (4 (n + 2) ||X||_F ||M||_F + n^2) eps is eight
    times the gamma_(n+2) bound on the rounding of X M (as ||X||_F ||M||_F >= 1/2,
    it also covers forming M and I - X M) plus that of the two norms.  Otherwise
    one sorted complex Schur decomposition counts the cluster and its diagonal
    sets the boundary warning; in the cluster's invariant subspace, with
    N = T_cluster - target*I, the geometric multiplicity is the nullity of N,
    block sizes come from the ranks of its powers, and chains are built inside
    that subspace then lifted back.

    Raises
    ------
    ValueError
        If H is not a finite, nonempty square matrix or target not finite.
    IllConditionedError
        If the sorted Schur decomposition fails, or the rank tests ask for
        more chain tops than the kernel holds.
    """
    h = _matrix(h)
    target = _complex(target, "target")
    n = h.shape[0]
    norm = max(spectral_norm(h), 1e-300)
    ctol = tol.cluster_rel * norm
    ntol = tol.nullity_rel * norm

    def report(algebraic, w, geometric=0, orders=(), chains=(), resid=0.0) -> EPReport:
        dist = np.abs(w - target)       # w: the eigenvalues that decide the boundary warning
        return EPReport(complex(target), algebraic, geometric, list(orders), list(chains), resid,
                        bool(np.any((dist > ctol / 2) & (dist < 2 * ctol))), norm)

    form = chain_form(h)
    if form is not None:
        try:
            w, phi = scipy.linalg.eigh_tridiagonal(
                form.diag, form.off, select="v", check_finite=False,
                select_range=(target.real - 2 * ctol, target.real + 2 * ctol))
        except np.linalg.LinAlgError:
            form = None
    if form is None and _cluster_is_empty(h - target * np.eye(n), 2 * ctol):
        return report(0, np.empty(0))   # nothing within 2 ctol
    if form is not None:
        dist = np.abs(w - target)
        algebraic = int(np.sum(dist <= ctol))
        if algebraic == 1:
            v = phi[:, np.argmin(dist)] / form.d
            v = (v / np.linalg.norm(v)).astype(complex)
            hv = _tridiagonal_product(*(np.diagonal(h, k) for k in (-1, 0, 1)), v[:, None])[:, 0]
            resid = float(np.linalg.norm(hv - target * v))
            if resid <= ntol:
                return report(1, w, 1, [1], [[v]], resid)
        if algebraic == 0:
            return report(0, w)

    try:
        t, z, k = scipy.linalg.schur(h, output="complex",
                                     sort=lambda x: abs(x - target) <= ctol)
    except np.linalg.LinAlgError as err:
        raise IllConditionedError(f"sorted Schur at target {complex(target)} with ctol "
                                  f"{ctol:.3e}: {err}", n, norm, ntol) from err
    if k == 0:
        return report(0, np.diagonal(t))
    q = z[:, :k]
    nk = t[:k, :k] - target * np.eye(k)

    # kernels of the powers of the restricted nilpotent part; their rank
    # sequence gives the block sizes
    kernels = [np.zeros((k, 0), dtype=complex)]
    power = np.eye(k, dtype=complex)
    for _ in range(k):
        power = power @ nk
        kernels.append(_nullspace(power, ntol))
    ranks = [k - kernel.shape[1] for kernel in kernels]
    geometric = kernels[1].shape[1]
    geq = [ranks[p - 1] - ranks[p] for p in range(1, k + 1)] + [0]  # blocks of size >= p
    orders = [p for p in range(k, 0, -1) for _ in range(geq[p - 1] - geq[p])]

    # chain tops, tallest first; carried images N^(q-p) w_q block lower levels
    chains: list[list[np.ndarray]] = []
    carried: list[np.ndarray] = []
    for p in range(max(orders, default=0), 0, -1):
        need = orders.count(p)
        picked = []
        if need:
            avoid = _orthobasis(np.hstack([kernels[p - 1]] +
                                          [c[:, None] for c in carried]), ntol)
            cand = kernels[p]
            resid = cand - avoid @ (avoid.conj().T @ cand) if avoid.size else cand
            u, svv, _ = np.linalg.svd(resid, full_matrices=False)
            if u.shape[1] < need:
                raise IllConditionedError(
                    f"Jordan analysis at {complex(target)}: rank sequence {ranks} asks for "
                    f"{need} chain top(s) of order {p} but only {u.shape[1]} kernel "
                    "direction(s) remain", n, norm, ntol)
            picked = [u[:, i] for i in range(need)]
            for wtop in picked:
                chain = [wtop]
                for _ in range(p - 1):
                    chain.append(nk @ chain[-1])
                chain.reverse()  # chain[0] is the eigenvector
                scale = np.linalg.norm(chain[0])
                chains.append([q @ (v / scale) for v in chain])
        carried = [nk @ c for c in carried] + [nk @ wtop for wtop in picked]

    # residual certificates on the lifted chains
    hm = h - target * np.eye(n)
    worst = max((np.linalg.norm(hm @ chain[i] - (chain[i - 1] if i else 0.0))
                 / np.linalg.norm(chain[max(i - 1, 0)])
                 for chain in chains for i in range(len(chain))), default=0.0)

    return report(k, np.diagonal(t), geometric, orders, chains, float(worst))


@dataclass
class BMapModeEntry:
    mu: int
    eigenvalue: complex
    mapped: bool            # B psi != 0, so the mode maps into H_e's space
    residual: float         # ||H_e u - w u|| / ||H|| of u = B psi / ||B psi|| (0 if unmapped)


@dataclass
class BMapReport:
    invertible: bool
    spectral_gap: float     # max sorted-spectrum mismatch between H and H_e
    entries: list[BMapModeEntry]

    gap_tol: float = field(repr=False)   # spectra_match_rel * ||H||

    @property
    def spectra_agree(self) -> bool:
        return self.spectral_gap <= self.gap_tol


def bmap_correspondence(h0: np.ndarray, b: np.ndarray,
                        tol: Tolerances = DEFAULT) -> BMapReport:
    """Compare H = H0 B^dag B with its Hermitian partner H_e = B H0 B^dag.

    H_e B = B H: the spectra agree, and each unit mode psi of H maps forward
    to an H_e mode B psi at the same eigenvalue.  It is mapped when
    ||B psi|| > ``kernel_rel`` (B psi = 0 forces H psi = 0, so only zero
    energy escapes), with residual ||H_e u - w u|| / ||H|| for
    u = B psi / ||B psi||.

    H0 is validated once, with B's shape.  A diagonal B builds H and H_e and
    acts elementwise, and its invertibility is read from |b_jj|, else from
    an SVD.  H_e is solved for eigenvalues only (the spectral gap), by
    ``eigh_tridiagonal`` on a chain, whose own bands form H_e u, else by
    ``eigvalsh``.
    """
    b = _matrix(b, "b")
    h0 = assert_hermitian(h0, tol, "h0", b.shape)
    diagonal = _is_diagonal(b)
    if diagonal:
        bd = np.diagonal(b)
        sv = np.abs(bd)
        # H0 A as construct_product forms it; b_i conj(b_j) keeps H_e exactly Hermitian
        h, he = h0 * (bd.conj() * bd), h0 * (bd[:, None] * bd.conj())
    else:
        sv = np.linalg.svd(b, compute_uv=False)
        h, he = construct_product(h0, b.conj().T @ b, tol), hermitian_equivalent(h0, b, tol)
    invertible = bool(sv.min() > tol.invertible_rel * max(sv.max(), 1e-300))

    es = eig_full(h, tol)
    norm = max(es.matrix_norm, 1e-300)
    w = es.eigenvalues
    form = chain_form(he)
    evals_e = (np.linalg.eigvalsh(he) if form is None else scipy.linalg.eigh_tridiagonal(
        form.diag, form.off, eigvals_only=True, check_finite=False))
    gap = float(np.abs(w[np.argsort(w.real)] - evals_e).max())     # evals_e ascending

    images = es.right_vectors / np.linalg.norm(es.right_vectors, axis=0)   # unit psi, then B psi
    images = np.multiply(images, bd[:, None], out=images) if diagonal else b @ images
    image_norms = np.linalg.norm(images, axis=0)
    mapped = image_norms > tol.kernel_rel
    images /= np.where(mapped, image_norms, 1.0)
    he_images = (he @ images if form is None else
                 _tridiagonal_product(*(np.diagonal(he, k) for k in (-1, 0, 1)), images))
    he_images -= np.multiply(images, w, out=images)
    res = np.where(mapped, np.linalg.norm(he_images, axis=0) / norm, 0.0)
    return BMapReport(invertible=invertible, spectral_gap=gap, entries=[
        BMapModeEntry(mu=mu, eigenvalue=x, mapped=m, residual=r)
        for mu, (x, m, r) in enumerate(zip(w.tolist(), mapped.tolist(), res.tolist()))],
        gap_tol=tol.spectra_match_rel * norm)
