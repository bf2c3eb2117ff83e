"""Spectral certificates: reality, pseudo-Hermiticity, inner-product
positivity, exceptional-point structure, and the B-map correspondence.

A real chain (``eig.chain_form``: real tridiagonal, same-sign coupling
pairs) goes through its symmetric tridiagonal form T = D M D^-1.  There
``ep_analyze`` counts the cluster from T's eigenvalues and, for a cluster
of one eigenvalue, returns the eigenvector D^-1 phi once its residual
passes: an unreduced tridiagonal matrix is nonderogatory, so no Jordan
analysis is needed.  ``certify`` takes the singular values of a chain H0
as |eigenvalues|, and ``bmap_correspondence`` solves a chain H_e with one
``eigh_tridiagonal`` and applies a diagonal B elementwise.

Every other input, and a chain eigenvector that misses its residual bound,
takes the dense path.  The Jordan analysis never attempts a full-matrix
Jordan form: the target eigenvalue cluster is isolated into its invariant
subspace with a sorted Schur decomposition and the block structure is read
off rank tests of the restricted (nearly nilpotent) operator, which is
stable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .eig import (ChainForm, EigenSystem, _square_operator, _tridiagonal_product, _validated,
                  chain_form, collinearity_residual, eig_full)
from .model import (_is_diagonal, assert_hermitian, construct_product, hermitian_equivalent,
                    spectral_norm)


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

    def to_dict(self) -> dict:
        return {
            "max_imag": self.max_imag,
            "is_real": self.is_real,
            "pseudo_hermitian_residual": self.pseudo_hermitian_residual,
            "conjugate_pairs": [list(p) for p in self.conjugate_pairs],
            "pair_residuals": self.pair_residuals,
            "inner_products": [[z.real, z.imag] for z in self.inner_products],
            "matrix_norm": self.matrix_norm,
        }


def conjugate_pairs(eigenvalues: np.ndarray) -> tuple[list[tuple[int, int]], list[float]]:
    """Greedy matching of the spectrum against its complex conjugate.

    Every index ends up in exactly one pair; a real eigenvalue self-pairs
    (mu, mu).  The per-pair residual |w_mu - w_nu*| quantifies closure under
    conjugation.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    n = len(w)
    if not w.imag.any():
        # every self-pair costs 0 and wins its (cost, i, j) tie, repeats included
        return [(i, i) for i in range(n)], [0.0] * n
    # candidates (i <= j) in (cost, i, j) order; hypot matches scalar abs() bit for bit
    iu, ju = np.triu_indices(n)
    d = w[iu] - np.conj(w[ju])
    cost = np.hypot(d.real, d.imag)
    order = np.lexsort((ju, iu, cost))
    used = [False] * n
    free = n
    pairs, resid = [], []
    for i, j, c in zip(iu[order].tolist(), ju[order].tolist(), cost[order].tolist()):
        if used[i] or used[j]:
            continue
        used[i] = used[j] = True
        free -= 1 if i == j else 2
        pairs.append((i, j))
        resid.append(c)
        if not free:
            break
    pairs_sorted = sorted(zip(pairs, resid))
    return [p for p, _ in pairs_sorted], [r for _, r in pairs_sorted]


def certify(h: np.ndarray, h0: np.ndarray, es: EigenSystem | None = None,
            tol: Tolerances = DEFAULT) -> SpectralCertificate:
    """Certificate for H against the Hermitian factor H0 (metric H0^-1).

    The pseudo-Hermiticity residual ||H0^-1 H H0 - H^dag|| / ||H|| is
    reported as None when H0 is numerically singular (for a chain H0, the
    singular values are the moduli of its ``eigh_tridiagonal`` eigenvalues).
    """
    h = np.asarray(h, dtype=complex)
    h0 = assert_hermitian(h0, tol, "h0")
    if es is None:
        es = eig_full(h, tol)
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
    b = _square_operator(b, es, "B")
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

    def to_dict(self) -> dict:
        return {
            "target_energy": [self.target_energy.real, self.target_energy.imag],
            "algebraic_multiplicity": self.algebraic_multiplicity,
            "geometric_multiplicity": self.geometric_multiplicity,
            "ep_orders": self.ep_orders,
            "jordan_chains": [[[ [z.real, z.imag] for z in v] for v in chain]
                              for chain in self.jordan_chains],
            "chain_residuals": self.chain_residuals,
            "boundary_warning": self.boundary_warning,
            "matrix_norm": self.matrix_norm,
        }


def _orthobasis(columns: np.ndarray, tol_abs: float) -> np.ndarray:
    """Orthonormal basis of the column span (SVD, absolute threshold)."""
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0), dtype=complex)
    u, sv, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, sv > tol_abs]


def _nullspace(m: np.ndarray, tol_abs: float) -> np.ndarray:
    u, sv, vh = np.linalg.svd(m)
    rank = int(np.sum(sv > tol_abs))
    return vh[rank:].conj().T


def _chain_eigenvector(h: np.ndarray, form: ChainForm, k: int, target: complex,
                      ntol: float) -> tuple[np.ndarray, float] | None:
    """Unit eigenvector D^-1 phi_k of a chain and its residual
    ||(H - target) v||, or None when the residual exceeds ``ntol``."""
    try:
        _, phi = scipy.linalg.eigh_tridiagonal(form.diag, form.off, select="i",
                                               select_range=(k, k), check_finite=False)
    except np.linalg.LinAlgError:
        return None
    v = phi[:, 0] / form.d
    v = (v / np.linalg.norm(v)).astype(complex)
    resid = float(np.linalg.norm(_tridiagonal_product(h, v[:, None])[:, 0] - target * v))
    return (v, resid) if resid <= ntol else None


def ep_analyze(h: np.ndarray, target: complex = 0.0,
               tol: Tolerances = DEFAULT) -> EPReport:
    """Multiplicities and Jordan chains of the cluster at ``target``.

    The cluster is every eigenvalue within ``cluster_rel * ||H||`` of the
    target (for a real chain, the eigenvalues of its symmetric tridiagonal
    form).  A chain whose cluster holds one eigenvalue has geometric
    multiplicity 1 (an unreduced tridiagonal matrix is nonderogatory) and
    Jordan chain D^-1 phi, accepted when ||(H - target) v|| <=
    ``nullity_rel * ||H||``.  Otherwise the geometric multiplicity is the
    SVD nullity of H - target*I, block sizes come from rank tests of the
    Schur-restricted operator, and chains are built inside that invariant
    subspace then lifted back.

    Raises
    ------
    ValueError
        If H is not a finite, nonempty square matrix.
    IllConditionedError
        If the rank tests ask for more chain tops than the kernel holds.
    """
    h = _validated(h)
    n = h.shape[0]
    norm = max(spectral_norm(h), 1e-300)
    ctol = tol.cluster_rel * norm
    ntol = tol.nullity_rel * norm

    form = chain_form(h)
    if form is None:
        w = np.linalg.eigvals(h)
    else:
        w = scipy.linalg.eigh_tridiagonal(form.diag, form.off, eigvals_only=True,
                                          check_finite=False)
    dist = np.abs(w - target)
    algebraic = int(np.sum(dist <= ctol))
    boundary = bool(np.any((dist > ctol / 2) & (dist < 2 * ctol)))

    if form is not None and algebraic == 1:
        found = _chain_eigenvector(h, form, int(np.argmin(dist)), target, ntol)
        if found is not None:
            v, resid = found
            return EPReport(target_energy=complex(target), algebraic_multiplicity=1,
                            geometric_multiplicity=1, ep_orders=[1], jordan_chains=[[v]],
                            chain_residuals=resid, boundary_warning=boundary,
                            matrix_norm=norm)

    sv = np.linalg.svd(h - target * np.eye(n), compute_uv=False)
    geometric = int(np.sum(sv <= ntol))

    if algebraic == 0:
        return EPReport(target_energy=complex(target), algebraic_multiplicity=0,
                        geometric_multiplicity=geometric, ep_orders=[],
                        jordan_chains=[], chain_residuals=0.0,
                        boundary_warning=boundary, matrix_norm=norm)

    t, z, k = scipy.linalg.schur(h, output="complex",
                                 sort=lambda x: abs(x - target) <= ctol)
    if k != algebraic:
        # Schur sort and eigvals disagree right at the band edge
        boundary = True
    q = z[:, :k]
    nk = t[:k, :k] - target * np.eye(k)

    # rank sequence of the restricted nilpotent part -> block sizes
    ranks = [k]
    power = np.eye(k, dtype=complex)
    for _ in range(k):
        power = power @ nk
        ranks.append(int(np.sum(np.linalg.svd(power, compute_uv=False) > ntol)))
    geq = [ranks[p - 1] - ranks[p] for p in range(1, k + 1)]  # blocks of size >= p
    orders: list[int] = []
    for p in range(k, 0, -1):
        exact = geq[p - 1] - (geq[p] if p < k else 0)
        orders.extend([p] * exact)

    # chain tops, tallest first; carried images N^(q-p) w_q block lower levels
    kernels = {0: np.zeros((k, 0), dtype=complex)}
    power = np.eye(k, dtype=complex)
    for p in range(1, k + 1):
        power = power @ nk if p > 1 else nk.copy()
        kernels[p] = _nullspace(power, ntol)
    chains: list[list[np.ndarray]] = []
    carried: list[np.ndarray] = []
    pmax = orders[0] if orders else 0
    for p in range(pmax, 0, -1):
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
    worst = 0.0
    hm = h - target * np.eye(n)
    for chain in chains:
        worst = max(worst, np.linalg.norm(hm @ chain[0]) / np.linalg.norm(chain[0]))
        for i in range(1, len(chain)):
            err = np.linalg.norm(hm @ chain[i] - chain[i - 1])
            worst = max(worst, err / np.linalg.norm(chain[i - 1]))

    return EPReport(target_energy=complex(target), algebraic_multiplicity=algebraic,
                    geometric_multiplicity=geometric, ep_orders=orders,
                    jordan_chains=chains, chain_residuals=float(worst),
                    boundary_warning=boundary, matrix_norm=norm)


@dataclass
class BMapModeEntry:
    mu: int
    eigenvalue: complex
    mapped: bool            # B psi != 0, so the mode maps into H_e's space
    residual: float         # eigen-residual of the mapped vector (or inverse map)


@dataclass
class BMapReport:
    invertible: bool
    spectral_gap: float     # max sorted-spectrum mismatch between H and H_e
    entries: list[BMapModeEntry]

    gap_tol: float = field(repr=False)   # spectra_match_rel * ||H||

    @property
    def spectra_agree(self) -> bool:
        return self.spectral_gap <= self.gap_tol

    def to_dict(self) -> dict:
        return {"invertible": self.invertible, "spectral_gap": self.spectral_gap,
                "spectra_agree": self.spectra_agree,
                "entries": [{"mu": e.mu,
                             "eigenvalue": [e.eigenvalue.real, e.eigenvalue.imag],
                             "mapped": e.mapped, "residual": e.residual}
                            for e in self.entries]}


def bmap_correspondence(h0: np.ndarray, b: np.ndarray,
                        tol: Tolerances = DEFAULT) -> BMapReport:
    """Compare H = H0 B^dag B with its Hermitian partner H_e = B H0 B^dag.

    Their spectra agree; for invertible B every H_e eigenvector phi maps to
    an H eigenvector B^-1 phi, while for singular B every H mode with
    B psi != 0 maps forward to an H_e mode at the same eigenvalue.

    Invertibility is decided first (from |b_jj| for a diagonal B, else an
    SVD), then H_e is solved once: by ``eigh_tridiagonal`` when it is a
    chain, else by ``eigh`` (invertible B) or ``eigvalsh`` (singular B).
    A diagonal B is applied elementwise throughout.
    """
    b = np.asarray(b, dtype=complex)
    diagonal = _is_diagonal(b)
    if diagonal:
        bd = np.diagonal(b)
        a = np.diag(bd.conj() * bd)
        sv = np.abs(bd)
    else:
        a = b.conj().T @ b
        sv = np.linalg.svd(b, compute_uv=False)
    invertible = bool(sv.min() > tol.invertible_rel * max(sv.max(), 1e-300))
    h = construct_product(h0, a, tol)
    he = hermitian_equivalent(h0, b, tol)

    es = eig_full(h, tol)
    norm = max(es.matrix_norm, 1e-300)
    w = es.eigenvalues
    # H_e is exactly Hermitian, so a chain form has D = 1 and T's vectors are H_e's
    form = chain_form(he)
    if form is not None:
        solved = scipy.linalg.eigh_tridiagonal(form.diag, form.off, eigvals_only=not invertible,
                                               check_finite=False)
    else:
        solved = np.linalg.eigh(he) if invertible else np.linalg.eigvalsh(he)
    evals_e, vecs_e = solved if invertible else (solved, None)
    gap = float(np.abs(w[np.argsort(w.real)] - evals_e).max())     # evals_e ascending

    if invertible:
        mapped_back = vecs_e / bd[:, None] if diagonal else np.linalg.solve(b, vecs_e)
        nearest = np.argmin(np.abs(evals_e[None, :] - w.real[:, None]), axis=1)
        entries = []
        for mu, nu in enumerate(nearest):
            back = mapped_back[:, nu]
            res = collinearity_residual(back / np.linalg.norm(back), es.right(mu))
            entries.append(BMapModeEntry(mu=mu, eigenvalue=complex(w[mu]), mapped=True,
                                         residual=float(res)))
    else:
        psi = es.right_vectors / np.linalg.norm(es.right_vectors, axis=0)
        images = bd[:, None] * psi if diagonal else b @ psi
        image_norms = np.linalg.norm(images, axis=0)
        mapped = image_norms > tol.kernel_rel
        images = images / np.where(mapped, image_norms, 1.0)
        res = np.linalg.norm(he @ images - images * w, axis=0) / norm
        entries = [BMapModeEntry(mu=mu, eigenvalue=complex(w[mu]), mapped=bool(mapped[mu]),
                                 residual=float(res[mu]) if mapped[mu] else 0.0)
                   for mu in range(es.dim)]

    return BMapReport(invertible=invertible, spectral_gap=gap, entries=entries,
                      gap_tol=tol.spectra_match_rel * norm)
