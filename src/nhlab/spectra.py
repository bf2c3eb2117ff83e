"""Spectral certificates: reality, pseudo-Hermiticity, inner-product
positivity, exceptional-point structure, and the B-map correspondence.

The Jordan analysis never attempts a full-matrix Jordan form: the target
eigenvalue cluster is isolated into its invariant subspace with a sorted
Schur decomposition and the block structure is read off rank tests of the
restricted (nearly nilpotent) operator, which is stable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances
from .eig import EigenSystem, collinearity_residual, eig_full
from .model import assert_hermitian, construct_product, hermitian_equivalent, spectral_norm


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
    reported as None when H0 is numerically singular.
    """
    h = np.asarray(h, dtype=complex)
    h0 = assert_hermitian(h0, tol, "h0")
    if es is None:
        es = eig_full(h, tol)
    norm = es.matrix_norm
    max_imag = float(np.abs(es.eigenvalues.imag).max())
    pairs, resid = conjugate_pairs(es.eigenvalues)

    sv = np.linalg.svd(h0, compute_uv=False)
    if sv[-1] > tol.invertible_rel * max(sv[0], 1e-300):
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
    """
    b = np.asarray(b, dtype=complex)
    a = b.conj().T @ b
    psi = es.right_vectors / np.linalg.norm(es.right_vectors, axis=0)
    values = np.real(np.sum((a @ psi).conj() * psi, axis=0))
    bnorms = np.sum(np.abs(b @ psi) ** 2, axis=0)
    bad = np.flatnonzero(np.abs(values - bnorms) > tol.metric_rel * np.maximum(bnorms, 1.0))
    if bad.size:
        mu = int(bad[0])
        raise AssertionError(f"inner-product identity violated at mode {mu}: "
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


def ep_analyze(h: np.ndarray, target: complex = 0.0,
               tol: Tolerances = DEFAULT) -> EPReport:
    """Multiplicities and Jordan chains of the cluster at ``target``.

    The cluster is every eigenvalue within ``cluster_rel * ||H||`` of the
    target; geometric multiplicity is the SVD nullity of H - target*I; block
    sizes come from rank tests of the Schur-restricted operator, and chains
    are built inside that invariant subspace then lifted back.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    norm = max(spectral_norm(h), 1e-300)
    ctol = tol.cluster_rel * norm
    ntol = tol.nullity_rel * norm

    w = np.linalg.eigvals(h)
    dist = np.abs(w - target)
    algebraic = int(np.sum(dist <= ctol))
    boundary = bool(np.any((dist > ctol / 2) & (dist < 2 * ctol)))

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
    """
    b = np.asarray(b, dtype=complex)
    a = b.conj().T @ b
    h = construct_product(h0, a, tol)
    he = hermitian_equivalent(h0, b, tol)

    es = eig_full(h, tol)
    norm = max(es.matrix_norm, 1e-300)
    w = es.eigenvalues
    evals_e = np.linalg.eigvalsh(he)
    order = np.argsort(w.real)
    gap = float(np.abs(w[order] - np.sort(evals_e)).max())

    sv = np.linalg.svd(b, compute_uv=False)
    invertible = bool(sv[-1] > tol.invertible_rel * max(sv[0], 1e-300))

    if invertible:
        _, vecs_e = np.linalg.eigh(he)
        mapped_back = np.linalg.solve(b, vecs_e)
        nearest = np.argmin(np.abs(evals_e[None, :] - w.real[:, None]), axis=1)
        entries = []
        for mu, nu in enumerate(nearest):
            back = mapped_back[:, nu]
            res = collinearity_residual(back / np.linalg.norm(back), es.right(mu))
            entries.append(BMapModeEntry(mu=mu, eigenvalue=complex(w[mu]), mapped=True,
                                         residual=float(res)))
    else:
        psi = es.right_vectors / np.linalg.norm(es.right_vectors, axis=0)
        images = b @ psi
        image_norms = np.linalg.norm(images, axis=0)
        mapped = image_norms > tol.kernel_rel
        images = images / np.where(mapped, image_norms, 1.0)
        res = np.linalg.norm(he @ images - images * w, axis=0) / norm
        entries = [BMapModeEntry(mu=mu, eigenvalue=complex(w[mu]), mapped=bool(mapped[mu]),
                                 residual=float(res[mu]) if mapped[mu] else 0.0)
                   for mu in range(es.dim)]

    return BMapReport(invertible=invertible, spectral_gap=gap, entries=entries,
                      gap_tol=tol.spectra_match_rel * norm)
