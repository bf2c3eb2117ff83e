"""Lasing thresholds of lossy coupled-cavity chains under localized pumping.

Each site is a cavity with uniform loss kappa0 (a -i*kappa0 on the diagonal);
pumping adds +i*gamma on the pumped sites.  The threshold is the smallest
gamma at which some eigenvalue reaches the real axis, found by bracketing
and Illinois regula falsi on max Im(w) of the dense ``eigvals`` of M(gamma);
modes are followed in gamma by eigenvector overlap so the crossing mode can
be identified unambiguously.  A chain with a ``ChainForm`` is tracked on its
complex-symmetric form T(gamma) = D M(gamma) D^-1, whose modes are continued
from one pump strength to the next in O(n^2) (a first-order predictor and a
batched Rayleigh-quotient corrector), with an exact solve of T wherever a
step misses its certificate.  Power flows at the coupling junctions quantify
the exchange with the environment that sets the threshold scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs

from .config import DEFAULT, Tolerances
from .eig import chain_form
from .model import spectral_norm


class NoThresholdError(RuntimeError):
    """No eigenvalue crossed the real axis below gamma_max."""


class TrackingAmbiguityError(RuntimeError):
    """Eigenvector overlaps too close to call; a finer gamma grid is needed.

    When ``find_threshold`` had already converged before its tracking grid
    tied, ``threshold`` and ``bracket`` hold that root and its final bracket
    (None otherwise).
    """

    def __init__(self, message: str, threshold: float | None = None,
                 bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.threshold = threshold
        self.bracket = bracket


@dataclass(frozen=True)
class PumpSpec:
    """Uniform cavity loss plus a pump on selected sites (1-based)."""

    kappa0: float
    pumped_sites: tuple[int, ...]
    gamma: float = 0.0

    def __post_init__(self):
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be positive, got {self.kappa0}")
        if not self.pumped_sites:
            raise ValueError("pumped_sites must be nonempty")
        object.__setattr__(self, "pumped_sites",
                           tuple(int(j) for j in self.pumped_sites))
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")

    def to_dict(self) -> dict:
        return {"kappa0": self.kappa0, "pumped_sites": list(self.pumped_sites),
                "gamma": self.gamma}

    @classmethod
    def from_dict(cls, d: dict) -> "PumpSpec":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown pump fields: {sorted(unknown)}")
        kwargs = dict(d)
        kwargs["pumped_sites"] = tuple(kwargs["pumped_sites"])
        return cls(**kwargs)


def pump_indicator(pumped_sites: tuple[int, ...], n: int) -> np.ndarray:
    """0/1 site vector of the pumped sites (1-based), range-checked."""
    p = np.zeros(n)
    for j in pumped_sites:
        if not 1 <= j <= n:
            raise ValueError(f"pumped site {j} outside 1..{n}")
        p[j - 1] = 1.0
    return p


def pumped_hamiltonian(h: np.ndarray, pump: PumpSpec,
                       gamma: float | None = None) -> np.ndarray:
    """H - i*kappa0*I + i*gamma*P (loss and pump are purely diagonal)."""
    m = np.array(h, dtype=complex)
    g = pump.gamma if gamma is None else gamma
    np.fill_diagonal(m, m.diagonal() - 1j * pump.kappa0
                     + 1j * g * pump_indicator(pump.pumped_sites, m.shape[0]))
    return m


# fixed generic start vector of the inverse iteration (an all-ones start is
# nearly orthogonal to some modes of the uniform chain)
_START_SEED = 0x6E686C6162

# Rayleigh-quotient corrector steps per grid point before the exact solve
_CORRECTOR_STEPS = 3


class _PumpedChain:
    """The pumped matrices of one (h, pump): only the diagonal moves with gamma.

    ``eigvals`` and ``max_imag`` solve M(gamma) densely for the threshold
    search.  Tracking takes ``solve`` at the first grid point and ``step``
    at each later one.  When h has a ``ChainForm`` (from ``eig.chain_form``)
    both act on T(gamma) = D M(gamma) D^-1 = T - i*kappa0 + i*gamma*P, which
    has M's eigenvalues without its non-normality: ``solve`` is exact
    (``eigh_tridiagonal`` at gamma = 0, else ``eigvals`` plus inverse
    iteration) and ``step`` continues the previous modes (``_continue``),
    falling back to ``solve``.  Their vectors are the unit phi of T;
    ``right_vectors`` maps them to M's psi = phi / d.  Any other input is
    tracked on M by ``eig``: one ``eigvals`` call plus inverse iteration
    (``_tridiagonal_vectors``) for an unreduced tridiagonal h, and a dense
    ``np.linalg.eig`` for any other input or a vector that fails its
    residual certificate.
    """

    def __init__(self, h: np.ndarray, pump: PumpSpec, tol: Tolerances):
        self.h = h
        self.m = np.array(h, dtype=complex)
        n = self.n = self.m.shape[0]
        self.form = chain_form(self.m)
        self.kappa0 = pump.kappa0
        self.base = self.m.diagonal() - 1j * pump.kappa0
        self.p = pump_indicator(pump.pumped_sites, n)
        self.sub = np.diagonal(self.m, -1).copy()
        self.sup = np.diagonal(self.m, 1).copy()
        self.tridiagonal = (n > 1 and np.all(self.sub != 0) and np.all(self.sup != 0)
                            and not np.triu(self.m, 2).any()
                            and not np.tril(self.m, -2).any())
        self.tol = tol
        self._spectra: dict[float, np.ndarray] = {}
        if self.tridiagonal:
            rng = np.random.default_rng(_START_SEED)
            self.start = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def diagonal(self, gamma: float) -> np.ndarray:
        return self.base + 1j * gamma * self.p

    def matrix(self, gamma: float) -> np.ndarray:
        """The pumped matrix (a shared buffer, valid until the next call)."""
        np.fill_diagonal(self.m, self.diagonal(gamma))
        return self.m

    def eigvals(self, gamma: float) -> np.ndarray:
        """Spectrum of M at gamma, solved once: the threshold search and the
        tracking of an input without a ``ChainForm`` share their solves."""
        if gamma not in self._spectra:
            self._spectra[gamma] = np.linalg.eigvals(self.matrix(gamma))
        return self._spectra[gamma]

    def max_imag(self, gamma: float) -> float:
        return float(self.eigvals(gamma).imag.max())

    def eig(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        if self.tridiagonal:
            w = self.eigvals(gamma)
            v = _tridiagonal_vectors(self.sub, self.diagonal(gamma), self.sup, w,
                                     self.start, self.tol.residual_rel)
            if v is not None:
                return w, v
        w, v = np.linalg.eig(self.matrix(gamma))
        return w, v / np.linalg.norm(v, axis=0)

    def solve(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact spectrum and unit vectors: of T(gamma) for a chain, else of M."""
        if self.form is None:
            return self.eig(gamma)
        off, diag = self.form.off, self.diagonal(gamma)
        if gamma == 0:
            try:
                lam, phi = eigh_tridiagonal(self.form.diag, off, check_finite=False)
            except np.linalg.LinAlgError:
                pass    # the dense solve decides
            else:
                w, x = lam - 1j * self.kappa0, phi.T.astype(complex)
                if np.all(_residual_norms(off, diag, off, w, x)
                          <= self.tol.residual_rel * _column_norm(off, diag, off)):
                    return w, x.T
        t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        if gamma != 0:
            w = np.linalg.eigvals(t)
            v = _tridiagonal_vectors(off, diag, off, w, self.start, self.tol.residual_rel)
            if v is not None:
                return w, v
        w, v = np.linalg.eig(t)
        return w, v / np.linalg.norm(v, axis=0)

    def step(self, w: np.ndarray, v: np.ndarray, gamma0: float,
             gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """The tracked modes (w, v) at gamma0, solved again at gamma."""
        if self.form is None:
            return self.eig(gamma)
        moved = _continue(self.form.off, self.diagonal(gamma), self.p, w, v.T,
                          gamma - gamma0, self.tol)
        return moved if moved is not None else self.solve(gamma)

    def right_vectors(self, w: np.ndarray, v: np.ndarray, gamma: float) -> np.ndarray:
        """M's unit right vectors for the tracked modes (w, v) at gamma.

        For a chain, psi = unit(phi / d) after one more inverse-iteration
        step with the converged shifts: the corrector stops at its residual
        certificate, which can leave the vectors ~1e-13 short of round-off.
        """
        if self.form is None:
            return v
        x = v.T
        lu = _stacked_factors(self.form.off, self.diagonal(gamma), self.form.off, w)
        if lu is not None:
            with np.errstate(all="ignore"):
                y = _stacked_solve(lu, x)
            if np.all(np.isfinite(y)):
                x = y
        return _lapack_phase(x / self.form.d).T


def _stacked_factors(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                     w: np.ndarray) -> list | None:
    """One ``zgttrf`` for all shifted systems ``m - w_k`` of a tridiagonal m.

    The shifted matrices are the blocks of one length-(k n) tridiagonal
    system with zero couplings between blocks.  Returns the LU factors, or
    None when a pivot is exactly zero.
    """
    k, n = len(w), len(diag)
    dl, du = np.zeros((2, k, n), dtype=complex)
    dl[:, :-1], du[:, :-1] = sub, sup
    *lu, info = zgttrf(dl.ravel()[:-1], (diag[None, :] - w[:, None]).ravel(),
                       du.ravel()[:-1])
    return lu if info == 0 else None


def _stacked_solve(lu: list, x: np.ndarray) -> np.ndarray:
    """Solve every block of ``_stacked_factors`` for its row of x ([mode, site]),
    and rescale each solution by its max-abs entry (near-exact shifts give
    pivots as small as 1e-168, and a 2-norm of the raw iterate overflows)."""
    y, _ = zgttrs(*lu, x.reshape(-1, 1))
    y = y.reshape(x.shape)
    return y / np.abs(y).max(axis=1, keepdims=True)


def _tridiagonal_product(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                         x: np.ndarray) -> np.ndarray:
    """m x_k for every row x_k of x ([mode, site]), from m's three diagonals."""
    y = diag * x
    y[:, :-1] += sup * x[:, 1:]
    y[:, 1:] += sub * x[:, :-1]
    return y


def _residual_norms(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, w: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """||m x_k - w_k x_k|| for every row x_k of x ([mode, site])."""
    return np.linalg.norm(_tridiagonal_product(sub, diag, sup, x) - w[:, None] * x, axis=1)


def _column_norm(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> float:
    """Largest column 2-norm of a tridiagonal matrix, a lower bound on its norm."""
    col = np.abs(diag) ** 2
    col[:-1] += np.abs(sub) ** 2
    col[1:] += np.abs(sup) ** 2
    return float(np.sqrt(col.max()))


def _lapack_phase(x: np.ndarray) -> np.ndarray:
    """LAPACK's convention for the rows of x: unit 2-norm, largest entry real positive."""
    rows, big = np.arange(len(x)), np.abs(x).argmax(axis=1)
    x = x * (np.abs(x[rows, big]) / x[rows, big])[:, None]
    x[rows, big] = x[rows, big].real
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _tridiagonal_vectors(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray,
                         w: np.ndarray, start: np.ndarray,
                         residual_rel: float) -> np.ndarray | None:
    """Unit right vectors of a tridiagonal matrix at its eigenvalues ``w``.

    Two steps of inverse iteration for every shift at once, through one
    ``_stacked_factors`` and two ``_stacked_solve``.  Returns None when a
    pivot is exactly zero or some vector's residual exceeds
    ``residual_rel * ||m||`` (||m|| bounded below by its largest column norm).
    """
    lu = _stacked_factors(sub, diag, sup, w)
    if lu is None:
        return None
    x = np.tile(start, (len(w), 1))
    with np.errstate(all="ignore"):          # an overflow fails the certificate
        for _ in range(2):
            x = _stacked_solve(lu, x)
        x = _lapack_phase(x)
        res = _residual_norms(sub, diag, sup, w, x)
    if not np.all(res <= residual_rel * _column_norm(sub, diag, sup)):
        return None
    return x.T


def _continue(off: np.ndarray, diag: np.ndarray, p: np.ndarray, w: np.ndarray,
              phi: np.ndarray, dgamma: float, tol: Tolerances) -> tuple | None:
    """Every mode (w_k, phi_k) of a complex-symmetric tridiagonal T, continued
    over a pump step ``dgamma`` to T's new diagonal ``diag``.

    ``phi`` holds the modes as rows.  The predictor is first-order
    perturbation theory, dw = i dgamma (phi o phi)^T p / phi^T phi (T's left
    vectors are its right vectors).  The corrector is at most
    ``_CORRECTOR_STEPS`` steps of batched complex-symmetric Rayleigh-quotient
    iteration: one ``_stacked_solve`` for all modes, then
    w = x^T T x / x^T x.  Returns (w, unit vectors as columns), or None
    unless every residual is within ``residual_rel * c`` (c the largest
    column norm of T), the eigenvalues are pairwise more than
    ``cluster_rel * c`` apart, and |sum w - trace T| is within the residual
    bound.
    """
    c = _column_norm(off, diag, off)
    bound = tol.residual_rel * c
    with np.errstate(all="ignore"):          # a non-finite value fails a certificate
        sq = phi * phi
        w = w + 1j * dgamma * (sq @ p) / sq.sum(axis=1)
        x = phi
        for _ in range(_CORRECTOR_STEPS):
            lu = _stacked_factors(off, diag, off, w)
            if lu is None:
                return None
            x = _stacked_solve(lu, x)
            x = x / np.linalg.norm(x, axis=1, keepdims=True)
            tx = _tridiagonal_product(off, diag, off, x)
            w = np.sum(x * tx, axis=1) / np.sum(x * x, axis=1)
            if np.all(np.linalg.norm(tx - w[:, None] * x, axis=1) <= bound):
                break
        else:
            return None
        gaps = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(gaps, np.inf)
        if not (gaps.min() > tol.cluster_rel * c
                and abs(w.sum() - diag.sum()) <= bound):
            return None
    return w, x.T


@dataclass
class Trajectory:
    """Eigenvalues followed along a pump-strength grid.

    ``eigenvalues[k, mu]`` is mode mu at gammas[k]; mode identity is kept by
    maximal eigenvector overlap between consecutive grid points, starting
    from the (Re, Im)-sorted order at the first point.  ``zero_mode_index``
    flags the mode whose Re(w) stays pinned at zero, if there is exactly one.
    """

    gammas: np.ndarray
    eigenvalues: np.ndarray          # shape (len(gammas), n)
    final_vectors: np.ndarray        # eigenvectors at the last grid point
    zero_mode_index: int | None

    def mode(self, mu: int) -> np.ndarray:
        return self.eigenvalues[:, mu]


def _match_modes(overlaps: np.ndarray, margin: float, gamma: float) -> np.ndarray:
    """Greedy maximal-overlap permutation, ``overlaps[prev, new] >= 0``.

    Rows are served in order, each taking its largest unused column; a row
    whose best and second-best unused overlaps differ by less than
    ``margin * best`` raises TrackingAmbiguityError.  When every row's
    argmax is a distinct column and passes the margin test against its
    second-largest entry overall, the greedy result is that argmax, so it is
    returned without the loop.
    """
    n = overlaps.shape[0]
    best = overlaps.argmax(axis=1)
    if n == 1:
        return best
    top2 = np.partition(overlaps, n - 2, axis=1)[:, -2:]
    clear = ~((top2[:, 0] > 0) & (top2[:, 1] - top2[:, 0] < margin * top2[:, 1]))
    if clear.all() and np.unique(best).size == n:
        return best
    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)
    for prev in range(n):
        row = overlaps[prev].copy()
        row[used] = -1.0
        b = int(np.argmax(row))
        rest = row.copy()
        rest[b] = -1.0
        second = rest.max()
        if second > 0 and (row[b] - second) < margin * row[b]:
            raise TrackingAmbiguityError(
                f"overlap tie at gamma={gamma:.6g} "
                f"({row[b]:.4f} vs {second:.4f}); refine the grid")
        perm[prev] = b
        used[b] = True
    return perm


def _track(chain: _PumpedChain, gamma_grid: np.ndarray, tol: Tolerances) -> Trajectory:
    traj = np.zeros((len(gamma_grid), chain.n), dtype=complex)
    w, v = chain.solve(gamma_grid[0])
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    traj[0] = w

    for k in range(1, len(gamma_grid)):
        wn, vn = chain.step(w, v, gamma_grid[k - 1], gamma_grid[k])
        perm = _match_modes(np.abs(v.conj().T @ vn), tol.track_margin, gamma_grid[k])
        w, v = wn[perm], vn[:, perm]
        traj[k] = w

    norm = max(spectral_norm(chain.h), 1e-300)
    pinned = np.flatnonzero(np.abs(traj.real).max(axis=0) <= tol.zero_mode_rel * norm)
    zero_idx = int(pinned[0]) if len(pinned) == 1 else None
    return Trajectory(gammas=gamma_grid, eigenvalues=traj,
                      final_vectors=chain.right_vectors(w, v, gamma_grid[-1]),
                      zero_mode_index=zero_idx)


def track_mode(h: np.ndarray, pump: PumpSpec, gamma_grid: np.ndarray,
               tol: Tolerances = DEFAULT) -> Trajectory:
    """Follow every eigenvalue of the pumped Hamiltonian along the grid."""
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if len(gamma_grid) < 2 or np.any(np.diff(gamma_grid) <= 0) or gamma_grid[0] < 0:
        raise ValueError("gamma_grid must be ascending and start at >= 0")
    h = np.asarray(h, dtype=complex)
    return _track(_PumpedChain(h, pump, tol), gamma_grid, tol)


@dataclass
class ThresholdResult:
    """First real-axis crossing of the pumped spectrum."""

    threshold: float                  # pump strength at the crossing
    crossing_mode_index: int          # index in the tracked order
    threshold_mode: np.ndarray        # eigenvector, normalized to psi_1 = 1
    trajectory: Trajectory
    bracket: tuple[float, float]

    def to_dict(self) -> dict:
        return {"threshold": self.threshold,
                "crossing_mode_index": self.crossing_mode_index,
                "threshold_mode": [[z.real, z.imag] for z in self.threshold_mode],
                "bracket": list(self.bracket),
                "trajectory": {
                    "gammas": [float(g) for g in self.trajectory.gammas],
                    "crossing_mode": [[z.real, z.imag] for z in
                                      self.trajectory.mode(self.crossing_mode_index)],
                }}


def find_threshold(h: np.ndarray, pump: PumpSpec, tol: Tolerances = DEFAULT,
                   grid_points: int = 33) -> ThresholdResult:
    """Smallest gamma with max Im(w) = 0, by bracketing plus regula falsi.

    With f(gamma) = max Im w, the bracket starts at [0, kappa0] and doubles
    its top end until f(lo) < 0 < f(hi).  The root search keeps that
    invariant: each step takes the regula falsi (secant) point, halves the
    stored f of the end that survived two steps in a row (Illinois), and
    bisects when the secant point does not land strictly inside the bracket.
    It stops when |f| <= ``threshold_imag * kappa0`` and raises
    NoThresholdError when the bracket can no longer shrink.  Every f is
    taken from the dense ``eigvals`` of M(gamma).  The modes are then
    tracked on a grid ending at the threshold (on T(gamma) for a chain with a
    ``ChainForm``), whose last point gives the crossing mode.  A tie in that
    tracking raises TrackingAmbiguityError carrying the converged root and
    its bracket.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    k0 = pump.kappa0
    ftol = tol.threshold_imag * k0
    chain = _PumpedChain(h, pump, tol)

    def floor() -> str:
        return f"eps*||H|| = {np.finfo(float).eps * spectral_norm(h):.3e}"

    lo, f_lo = 0.0, chain.max_imag(0.0)
    if f_lo >= -ftol:
        raise NoThresholdError(f"n = {n}: max Im w = {f_lo:.3e} at gamma = 0, so the "
                               f"lossy chain is not below threshold ({floor()})")
    hi, f_hi = k0, chain.max_imag(k0)
    while f_hi < 0 and abs(f_hi) > ftol:
        lo, f_lo, hi = hi, f_hi, 2 * hi
        if hi > tol.gamma_max_factor * k0:
            raise NoThresholdError(
                f"no real-axis crossing below {tol.gamma_max_factor:g} * kappa0")
        f_hi = chain.max_imag(hi)

    gstar, f_star = hi, f_hi
    closest = min(-f_lo, abs(f_hi))
    side = 0                          # which end the last step moved
    while abs(f_star) > ftol:
        g = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < g < hi:
            g = 0.5 * (lo + hi)
        if not lo < g < hi:
            raise NoThresholdError(
                f"threshold search stalled at n = {n}: bracket [{lo!r}, {hi!r}] "
                f"cannot shrink; closest |max Im w| = {closest:.3e}, tolerance "
                f"{ftol:.3e}, {floor()}")
        gstar, f_star = g, chain.max_imag(g)
        closest = min(closest, abs(f_star))
        if f_star < 0:
            if side < 0:
                f_hi *= 0.5
            lo, f_lo, side = g, f_star, -1
        else:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, side = g, f_star, 1

    try:
        trajectory = _track(chain, np.linspace(0.0, gstar, grid_points), tol)
    except TrackingAmbiguityError as exc:
        raise TrackingAmbiguityError(
            f"{exc}; the threshold search had converged to gamma* = {gstar!r} "
            f"in the bracket [{lo!r}, {hi!r}]",
            threshold=float(gstar), bracket=(float(lo), float(hi))) from exc
    mode_idx = int(np.argmax(trajectory.eigenvalues[-1].imag))
    vec = trajectory.final_vectors[:, mode_idx]
    if abs(vec[0]) < 1e-12 * np.linalg.norm(vec):
        raise ValueError("threshold mode vanishes at site 1; "
                         "the psi_1 = 1 normalization is undefined")
    vec = vec / vec[0]
    vec[0] = 1.0                      # z / z need not round to exactly 1
    return ThresholdResult(threshold=float(gstar), crossing_mode_index=mode_idx,
                           threshold_mode=vec, trajectory=trajectory,
                           bracket=(float(lo), float(hi)))


@dataclass
class PowerFlowReport:
    """Steady-state power bookkeeping of one mode at threshold.

    ``junction_gains[j]`` is the net exchange with the environment at the
    coupling between sites j+1 and j+2 (1-based; centered at j + 3/2), zero
    for symmetric couplings.  ``balance_residual`` is |sum of all site terms
    and junction gains|, which vanishes at threshold.
    """

    junction_gains: np.ndarray
    site_terms: np.ndarray
    flows_forward: np.ndarray        # P_{j,j+1}: power into site j from j+1
    flows_backward: np.ndarray       # P_{j+1,j}: power into site j+1 from j
    balance_residual: float
    max_term: float

    def to_dict(self) -> dict:
        return {"junction_gains": [float(g) for g in self.junction_gains],
                "site_terms": [float(x) for x in self.site_terms],
                "flows_forward": [float(x) for x in self.flows_forward],
                "flows_backward": [float(x) for x in self.flows_backward],
                "balance_residual": self.balance_residual,
                "max_term": self.max_term}


def power_flows(mode: np.ndarray, h_a: np.ndarray, pump: PumpSpec,
                gamma: float | None = None) -> PowerFlowReport:
    """Junction gains and site gain/loss terms for a threshold mode.

    Couplings are the off-diagonal entries of the construction matrix (the
    loss and pump only touch the diagonal of ``h_a``).  The mode is
    normalized to psi_1 = 1, matching the junction-gain convention.
    """
    v = np.asarray(mode, dtype=complex)
    if abs(v[0]) == 0:
        raise ValueError("mode vanishes at site 1; cannot normalize psi_1 = 1")
    v = v / v[0]
    h_a = np.asarray(h_a, dtype=complex)
    n = len(v)
    g = pump.gamma if gamma is None else gamma

    gammas = g * pump_indicator(pump.pumped_sites, n)
    site_terms = 2.0 * (gammas - pump.kappa0) * np.abs(v) ** 2

    fwd = np.zeros(n - 1)
    bwd = np.zeros(n - 1)
    gains = np.zeros(n - 1)
    for j in range(n - 1):
        t_fwd = h_a[j, j + 1]        # t_{j,j+1}
        t_bwd = h_a[j + 1, j]        # t_{j+1,j}
        fwd[j] = 2.0 * np.real(1j * np.conj(t_fwd) * np.conj(v[j + 1]) * v[j])
        bwd[j] = 2.0 * np.real(1j * np.conj(t_bwd) * np.conj(v[j]) * v[j + 1])
        gains[j] = fwd[j] + bwd[j]

    residual = abs(site_terms.sum() + gains.sum())
    max_term = float(max(np.abs(site_terms).max(initial=0.0),
                         np.abs(gains).max(initial=0.0), 1e-300))
    return PowerFlowReport(junction_gains=gains, site_terms=site_terms,
                           flows_forward=fwd, flows_backward=bwd,
                           balance_residual=float(residual), max_term=max_term)
