"""Lasing thresholds of lossy coupled-cavity chains under localized pumping.

Each site is a cavity with uniform loss kappa0 (a -i*kappa0 on the diagonal);
pumping adds +i*gamma on the pumped sites.  The threshold is the smallest
gamma at which some eigenvalue reaches the real axis: a bracket and Illinois
regula falsi on max Im(w) of the dense ``eigvals`` of M(gamma).  A chain with
a ``ChainForm`` is worked on its complex-symmetric T(gamma) = D M(gamma) D^-1:
Newton's method on T's crossing mode proposes the bracket from kappa0 and the
root, and the modes are continued in order from one pump strength to the next
in O(n^2) (a first-order predictor, a Rayleigh-quotient corrector), with a
dense solve of T and an overlap match where a step misses its certificate.
Any other input is solved densely and matched by overlap at every grid point.
The threshold mode is taken at the root itself, by inverse iteration on T for
a chain.  Power flows at the coupling junctions quantify the exchange that
sets the threshold scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs

from .config import DEFAULT, Tolerances, _real
from .eig import _tridiagonal_product, chain_form
from .model import _integer, _matrix, _sites, spectral_norm


class NoThresholdError(RuntimeError):
    """No eigenvalue crossed the real axis below gamma_max."""


class TrackingAmbiguityError(RuntimeError):
    """Eigenvector overlaps too close to call in ``track_mode``; a finer gamma
    grid is needed."""


@dataclass(frozen=True)
class PumpSpec:
    """Uniform cavity loss plus a pump on selected sites (1-based); the pump
    strength gamma is an argument of each function that applies it."""

    kappa0: float
    pumped_sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kappa0", _real(self.kappa0, "kappa0"))
        object.__setattr__(self, "pumped_sites", _sites(self.pumped_sites, "pumped_sites"))
        if not self.kappa0 > 0:
            raise ValueError(f"kappa0 must be positive, got {self.kappa0}")
        if not self.pumped_sites:
            raise ValueError("pumped_sites must be nonempty")

    @classmethod
    def from_dict(cls, d: dict) -> "PumpSpec":
        names = {f.name for f in fields(cls)}
        if set(d) - names:
            raise ValueError(f"unknown pump fields: {sorted(set(d) - names)}")
        if names - set(d):
            raise ValueError(f"missing pump fields: {sorted(names - set(d))}")
        return cls(**d)


def pump_indicator(pumped_sites: tuple[int, ...], n: int) -> np.ndarray:
    """0/1 site vector of the pumped sites (1-based integers), range-checked."""
    p = np.zeros(n)
    for site in pumped_sites:
        j = _integer(site, "pumped site")
        if not 1 <= j <= n:
            raise ValueError(f"pumped site {j} outside 1..{n}")
        p[j - 1] = 1.0
    return p


def pumped_hamiltonian(h: np.ndarray, pump: PumpSpec, gamma: float) -> np.ndarray:
    """H - i*kappa0*I + i*gamma*P (loss and pump are purely diagonal)."""
    m = _matrix(h, "h").copy()
    np.fill_diagonal(m, m.diagonal() - 1j * pump.kappa0
                     + 1j * _real(gamma, "gamma") * pump_indicator(pump.pumped_sites, len(m)))
    return m


# Rayleigh-quotient corrector steps per grid point before the exact solve
_CORRECTOR_STEPS = 3

# inverse-iteration plus Newton steps of _PumpedChain.t_root
_NEWTON_STEPS = 20


class _PumpedChain:
    """The pumped matrices of one (h, pump): only the diagonal moves with gamma.

    ``top`` takes the dense ``eigvals`` of M(gamma) for the threshold
    search.  When h has a ``ChainForm`` (from ``eig.chain_form``) the rest
    acts on T(gamma) = D M(gamma) D^-1 = T - i*kappa0 + i*gamma*P, which has
    M's eigenvalues without its non-normality: ``t_root`` proposes the root,
    ``solve`` is exact (``eigh_tridiagonal`` at gamma = 0 if its residuals
    certify, else a dense ``np.linalg.eig`` of T), ``step`` continues the
    tracked modes in their order (``_continue``) and ``right_vector`` takes
    one mode by inverse iteration on T and maps it to M's psi = phi / d.  Any
    other input has no ``step``: ``solve`` takes a dense ``np.linalg.eig``
    of M at every point.
    """

    def __init__(self, h: np.ndarray, pump: PumpSpec, tol: Tolerances):
        self.h = _matrix(h, "h")
        self.n = self.h.shape[0]
        self.form = chain_form(self.h)
        self.pump = pump
        self.base = self.h.diagonal() - 1j * pump.kappa0
        self.p = pump_indicator(pump.pumped_sites, self.n)
        self.tol = tol

    def diagonal(self, gamma: float) -> np.ndarray:
        return self.base + 1j * gamma * self.p

    def top(self, gamma: float) -> complex:
        """The eigenvalue of largest Im w of M(gamma), from a dense ``eigvals``."""
        w = np.linalg.eigvals(pumped_hamiltonian(self.h, self.pump, gamma))
        return complex(w[w.imag.argmax()])

    def solve(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact spectrum and unit vectors: of T(gamma) for a chain, else of M."""
        if self.form is None:
            a = pumped_hamiltonian(self.h, self.pump, gamma)
        else:
            off, diag = self.form.off, self.diagonal(gamma)
            if gamma == 0:
                try:
                    lam, phi = eigh_tridiagonal(self.form.diag, off, check_finite=False)
                except np.linalg.LinAlgError:
                    pass    # the dense solve decides
                else:
                    w, x = lam - 1j * self.pump.kappa0, phi.T.astype(complex)
                    tx = _tridiagonal_product(off, diag, off, x.T).T
                    res = np.linalg.norm(tx - w[:, None] * x, axis=1)
                    if np.all(res <= self.tol.residual_rel * _column_norm(off, diag)):
                        return w, x.T
            a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        w, v = np.linalg.eig(a)
        return w, v / np.linalg.norm(v, axis=0)

    def step(self, w: np.ndarray, v: np.ndarray, gamma0: float, gamma: float) -> tuple | None:
        """The tracked modes (w, v) at gamma0 continued to gamma in their order;
        None without a ``ChainForm`` or when the step misses its certificate."""
        return None if self.form is None else _continue(
            self.form.off, self.diagonal(gamma), self.p, w, v.T, gamma - gamma0, self.tol)

    def t_root(self, gamma: float, w: complex) -> float:
        """Root of Im w of T's mode w at gamma by Newton's method, NaN on a
        breakdown: two inverse-iteration steps on T(gamma) for its vector, then
        steps gamma -= Im w / Re(phi^T P phi / phi^T phi) (the Hellmann-Feynman
        slope), each followed by one O(n) Rayleigh-quotient step on T(gamma)."""
        off, x = self.form.off, np.linspace(1.0, 2.0, self.n)[None].astype(complex)
        with np.errstate(all="ignore"):
            for k in range(_NEWTON_STEPS):
                diag = self.diagonal(gamma)
                x = _stacked_solve(_stacked_factors(off, diag, np.array([w])), x)
                sq = x * x
                w = (x @ _tridiagonal_product(off, diag, off, x.T)).item() / sq.sum()
                if k > 1:                 # the first two steps are inverse iteration
                    slope = (sq @ self.p).item() / sq.sum()
                    step = -w.imag / slope.real
                    gamma, w = gamma + step, w + 1j * step * slope
                    if not abs(step) > 4 * np.finfo(float).eps * abs(gamma):
                        break
        return float(gamma) if np.isfinite(gamma) else np.nan   # a zero slope gives +-inf

    def right_vector(self, gamma: float, w: complex) -> np.ndarray:
        """M(gamma)'s unit right vector for its eigenvalue w.

        For a chain, two inverse-iteration steps on T(gamma) shifted by w
        give phi, and psi = phi / d takes LAPACK's phase; any other input
        keeps the column of a dense ``solve`` whose eigenvalue is nearest w.
        """
        if self.form is None:
            lam, v = self.solve(gamma)
            return v[:, np.abs(lam - w).argmin()]
        lu = _stacked_factors(self.form.off, self.diagonal(gamma), np.array([w]))
        x = np.linspace(1.0, 2.0, self.n)[None].astype(complex)
        with np.errstate(all="ignore"):
            for _ in range(2):
                x = _stacked_solve(lu, x)
        return _lapack_phase(x / self.form.d)[0]


def _stacked_factors(off: np.ndarray, diag: np.ndarray, w: np.ndarray) -> list:
    """One ``zgttrf`` for all shifted systems ``T - w_k`` of a symmetric
    tridiagonal T (off-diagonal ``off``, diagonal ``diag``).

    The shifted matrices are the blocks of one tridiagonal system with zero
    couplings between blocks, closed by a decoupled 1 x 1 block of 1 (the
    wrapper refuses a system of fewer than 3 rows).  An exactly zero pivot
    is nudged to eps * c (c the largest column norm of T), as LAPACK's
    inverse iteration does, so the factors always solve.
    """
    k, n = len(w), len(diag)
    dl, du = np.zeros((2, k, n), dtype=complex)
    dl[:, :-1], du[:, :-1] = off, off
    *lu, info = zgttrf(dl.ravel(), np.append(diag[None, :] - w[:, None], 1.0), du.ravel())
    if info > 0:
        lu[1][lu[1] == 0] = np.finfo(float).eps * _column_norm(off, diag)
    return lu


def _stacked_solve(lu: list, x: np.ndarray) -> np.ndarray:
    """Solve every block of ``_stacked_factors`` for its row of x ([mode, site]),
    and rescale each solution by its max-abs entry (near-exact shifts give
    pivots as small as 1e-168, and a 2-norm of the raw iterate overflows)."""
    y, _ = zgttrs(*lu, np.append(x, 0.0)[:, None])
    y = y[:-1].reshape(x.shape)
    return y / np.abs(y).max(axis=1, keepdims=True)


def _column_norm(off: np.ndarray, diag: np.ndarray) -> float:
    """Largest column 2-norm of a symmetric tridiagonal T, a lower bound on its norm."""
    col = np.abs(diag) ** 2
    col[:-1] += np.abs(off) ** 2
    col[1:] += np.abs(off) ** 2
    return float(np.sqrt(col.max()))


def _lapack_phase(x: np.ndarray) -> np.ndarray:
    """LAPACK's convention for the rows of x: unit 2-norm, largest entry real positive."""
    rows, big = np.arange(len(x)), np.abs(x).argmax(axis=1)
    x = x * (np.abs(x[rows, big]) / x[rows, big])[:, None]
    x[rows, big] = x[rows, big].real
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _continue(off: np.ndarray, diag: np.ndarray, p: np.ndarray, w: np.ndarray,
              phi: np.ndarray, dgamma: float, tol: Tolerances) -> tuple | None:
    """Every mode (w_k, phi_k) of a complex-symmetric tridiagonal T, continued
    over a pump step ``dgamma`` to T's new diagonal ``diag``.

    ``phi`` holds the modes as rows.  The predictor is first-order
    perturbation theory, dw = i dgamma (phi o phi)^T p / phi^T phi (T's left
    vectors are its right vectors).  The corrector is at most
    ``_CORRECTOR_STEPS`` steps of complex-symmetric Rayleigh-quotient
    iteration, one ``_stacked_solve`` and w = x^T T x / x^T x for the modes
    whose residual still exceeds ``residual_rel * c`` (c the largest column
    norm of T).  Returns (w, unit vectors as columns) in the input's order, or
    None unless every residual is within that bound, the eigenvalues are
    pairwise more than ``cluster_rel * c`` apart, |sum w - trace T| is within
    the bound, and each prediction is nearest its own corrected eigenvalue.
    """
    c = _column_norm(off, diag)
    bound = tol.residual_rel * c
    with np.errstate(all="ignore"):          # a non-finite value fails a certificate
        sq = phi * phi
        guess = w + 1j * dgamma * (sq @ p) / sq.sum(axis=1)
        w, x, todo = guess.copy(), phi.copy(), np.arange(len(w))
        wt, xt = w, x               # todo's rows: w and x themselves until todo shrinks
        for k in range(_CORRECTOR_STEPS + 1):   # the predicted vectors, then corrections
            if k:
                y = _stacked_solve(_stacked_factors(off, diag, wt), xt)
                np.divide(y, np.linalg.norm(y, axis=1, keepdims=True), out=xt)
            ty = _tridiagonal_product(off, diag, off, xt.T).T
            if k:
                wt[:] = np.sum(xt * ty, axis=1) / np.sum(xt * xt, axis=1)
            ty -= wt[:, None] * xt
            miss = ~(np.linalg.norm(ty, axis=1) <= bound)
            if not miss.all():
                if xt is not x:
                    w[todo], x[todo] = wt, xt
                todo, wt, xt = todo[miss], wt[miss], xt[miss]
            if not todo.size:
                break
        else:
            return None
        gaps = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(gaps, np.inf)
        if not (gaps.min() > tol.cluster_rel * c
                and abs(w.sum() - diag.sum()) <= bound
                and np.array_equal(np.abs(guess[:, None] - w).argmin(axis=1), np.arange(len(w)))):
            return None
    return w, x.T


@dataclass
class Trajectory:
    """Eigenvalues followed along a pump-strength grid.

    ``eigenvalues[k, mu]`` is mode mu at gammas[k], from the (Re, Im)-sorted
    order at the first point; a continued step keeps the order, a dense solve
    is matched by maximal eigenvector overlap.  ``zero_mode_index`` flags the
    mode whose Re(w) stays pinned at zero, if there is exactly one.
    """

    gammas: np.ndarray
    eigenvalues: np.ndarray          # shape (len(gammas), n)
    zero_mode_index: int | None


def _match_modes(overlaps: np.ndarray, margin: float, gamma: float) -> np.ndarray:
    """Greedy maximal-overlap permutation, ``overlaps[prev, new] >= 0``.

    Rows are served in order, each taking its largest unused column; a row
    whose best and second-best unused overlaps differ by less than
    ``margin * best`` raises TrackingAmbiguityError.
    """
    n = overlaps.shape[0]
    perm, used = np.full(n, -1), np.zeros(n, dtype=bool)
    for prev in range(n):
        row = overlaps[prev].copy()
        row[used] = -1.0
        b = int(np.argmax(row))
        second = np.delete(row, b).max(initial=-1.0)
        if second > 0 and (row[b] - second) < margin * row[b]:
            raise TrackingAmbiguityError(
                f"overlap tie at gamma={gamma:.6g} "
                f"({row[b]:.4f} vs {second:.4f}); refine the grid")
        perm[prev] = b
        used[b] = True
    return perm


def track_mode(h: np.ndarray, pump: PumpSpec, gamma_grid: np.ndarray,
               tol: Tolerances = DEFAULT) -> Trajectory:
    """Follow every eigenvalue of the pumped Hamiltonian along the grid."""
    try:
        grid = np.asarray(gamma_grid, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"gamma_grid {gamma_grid!r} is not an array of real numbers") from None
    if (grid.ndim != 1 or len(grid) < 2 or not np.all(np.isfinite(grid))
            or np.any(np.diff(grid) <= 0) or grid[0] < 0):
        raise ValueError("gamma_grid must be finite, ascending and start at >= 0")
    for g in gamma_grid:              # no strings or bools that float() would take
        _real(g, "gamma_grid entry")
    chain = _PumpedChain(h, pump, tol)
    traj = np.zeros((len(grid), chain.n), dtype=complex)
    w, v = chain.solve(grid[0])
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    traj[0] = w

    for k in range(1, len(grid)):
        moved = chain.step(w, v, grid[k - 1], grid[k])
        if moved is None:
            wn, vn = chain.solve(grid[k])
            perm = _match_modes(np.abs(v.conj().T @ vn), tol.track_margin, grid[k])
            moved = wn[perm], vn[:, perm]
        w, v = moved
        traj[k] = w

    norm = max(spectral_norm(chain.h), 1e-300)
    pinned = np.flatnonzero(np.abs(traj.real).max(axis=0) <= tol.zero_mode_rel * norm)
    zero_idx = int(pinned[0]) if len(pinned) == 1 else None
    return Trajectory(gammas=grid, eigenvalues=traj, zero_mode_index=zero_idx)


@dataclass
class ThresholdResult:
    """First real-axis crossing of the pumped spectrum.  The crossing mode's
    path is not kept: ``track_mode`` on a grid ending at ``threshold`` gives it."""

    threshold: float                  # pump strength at the crossing
    threshold_mode: np.ndarray        # eigenvector, normalized to psi_1 = 1
    bracket: tuple[float, float]      # the last (lo, hi); max Im w < 0 at lo


def find_threshold(h: np.ndarray, pump: PumpSpec,
                   tol: Tolerances = DEFAULT) -> ThresholdResult:
    """Smallest gamma with max Im(w) = 0: a bracket, then Newton or regula falsi.

    With f(gamma) = max Im w (one dense ``eigvals`` of M(gamma), each gamma
    evaluated once), the bracket starts at [0, kappa0] and moves its top end
    up until f(lo) < 0 < f(hi); the search keeps that invariant.  A chain's
    f(0) = -kappa0 takes no solve (M(0) ~ T0 - i*kappa0, T0 real symmetric;
    Im w = -kappa0 + gamma |P phi|^2 / |phi|^2, so its root is >= kappa0).
    Its step proposes the root of T's crossing mode (M(hi)'s eigenvalue of
    largest Im w) by ``_PumpedChain.t_root``: a top end below the root moves
    there if that lies in (hi, ``gamma_max_factor * kappa0``], else doubles.
    Inside the bracket the regula falsi point, with Illinois halving, is
    taken instead without a ``ChainForm``, after a Newton point has missed
    the stop test, or when the proposal is not strictly inside the bracket,
    and bisection when neither is.  The search stops at |f| <=
    ``threshold_imag * kappa0``, or raises NoThresholdError (naming a missed
    Newton point) when the bracket cannot shrink.  The threshold mode is M's
    right vector (``_PumpedChain.right_vector``) for the eigenvalue of
    largest Im w at the root, the one the stop test took; nothing is tracked.
    """
    chain = _PumpedChain(h, pump, tol)
    n = chain.n
    k0 = pump.kappa0
    ftol = tol.threshold_imag * k0

    def floor() -> str:
        return f"eps*||H|| = {np.finfo(float).eps * spectral_norm(chain.h):.3e}"

    def evaluate(g: float, proposed: bool) -> complex:     # a missed Newton point ends Newton
        nonlocal newton, missed
        top = chain.top(g)
        if proposed and abs(top.imag) > ftol:
            newton, missed = False, (f"; T's root at {g / k0:.6f} kappa0, where "
                                     f"M's max Im w = {top.imag:.3e}")
        return top

    newton, missed = chain.form is not None, ""
    lo, f_lo = 0.0, -k0 if chain.form is not None else chain.top(0.0).imag
    if f_lo >= -ftol:
        raise NoThresholdError(f"n = {n}: max Im w = {f_lo:.3e} at gamma = 0, so the "
                               f"lossy chain is not below threshold ({floor()})")
    hi, top = k0, chain.top(k0)
    while top.imag < 0 and abs(top.imag) > ftol:
        g = chain.t_root(hi, top) if newton else np.nan
        proposed = hi < g <= tol.gamma_max_factor * k0
        lo, f_lo, hi = hi, top.imag, g if proposed else 2 * hi
        if hi > tol.gamma_max_factor * k0:
            raise NoThresholdError(
                f"no real-axis crossing below {tol.gamma_max_factor:g} * kappa0")
        top = evaluate(hi, proposed)

    f_hi = top.imag
    gstar, w_star, f_star = hi, top, f_hi
    closest = min(-f_lo, abs(f_hi))
    side = 0                          # which end the last step moved
    while abs(f_star) > ftol:
        g = chain.t_root(hi, top) if newton else np.nan
        proposed = lo < g < hi
        if not proposed:
            g = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < g < hi:
            g = 0.5 * (lo + hi)
        if not lo < g < hi:
            raise NoThresholdError(
                f"threshold search stalled at n = {n}: bracket [{lo!r}, {hi!r}] "
                f"cannot shrink; closest |max Im w| = {closest:.3e}, tolerance "
                f"{ftol:.3e}, {floor()}{missed}")
        gstar, w_star = g, evaluate(g, proposed)
        f_star = w_star.imag
        closest = min(closest, abs(f_star))
        if f_star < 0:
            if side < 0:
                f_hi *= 0.5
            lo, f_lo, side = g, f_star, -1
        else:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, top, side = g, f_star, w_star, 1

    vec = chain.right_vector(gstar, w_star)
    if abs(vec[0]) < 1e-12 * np.linalg.norm(vec):
        raise ValueError("threshold mode vanishes at site 1; "
                         "the psi_1 = 1 normalization is undefined")
    vec = vec / vec[0]
    vec[0] = 1.0                      # z / z need not round to exactly 1
    return ThresholdResult(threshold=float(gstar), threshold_mode=vec,
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


def power_flows(mode: np.ndarray, h_a: np.ndarray, pump: PumpSpec,
                gamma: float) -> PowerFlowReport:
    """Junction gains and site gain/loss terms for a threshold mode.

    Couplings are the off-diagonal entries of the construction matrix (the
    loss and pump only touch the diagonal of ``h_a``).  The mode is
    normalized to psi_1 = 1, matching the junction-gain convention.
    """
    h_a = _matrix(h_a, "h_a")
    v = _matrix(mode, "mode", h_a.shape[:1])
    if abs(v[0]) == 0:
        raise ValueError("mode vanishes at site 1; cannot normalize psi_1 = 1")
    v = v / v[0]
    gammas = _real(gamma, "gamma") * pump_indicator(pump.pumped_sites, len(v))
    site_terms = 2.0 * (gammas - pump.kappa0) * np.abs(v) ** 2

    t_fwd, t_bwd = np.diagonal(h_a, 1), np.diagonal(h_a, -1)    # t_{j,j+1}, t_{j+1,j}
    fwd = 2.0 * np.real(1j * np.conj(t_fwd) * np.conj(v[1:]) * v[:-1])
    bwd = 2.0 * np.real(1j * np.conj(t_bwd) * np.conj(v[:-1]) * v[1:])
    gains = fwd + bwd

    residual = abs(site_terms.sum() + gains.sum())
    max_term = float(max(np.abs(site_terms).max(initial=0.0),
                         np.abs(gains).max(initial=0.0), 1e-300))
    return PowerFlowReport(junction_gains=gains, site_terms=site_terms,
                           flows_forward=fwd, flows_backward=bwd,
                           balance_residual=float(residual), max_term=max_term)
