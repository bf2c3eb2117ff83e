"""Lasing thresholds of lossy coupled-cavity chains under localized pumping.

Each site is a cavity with uniform loss kappa0 (a -i*kappa0 on the diagonal);
pumping adds +i*gamma on the pumped sites.  The threshold is the smallest
gamma at which some eigenvalue reaches the real axis: a bracket and Illinois
regula falsi on max Im(w) of the dense ``eigvals`` of M(gamma).  A chain with
a ``ChainForm`` is worked on its complex-symmetric T(gamma) = D M(gamma) D^-1:
Newton's method on T's crossing mode proposes the bracket and the root, and
inverse iteration on T gives the threshold mode.  Its modes are continued in
order by Newton's method on the secular equation of the rank-r pump in T0's
eigenbasis, O(n^2 r^2) per step, with a dense solve of T and an overlap match
where a step misses its certificate; any other input is solved densely and
matched at every point.  Junction power flows quantify the exchange that sets
the threshold scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs

from .config import DEFAULT, Tolerances, _positive, _real, _record
from .eig import _tridiagonal_product, chain_form
from .model import _matrix, _sites, spectral_norm


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
        object.__setattr__(self, "kappa0", _positive(self.kappa0, "kappa0"))
        object.__setattr__(self, "pumped_sites", _sites(self.pumped_sites, "pumped_sites"))
        if not self.pumped_sites:
            raise ValueError("pumped_sites must be nonempty")

    @classmethod
    def from_dict(cls, d: dict) -> "PumpSpec":
        return _record(cls, d, "pump", ("kappa0", "pumped_sites"))


def pump_indicator(pumped_sites: tuple[int, ...], n: int) -> np.ndarray:
    """0/1 site vector of the pumped sites (``_sites``' rule, in 1..n)."""
    p = np.zeros(n)
    p[[j - 1 for j in _sites(pumped_sites, "pumped_sites", n)]] = 1.0
    return p


def pumped_hamiltonian(h: np.ndarray, pump: PumpSpec, gamma: float) -> np.ndarray:
    """H - i*kappa0*I + i*gamma*P (loss and pump are purely diagonal)."""
    m = _matrix(h, "h").copy()
    np.fill_diagonal(m, m.diagonal() - 1j * pump.kappa0
                     + 1j * _real(gamma, "gamma") * pump_indicator(pump.pumped_sites, len(m)))
    return m


_SECULAR_STEPS = 4      # Newton steps of a secular step before the dense solve
_NEWTON_STEPS = 20      # inverse-iteration plus Newton steps of _PumpedChain.t_root


class _PumpedChain:
    """The pumped matrices of one (h, pump): only the diagonal moves with gamma.

    ``top`` takes M(gamma)'s dense ``eigvals``.  With a ``ChainForm`` the rest
    acts on T(gamma) = D M(gamma) D^-1 = T0 - i*kappa0 + i*gamma*P, with M's
    eigenvalues but not its non-normality: ``t_root`` proposes the root,
    ``right_vector`` maps T's mode to M's psi = phi / d, and ``basis``
    diagonalizes T0 for an exact ``solve(0)`` and the secular ``step``.
    Every other solve is a dense ``np.linalg.eig`` (of T, or of M).
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

    @cached_property
    def basis(self) -> tuple | None:
        """(lam, U, U's pumped rows) with T0 = U diag(lam) U^T from one
        ``eigh_tridiagonal``; None without a ``ChainForm`` or when a residual
        exceeds ``residual_rel * c`` (c: T(0)'s largest column norm)."""
        if self.form is None:
            return None
        off, diag = self.form.off, self.form.diag
        try:
            lam, u = eigh_tridiagonal(diag, off, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        res = np.linalg.norm(_tridiagonal_product(off, diag, off, u) - lam * u, axis=0)
        ok = np.all(res <= self.tol.residual_rel * _column_norm(off, self.diagonal(0.0)))
        return (lam, u, u[self.p > 0]) if ok else None

    def solve(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact spectrum and unit vectors: of T(gamma) for a chain, else of M."""
        if self.form is None:
            a = pumped_hamiltonian(self.h, self.pump, gamma)
        elif gamma == 0 and self.basis is not None:
            return self.basis[0] - 1j * self.pump.kappa0, self.basis[1].astype(complex)
        else:
            off = self.form.off
            a = np.diag(self.diagonal(gamma)) + np.diag(off, 1) + np.diag(off, -1)
        w, v = np.linalg.eig(a)
        return w, v / np.linalg.norm(v, axis=0)

    def seed(self, w: np.ndarray, v: np.ndarray) -> tuple | None:
        """The secular state (mu, dw/dgamma) of exact modes (w, v): the pole mu
        nearest w + i*kappa0, and i (v o v)^T p / v^T v; None without a basis."""
        if self.basis is None:
            return None
        sq = v * v
        return (np.abs(self.basis[0] - (w + 1j * self.pump.kappa0)[:, None]).argmin(axis=1),
                1j * (self.p @ sq) / sq.sum(axis=0))

    def step(self, w: np.ndarray, mu: np.ndarray, slope: np.ndarray,
             gamma0: float, gamma: float) -> tuple | None:
        """Modes w at gamma0 (poles mu, dw/dgamma ``slope``) continued to gamma
        in order as (w, (mu, slope)): from the first-order prediction, Newton steps
        on ``_secular`` (at most ``_SECULAR_STEPS``) until one is within 64 eps
        * c (c: T(gamma)'s largest column norm), applied after the evaluation
        it follows.  None unless every residual is within ``residual_rel * c``,
        the eigenvalues are pairwise more than ``cluster_rel * c`` apart, |sum
        w - trace T| is within the residual bound, and each prediction is
        nearest its own root."""
        lam, _, up = self.basis
        diag, bound, n = self.diagonal(gamma), self.tol.residual_rel, len(w)
        c = _column_norm(self.form.off, diag)
        guess = w + (gamma - gamma0) * slope
        delta = guess + 1j * self.pump.kappa0 - lam[mu]
        res, slope, todo = np.empty(n), slope.copy(), np.arange(n)
        with np.errstate(all="ignore"):          # a non-finite value fails the certificate
            for k in range(_SECULAR_STEPS + 1):
                f, df, res[todo], slope[todo], _ = _secular(lam, up, mu[todo], delta[todo], gamma)
                newton = f / df
                done = np.abs(newton) <= 64 * np.finfo(float).eps * c
                newton[~done & (k == _SECULAR_STEPS)] = 0.0   # keep the evaluated point
                delta[todo] -= newton
                todo = todo[~done]
                if not todo.size:
                    break
            w = lam[mu] + delta - 1j * self.pump.kappa0
            gaps = np.abs(w[:, None] - w)[~np.eye(n, dtype=bool)]
            if (np.all(res <= bound * c) and gaps.min(initial=np.inf) > self.tol.cluster_rel * c
                    and abs(w.sum() - diag.sum()) <= bound * c
                    and np.array_equal(np.abs(guess[:, None] - w).argmin(axis=1), np.arange(n))):
                return w, (mu, slope)
        return None

    def t_root(self, gamma: float, w: complex) -> float:
        """Root of Im w of T's mode w at gamma by Newton's method, NaN on a
        breakdown: two inverse-iteration steps on T(gamma) for its vector, then
        steps gamma -= Im w / Re(phi^T P phi / phi^T phi) (the Hellmann-Feynman
        slope), each followed by one O(n) Rayleigh-quotient step on T(gamma)."""
        off, x = self.form.off, np.linspace(1.0, 2.0, self.n)[None].astype(complex)
        with np.errstate(all="ignore"):
            for k in range(_NEWTON_STEPS):
                diag = self.diagonal(gamma)
                x = _inverse_step(off, diag, w, x)
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
        """M(gamma)'s unit right vector for its eigenvalue w: for a chain psi =
        phi / d in LAPACK's phase, phi from two inverse-iteration steps on
        T(gamma) - w; else the column of a dense ``solve`` nearest w."""
        if self.form is None:
            lam, v = self.solve(gamma)
            return v[:, np.abs(lam - w).argmin()]
        x = np.linspace(1.0, 2.0, self.n)[None].astype(complex)
        with np.errstate(all="ignore"):
            for _ in range(2):
                x = _inverse_step(self.form.off, self.diagonal(gamma), w, x)
        return _lapack_phase(x / self.form.d)[0]


def _inverse_step(off: np.ndarray, diag: np.ndarray, w: complex, x: np.ndarray) -> np.ndarray:
    """The row x solved against T - w by ``zgttrf``/``zgttrs`` (T symmetric
    tridiagonal: ``off``, ``diag``; a decoupled 1 x 1 block of 1 closes it, as
    the wrapper refuses fewer than 3 rows), over its max-abs entry: pivots
    reach 1e-168, so a 2-norm of the raw iterate overflows.  A zero pivot is
    nudged to eps * c (c: T's largest column norm), as LAPACK's inverse
    iteration does."""
    *lu, info = zgttrf(np.append(off, 0.0), np.append(diag - w, 1.0), np.append(off, 0.0))
    if info > 0:
        lu[1][lu[1] == 0] = np.finfo(float).eps * _column_norm(off, diag)
    y = zgttrs(*lu, np.append(x, 0.0)[:, None])[0][:-1].reshape(x.shape)
    return y / np.abs(y).max()


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


def _secular(lam: np.ndarray, up: np.ndarray, mu: np.ndarray, delta: np.ndarray,
             gamma: float) -> tuple:
    """(F, F', unit residual, dz/dgamma, y) of each mode at z = lam_mu + delta.

    With T0 = U diag(lam) U^T and up = U's pumped rows (r x n, orthonormal),
    w is an eigenvalue of T(gamma) iff z = w + i*kappa0 is a root of det(I +
    i gamma up (lam - z)^-1 up^T); without the pole mu, F = -delta + i gamma
    u_mu^T q, q = K^-1 u_mu, K = I + i gamma sum_{nu != mu} u_nu u_nu^T /
    (lam_nu - z).  The coordinates y_mu = 1, y_nu = -i gamma u_nu^T q /
    (lam_nu - z) (rows of y) leave T's residual F e_mu, so |F| / |y| is the
    unit residual exactly; F' = -y^T y and dz/dgamma = i q^T q / y^T y."""
    rows, r = np.arange(len(mu)), len(up)
    dist = lam - (lam[mu] + delta)[:, None]
    dist[rows, mu] = np.inf                       # the pole taken out
    wgt = 1.0 / dist
    uu = (up[:, None] * up).reshape(r * r, -1).T  # row nu: u_nu u_nu^T, flattened
    k = np.eye(r) + 1j * gamma * (wgt @ uu).reshape(-1, r, r)
    um = up.T[mu]
    q = um / k[:, :, 0] if r == 1 else np.linalg.solve(k, um[:, :, None])[:, :, 0]
    a = q @ up                                    # a[i, nu] = u_nu^T q_i
    f = 1j * gamma * a[rows, mu] - delta
    y = a * wgt
    y *= -1j * gamma
    y[rows, mu] = 1.0
    yy, yv = np.einsum("ij,ij->i", y, y), y.view(float)
    res = np.abs(f) / np.sqrt(np.einsum("ij,ij->i", yv, yv))
    return f, -yy, res, 1j * np.einsum("ij,ij->i", q, q) / yy, y


@dataclass
class Trajectory:
    """Eigenvalues followed along a pump-strength grid: ``eigenvalues[k, mu]``
    is mode mu at gammas[k], in the (Re, Im)-sorted order of the first point,
    which a secular step keeps and a dense solve matches by eigenvector
    overlap.  ``zero_mode_index``: the mode whose Re(w) stays at zero, if one."""

    gammas: np.ndarray
    eigenvalues: np.ndarray          # shape (len(gammas), n)
    zero_mode_index: int | None


def _match_modes(overlaps: np.ndarray, margin: float, gamma: float) -> np.ndarray:
    """Greedy maximal-overlap permutation, ``overlaps[prev, new] >= 0``: rows
    in order each take their largest unused column, and a row whose best and
    second-best unused overlaps differ by less than ``margin * best`` raises
    TrackingAmbiguityError."""
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
    state = chain.seed(w, v)               # None: a dense solve at every point

    for k in range(1, len(grid)):
        moved = None if state is None else chain.step(w, *state, grid[k - 1], grid[k])
        if moved is None:
            if v is None:                  # the previous point was a secular step
                lam, u, up = chain.basis
                mu = state[0]
                v = u @ _secular(lam, up, mu, w + 1j * pump.kappa0 - lam[mu], grid[k - 1])[-1].T
                v /= np.linalg.norm(v, axis=0)
            wn, vn = chain.solve(grid[k])
            perm = _match_modes(np.abs(v.conj().T @ vn), tol.track_margin, grid[k])
            w, v = wn[perm], vn[:, perm]
            state = chain.seed(w, v)
        else:
            (w, state), v = moved, None
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

    With f(gamma) = max Im w (one dense ``eigvals`` of M(gamma) per gamma),
    the bracket [0, kappa0] moves its top end up until f(lo) < 0 < f(hi), an
    invariant the search keeps.  A chain's f(0) = -kappa0 takes no solve (M(0)
    ~ T0 - i*kappa0, T0 real symmetric; Im w = -kappa0 + gamma |P phi|^2 /
    |phi|^2, so the root is >= kappa0), and ``_PumpedChain.t_root`` proposes
    the root of T's crossing mode (M(hi)'s top eigenvalue): the top end moves
    there if it lies in (hi, ``gamma_max_factor * kappa0``], else doubles.
    Inside the bracket the Illinois regula falsi point is taken instead
    without a ``ChainForm``, after a Newton point missed the stop test, or
    for a proposal not strictly inside, and bisection when neither is.  The
    search stops at |f| <= ``threshold_imag * kappa0``, or raises
    NoThresholdError (naming a missed Newton point) when the bracket cannot
    shrink.  The threshold mode is M's right vector for the top eigenvalue
    the stop test took at the root; nothing is tracked.
    """
    chain = _PumpedChain(h, pump, tol)
    n, k0, ftol = chain.n, pump.kappa0, tol.threshold_imag * pump.kappa0

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
    """Junction gains and site gain/loss terms for a threshold mode, from the
    off-diagonal couplings of ``h_a`` (loss and pump touch only its diagonal);
    the mode is normalized to psi_1 = 1, the junction-gain convention."""
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
