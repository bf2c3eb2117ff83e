"""Lasing thresholds of lossy coupled-cavity chains under localized pumping.

Each site is a cavity with uniform loss kappa0 (a -i*kappa0 on the diagonal);
pumping adds +i*gamma on the pumped sites.  The threshold is the least gamma
at which an eigenvalue reaches the real axis: for a chain pumped at one site
p, the least 1/Im G_pp over the real roots w of Re G_pp(w + i*kappa0), G the
Green's function of its real symmetric T0, from one bordered matrix and O(n)
continued fractions; otherwise Illinois regula falsi on M's dense ``eigvals``.
A chain's modes are continued by Newton's method on the secular equation of
the rank-r pump in T0's eigenbasis, from r x r moments (O(n^2 r^2), no vector
formed), with a dense solve of T and an overlap match where a step misses its
certificate; other inputs are solved densely and matched at every point.
Junction power flows quantify the exchange that sets the threshold scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances, _positive, _real, _record
from .eig import ChainForm, _tridiagonal_product, chain_form
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
_POLISH_STEPS = 16      # Newton steps polishing a root of Re G_pp


class _PumpedChain:
    """The pumped matrices of one (h, pump): only the diagonal moves with gamma.

    ``top`` takes M(gamma)'s dense ``eigvals``.  With a ``ChainForm`` the rest
    acts on T(gamma) = D M(gamma) D^-1 = T0 - i*kappa0 + i*gamma*P, with M's
    eigenvalues but not its non-normality: ``basis`` diagonalizes T0 for an
    exact ``solve(0)`` and the secular ``step``; other solves are dense.
    """

    def __init__(self, h: np.ndarray, pump: PumpSpec, tol: Tolerances):
        self.h = _matrix(h, "h")
        self.n = self.h.shape[0]
        self.form = chain_form(self.h)
        self.pump, self.tol = pump, tol
        self.base = self.h.diagonal() - 1j * pump.kappa0
        self.p = pump_indicator(pump.pumped_sites, self.n)

    def diagonal(self, gamma: float) -> np.ndarray:
        return self.base + 1j * gamma * self.p

    def top(self, gamma: float) -> complex:
        """The eigenvalue of largest Im w of M(gamma), from a dense ``eigvals``."""
        w = np.linalg.eigvals(pumped_hamiltonian(self.h, self.pump, gamma))
        return complex(w[w.imag.argmax()])

    @cached_property
    def basis(self) -> tuple | None:
        """(lam, U, up, uu, I_r): T0 = U diag(lam) U^T from one ``eigh_tridiagonal``, up its r
        pumped rows, rows 2 nu and 2 nu + 1 of uu both u_nu u_nu^T, flattened; None without a
        ``ChainForm`` or when a residual exceeds ``residual_rel`` * T(0)'s largest column norm."""
        if self.form is None:
            return None
        off, diag = self.form.off, self.form.diag
        try:
            lam, u = scipy.linalg.eigh_tridiagonal(diag, off, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        res = np.linalg.norm(_tridiagonal_product(off, diag, off, u) - lam * u, axis=0)
        ok = np.all(res <= self.tol.residual_rel * _column_norm(off, self.diagonal(0.0)))
        up = u[self.p > 0]
        uu = np.repeat((up[:, None] * up).reshape(-1, self.n).T, 2, axis=0)
        return (lam, u, up, uu, np.eye(len(up))) if ok else None

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
        |sum w - trace T| is within that bound, the eigenvalues are pairwise
        more than ``cluster_rel * c`` apart and each prediction is nearest its
        own root (``_separated``)."""
        lam, basis = self.basis[0], self.basis
        diag, bound, n = self.diagonal(gamma), self.tol.residual_rel, len(w)
        c = _column_norm(self.form.off, diag)
        guess = w + (gamma - gamma0) * slope
        delta = guess + 1j * self.pump.kappa0 - lam[mu]
        res, slope, todo = np.empty(n), slope.copy(), np.arange(n)
        with np.errstate(all="ignore"):          # a non-finite value fails the certificate
            for k in range(_SECULAR_STEPS + 1):
                f, df, res[todo], slope[todo], *_ = _secular(basis, mu[todo], delta[todo], gamma)
                newton = f / df
                done = np.abs(newton) <= 64 * np.finfo(float).eps * c
                newton[~done & (k == _SECULAR_STEPS)] = 0.0   # keep the evaluated point
                delta[todo] -= newton
                todo = todo[~done]
                if not todo.size:
                    break
            w = lam[mu] + delta - 1j * self.pump.kappa0
            if (np.all(res <= bound * c) and abs(w.sum() - diag.sum()) <= bound * c
                    and _separated(w, guess, self.tol.cluster_rel * c)):
                return w, (mu, slope)
        return None

    def vectors(self, w: np.ndarray, mu: np.ndarray, gamma: float) -> np.ndarray:
        """U y^T for modes w (poles mu) at gamma, ``_secular``'s y (rows, y_mu = 1) formed; not
        normalized, as the overlap match compares each previous mode's overlaps among themselves."""
        lam, u, up = self.basis[:3]
        *_, q, wgt = _secular(self.basis, mu, w + 1j * self.pump.kappa0 - lam[mu], gamma)
        return u @ np.where(np.arange(self.n) == mu[:, None], 1.0, -(q @ up) * wgt).T


def _separated(w: np.ndarray, guess: np.ndarray, limit: float) -> bool:
    """Every |w_i - w_j| > limit and each guess_i nearest w_i.  The least gap g of the sorted
    Re w is at most every |w_i - w_j|, so g > limit and each |guess_i - w_i| < g / 2 (less 4
    eps relative, for round-off) decide it; only where they do not, the n x n distances do."""
    re, n = np.sort(w.real), len(w)
    g = np.minimum.reduce(re[1:] - re[:-1], initial=np.inf)
    return bool(g > limit and np.abs(guess - w).max() < (0.5 - 2 * np.finfo(float).eps) * g or (
        np.abs(w[:, None] - w)[~np.eye(n, dtype=bool)].min(initial=np.inf) > limit
        and np.array_equal(np.abs(guess[:, None] - w).argmin(axis=1), np.arange(n))))


def _column_norm(off: np.ndarray, diag: np.ndarray) -> float:
    """Largest column 2-norm of a symmetric tridiagonal T, a lower bound on its norm."""
    col, sq = np.abs(diag) ** 2, np.abs(off) ** 2
    col[:-1] += sq
    col[1:] += sq
    return float(np.sqrt(col.max()))


def _secular(basis: tuple, mu: np.ndarray, delta: np.ndarray, gamma: float) -> tuple:
    """(F, F', unit residual, dz/dgamma, q, i gamma wgt) of each mode at z = lam_mu + delta.

    w is an eigenvalue of T(gamma) iff z = w + i*kappa0 is a root of det(I + i gamma up (lam -
    z)^-1 up^T); without the pole mu, F = -delta + i gamma u_mu^T q, q = K^-1 u_mu, K = I + i
    gamma S_1.  The coordinates y_mu = 1, y_nu = -i gamma wgt_nu u_nu^T q leave T's residual F
    e_mu, so |F| / |y| is the unit residual, F' = -y^T y = -1 + gamma^2 q^T S_2 q, |y|^2 = 1 +
    gamma^2 q^H S_a q and dz/dgamma = i q^T q / y^T y.  S_1, S_2, S_a are the r x r moments sum_nu
    c_nu u_nu u_nu^T for c = wgt = 1 / (lam - z) (0 at mu), wgt^2, |wgt|^2: y is never formed."""
    lam, _, up, uu, eye = basis
    m, r = len(mu), len(eye)
    wgt = lam - (lam[mu] + delta)[:, None]
    wgt[np.arange(m), mu] = np.inf                   # the pole taken out
    np.divide(1j * gamma, wgt, out=wgt)
    s1, s2 = wgt @ uu[::2], (wgt * wgt) @ uu[::2]     # i gamma S_1, -gamma^2 S_2
    sa = np.square(wgt.view(float)) @ uu             # gamma^2 S_a, from Re^2 + Im^2
    um = up.T[mu]
    k = eye + s1.reshape(m, r, r)
    q = um / k[:, :, 0] if r == 1 else np.linalg.solve(k, um[:, :, None])[:, :, 0]
    f = 1j * gamma * np.add.reduce(um * q, 1) - delta
    yy = np.add.reduce(s2 * (q[:, :, None] * q[:, None]).reshape(m, -1), 1, initial=1)
    qh = (q.conj()[:, :, None] * q[:, None]).reshape(m, -1).real
    norm2 = np.add.reduce(sa * qh, 1, initial=1)
    return f, -yy, np.abs(f) / np.sqrt(norm2), 1j * np.add.reduce(q * q, 1) / yy, q, wgt


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
                v = chain.vectors(w, state[0], grid[k - 1])
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
    """First real-axis crossing of the pumped spectrum (``track_mode`` gives its path)."""

    threshold: float                  # pump strength at the crossing
    threshold_mode: np.ndarray        # eigenvector, 1 at the pumped site of largest |psi|
    bracket: tuple[float, float]      # (lo, hi), hi the threshold's end; see find_threshold


def _green(c: np.ndarray, b: np.ndarray, p: int, z: np.ndarray) -> tuple:
    """(R_p, phi, s) at each z, T0 = tridiag(b, c, b): R_p = 1/G_pp by r_k =
    c_k - z - b_k (b_k / r_{k+1}) from each end to p (no b_k^2 to overflow),
    phi = G e_p / G_pp by phi_{k+1} = -(b_k / r_{k+1}) phi_k, s = sum |terms|."""
    r, s, sides = c[p] - z, np.abs(c[p] - z), []
    for cs, bs in ((c[p + 1:], b[p:]), (c[:p][::-1], b[:p][::-1])):   # right, then left
        ratio, tail = np.empty((len(cs),) + z.shape, dtype=complex), 0.0
        for k in range(len(cs) - 1, -1, -1):
            ratio[k] = bs[k] / (cs[k] - z - tail)
            tail = bs[k] * ratio[k]
        r, s = r - tail, s + np.abs(tail)
        sides.append(np.cumprod(-ratio, axis=0))
    return r, np.concatenate((sides[1][::-1], np.ones((1,) + z.shape), sides[0])), s


def _one_site_threshold(form: ChainForm, p: int, kappa0: float,
                        tol: Tolerances) -> tuple[float, np.ndarray]:
    """(gamma*, phi): the least pump at which T(gamma) = T0 - i*kappa0 +
    i*gamma*e_p e_p^T (p 0-based) has a real eigenvalue w, and its vector
    (phi_p = 1).  det(T(gamma) - w) = det(T0 - z) (1 + i gamma G_pp(z)), z =
    w + i*kappa0, so w is one iff Re G_pp = 0, and then gamma = -Im R_p > 0.

    Lemma: for real w, Re G_pp(z) = 0 iff det(Q_p - w) = 0, multiplicities
    included; Q_p is Q = [[T0, -kappa0], [kappa0, T0]] without row and
    column p.  Re G_pp = e^T D^-1 e / 2 with D = diag(T0 - z, T0 - conj z),
    e = (e_p; e_p); J = [[I, I], [I, -I]] / sqrt 2 = J^-1 gives J D J =
    [[T0 - w, -i kappa0], [-i kappa0, T0 - w]] and J e = sqrt 2 (e_p; 0), and
    diag(I, i) J D J diag(I, -i) = Q - w keeps the (p, p) entry of the
    inverse.  By Cramer's rule Re G_pp = det(Q_p - w) / det(Q - w), and
    det(Q - w) = det D = |det(T0 - z)|^2 > 0.

    The candidates are Q_p's eigenvalues within delta = eps ||Q_p||_1 of the
    axis (once 6 delta >= kappa0 round-off can put them anywhere: the search
    raises), and pairs mu, conj mu within sqrt(eps) ||Q_p||_1, which round-off
    makes of a double root, started from Re mu +- Im mu.  Newton on Re R_p
    (dR_p/dz = -phi^T phi) polishes each, keeping its iterate of least |Re
    R_p| / s, until every |Re R_p| <= 4 eps (s + |w phi^T phi|) or for
    ``_POLISH_STEPS`` steps; it certifies where that least is <= residual_rel
    (Re R_p is row p's residual of (T(gamma) - w) phi = 0).  A real candidate
    that fails raises; a pair counts only where it certifies.
    """
    n, t0 = len(form.diag), np.diag(form.diag) + np.diag(form.off, 1) + np.diag(form.off, -1)
    q = np.block([[t0, -kappa0 * np.eye(n)], [kappa0 * np.eye(n), t0]])
    q = np.delete(np.delete(q, p, axis=0), p, axis=1)
    eps, qn = np.finfo(float).eps, np.linalg.norm(q, 1)
    if 6 * eps * qn >= kappa0:
        raise NoThresholdError(f"n = {n}: noise floor eps*||Q_p|| = {eps * qn:.3e} >= kappa0 / 6")
    mu = np.linalg.eigvals(q)
    mu = mu[np.abs(mu.imag) <= np.sqrt(eps) * qn]
    w, real = mu.real + mu.imag, np.abs(mu.imag) <= eps * qn
    best, least = w, np.inf                    # each candidate's iterate of least |Re R_p| / s
    with np.errstate(all="ignore"):            # a non-finite root fails the certificate
        for k in range(_POLISH_STEPS + 1):
            r, phi, s = _green(form.diag, form.off, p, w + 1j * kappa0)
            rel = np.abs(r.real) / s
            best, least = np.where(rel < least, w, best), np.fmin(rel, least)
            phi2 = np.einsum("ij,ij->j", phi, phi).real       # -d Re R_p / dw
            if k == _POLISH_STEPS or np.all(np.abs(r.real) <= 4 * eps * (s + np.abs(w * phi2))):
                break
            w = w + r.real / phi2
    if not np.all(least[real] <= tol.residual_rel):
        raise NoThresholdError(f"n = {n}: a root of Re G_pp misses |Re R_p| <= residual_rel * s")
    r, phi, _ = _green(form.diag, form.off, p, best[least <= tol.residual_rel] + 1j * kappa0)
    return float(-r.imag.max()), phi[:, r.imag.argmax()]


def _regula_falsi(chain: _PumpedChain) -> tuple[float, np.ndarray | None, float, float]:
    """(gamma*, its ``solve`` vector, lo, hi) by Illinois regula falsi on f = max
    Im w of M's dense ``eigvals`` from [0, kappa0], whose top end doubles to f >
    0 ((inf, None) past the ceiling); a chain's f(0) = -kappa0 takes no solve."""
    n, tol, k0 = chain.n, chain.tol, chain.pump.kappa0
    ftol = tol.threshold_imag * k0

    def floor() -> str:
        return f"eps*||H|| = {np.finfo(float).eps * spectral_norm(chain.h):.3e}"

    lo, f_lo = 0.0, -k0 if chain.form is not None else chain.top(0.0).imag
    if f_lo >= -ftol:
        raise NoThresholdError(f"n = {n}: max Im w = {f_lo:.3e} at gamma = 0, so the "
                               f"lossy chain is not below threshold ({floor()})")
    hi, top = k0, chain.top(k0)
    while top.imag < 0 and abs(top.imag) > ftol:
        lo, f_lo, hi = hi, top.imag, 2 * hi
        if hi > tol.gamma_max_factor * k0:
            return np.inf, None, lo, hi
        top = chain.top(hi)

    f_hi = top.imag
    gstar, w_star, f_star = hi, top, f_hi
    closest, side = min(-f_lo, abs(f_hi)), 0      # side: which end the last step moved
    while abs(f_star) > ftol:
        g = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < g < hi:
            g = 0.5 * (lo + hi)
        if not lo < g < hi:
            raise NoThresholdError(
                f"threshold search stalled at n = {n}: bracket [{lo!r}, {hi!r}] "
                f"cannot shrink; closest |max Im w| = {closest:.3e}, tolerance "
                f"{ftol:.3e}, {floor()}")
        gstar, w_star = g, chain.top(g)
        f_star = w_star.imag
        closest = min(closest, abs(f_star))
        if f_star < 0:
            if side < 0:
                f_hi *= 0.5
            lo, f_lo, side = g, f_star, -1
        else:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, side = g, f_star, 1
    lam, v = chain.solve(gstar)
    return gstar, v[:, np.abs(lam - w_star).argmin()], lo, hi


def find_threshold(h: np.ndarray, pump: PumpSpec,
                   tol: Tolerances = DEFAULT) -> ThresholdResult:
    """Smallest gamma at which an eigenvalue of M(gamma) reaches the real axis.

    A chain pumped at one site takes ``_one_site_threshold`` (no dense solve of
    M), psi = phi / d and the bracket (max(0, gamma* - threshold_imag * kappa0
    / slope), gamma*), slope = Re(phi^T P phi / phi^T phi) = d Im w / d gamma
    (Hellmann-Feynman): max Im w ~ -threshold_imag * kappa0 at lo in exact
    arithmetic, which M's dense eigvals resolves only above its round-off.  Any
    other input takes ``_regula_falsi`` and its dense vector (of T for a chain,
    psi = phi / d).  psi = 1 at the pumped site of largest |psi|, never 0:
    P psi = 0 makes w real at gamma = 0, which the search refuses (a chain's
    gamma* sum_P |phi_p|^2 = kappa0 ||phi||^2).  Past ``gamma_max_factor *
    kappa0`` it raises.
    """
    chain = _PumpedChain(h, pump, tol)
    if chain.form is not None and len(pump.pumped_sites) == 1:
        gstar, vec = _one_site_threshold(chain.form, pump.pumped_sites[0] - 1, pump.kappa0, tol)
        slope, hi = (1.0 / (vec @ vec)).real, gstar
        lo = max(0.0, gstar - tol.threshold_imag * pump.kappa0 / slope) if slope > 0 else 0.0
    else:
        gstar, vec, lo, hi = _regula_falsi(chain)
    if gstar > tol.gamma_max_factor * pump.kappa0:
        raise NoThresholdError(f"no real-axis crossing below {tol.gamma_max_factor:g} * kappa0")
    vec = vec if chain.form is None else vec / chain.form.d
    j = np.argmax(np.abs(vec) * chain.p)      # the pumped site of largest |psi|
    vec = vec / vec[j]
    vec[j] = 1.0                      # z / z need not round to exactly 1
    return ThresholdResult(float(gstar), vec, (float(lo), float(hi)))


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
