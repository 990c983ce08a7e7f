"""SNR grid builders and loss-adaptive schedule optimization.

Baseline grids (time-uniform, geometric in log-SNR, EDM-style rho spacing)
are built directly from the endpoints (T, delta). The loss-adaptive schedule
(LAS) instead selects K+1 of the n knots of a loss profile, with endpoints
pinned, to minimize the surrogate objective

    sum_{k=1..K} (eta_{i_k} - eta_{i_{k-1}}) L(i_{k-1})
        + alpha sum_{k=2..K} (h_k - h_{k-1})^2,

where eta(gamma) = gamma / (1 + lambda^2 gamma) is the regularized SNR axis,
L(i) is the model's x0-prediction risk at knot i, and h_k are log-SNR
steps. With alpha = 0 the objective is first-order and solved exactly by an
O(K n^2) dynamic program; with alpha > 0 consecutive steps couple and an
O(K n^3) dynamic program over (previous, current) index pairs solves it
exactly. Only the first-order DP counts ties (``Schedule.tie_breaks``).

The first-order DP fills its targets in blocks of max(K, 32) and skips, per
block and stage, every predecessor whose cost at the block's smallest eta
already exceeds another predecessor's cost at its largest eta. The cost
dp + (eta_j - eta_i) L_i is a chain of correctly rounded operations with
L_i >= 0, so it does not decrease with eta_j, and a skipped predecessor can
be neither a minimum nor a tie: the table is bit-identical to a full scan.
Memory is the (K + 1, n) table, one (max(K, 32), n) block of step costs and
two buffers of max(2^15, n) cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import LossProfile, SnrGrid
from .targets import _check_count

__all__ = [
    "InfeasibleError",
    "LasConfig",
    "Schedule",
    "eta_axis",
    "grid_time_uniform",
    "grid_geometric",
    "grid_edm",
    "schedule_objective",
    "las_exact",
    "las_beam",
]


class InfeasibleError(ValueError):
    """Raised when no schedule with the requested K exists."""


def _check_lam(lam) -> None:
    lam = float(lam)  # a float product overflows to inf without a warning
    if not (lam > 0 and math.isfinite(lam * lam)):
        raise ValueError(f"lambda must be positive with a finite square, got {lam!r}")


def eta_axis(gamma, lam: float):
    """Regularized SNR axis eta(gamma) = gamma / (1 + lambda^2 gamma).

    Strictly increasing in gamma in exact arithmetic, and saturating at
    1/lambda^2, which compresses the high-SNR end of the objective. In
    floats it need not increase: at lambda = 1.5, on 400 evenly spaced knots
    inside [g0, g0 (1 + 1e-9)], it decreases at 70, 173 and 158 of the 399
    steps for g0 = 1e6, 1e10 and 1e16. Every gamma must be finite and >= 0.
    """
    _check_lam(lam)
    g = np.asarray(gamma, dtype=float)
    if not np.all((g >= 0) & np.isfinite(g)):
        raise ValueError("gamma must be finite and nonnegative")
    out = g / (1.0 + lam**2 * g)
    return float(out) if out.ndim == 0 else out


def _check_endpoints(T: float, delta: float, K: int) -> None:
    if not 0 < delta < T:
        raise ValueError("need 0 < delta < T")
    if not math.isfinite(1.0 / float(delta)):  # a float quotient overflows without a warning
        raise ValueError(f"1/delta must be finite, got delta={delta!r}")
    _check_count(K, "K")


def grid_time_uniform(T: float, delta: float, K: int) -> SnrGrid:
    """Equally spaced reverse times s_k = k (T - delta) / K, so gamma_k = 1/(T - s_k)."""
    _check_endpoints(T, delta, K)
    s = np.linspace(0.0, T - delta, K + 1)
    g = np.empty(K + 1)
    # interior knots only: T - s_K can round to 0 when delta is below half an ulp of T
    g[1:-1] = 1.0 / (T - s[1:-1])
    g[0], g[-1] = 1.0 / T, 1.0 / delta
    return SnrGrid(g)


def grid_geometric(T: float, delta: float, K: int) -> SnrGrid:
    """Geometric SNR knots gamma_k = (1/T) Lambda^{k/K} with Lambda = T/delta."""
    _check_endpoints(T, delta, K)
    return SnrGrid(np.geomspace(1.0 / T, 1.0 / delta, K + 1))


def grid_edm(T: float, delta: float, K: int, rho: float = 7.0) -> SnrGrid:
    """EDM-style noise levels, mapped through sigma = sqrt(t), gamma = 1/sigma^2.

    sigma_i = (sigma_max^{1/rho} + (i/K)(sigma_min^{1/rho} - sigma_max^{1/rho}))^rho
    with sigma_max = sqrt(T) and sigma_min = sqrt(delta); rho = 1 reduces to
    linear-in-sigma spacing.
    """
    _check_endpoints(T, delta, K)
    if not rho > 0:
        raise ValueError("rho must be positive")
    smax, smin = math.sqrt(T), math.sqrt(delta)
    try:
        hi = smax ** (1.0 / rho)
    except OverflowError:  # a float power raises where a product gives inf
        hi = math.inf
    if not math.isfinite(hi):
        raise ValueError(f"rho={rho!r} is too small: sqrt(T) ** (1/rho) overflows")
    ramp = np.arange(1, K) / K
    g = np.empty(K + 1)
    # interior knots only: at small rho the last sigma rounds to 0
    g[1:-1] = 1.0 / ((hi + ramp * (smin ** (1.0 / rho) - hi)) ** rho) ** 2
    g[0], g[-1] = 1.0 / T, 1.0 / delta
    return SnrGrid(g)


@dataclass(frozen=True)
class LasConfig:
    """Optimizer settings: steps K, axis scale lambda, smoothness weight alpha."""

    K: int
    lam: float = 1.5
    alpha: float = 0.0

    def __post_init__(self):
        _check_count(self.K, "K")
        _check_lam(self.lam)
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and nonnegative")


@dataclass(frozen=True)
class Schedule:
    """An optimized schedule: candidate indices, their SNRs, and the objective.

    Needs K + 1 strictly increasing indices, K + 1 finite gammas and a finite
    objective, so ``schedule.json`` never holds NaN or Infinity. ``K`` and
    ``algorithm`` follow from the fields: K = len(indices) - 1, and the DP is
    ``"exact"`` for alpha = 0, else ``"beam"``. ``tie_breaks`` counts the
    tied predecessors on the exact DP's path (see :func:`las_exact`); the
    pair DP counts none and leaves it 0.
    """

    indices: tuple
    gammas: np.ndarray
    objective: float
    lam: float
    alpha: float
    tie_breaks: int = 0

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        g = np.asarray(self.gammas, dtype=float)
        if len(idx) < 2 or any(b <= a for a, b in zip(idx, idx[1:])) or g.shape != (len(idx),):
            raise ValueError("need K + 1 >= 2 strictly increasing indices and K + 1 gammas")
        if not (np.all(np.isfinite(g)) and math.isfinite(self.objective)):
            raise ValueError("schedule gammas and objective must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "gammas", g)

    @property
    def K(self) -> int:
        return len(self.indices) - 1

    @property
    def algorithm(self) -> str:
        return "exact" if self.alpha == 0 else "beam"

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "gammas": [float(g) for g in self.gammas],
            "K": self.K,
            "lambda": self.lam,
            "alpha": self.alpha,
            "objective": self.objective,
            "algorithm": self.algorithm,
            "tie_breaks": self.tie_breaks,
        }


def schedule_objective(profile: LossProfile, indices, lam: float, alpha: float) -> float:
    """Surrogate objective of an index sequence over the profile's knots."""
    idx = np.asarray(indices, dtype=int)
    eta = eta_axis(profile.gammas, lam)[idx]
    base = float(np.diff(eta) @ profile.losses[idx[:-1]])
    if alpha == 0 or idx.size < 3:
        return base
    h = np.diff(np.log(profile.gammas)[idx])
    return base + alpha * float((np.diff(h) ** 2).sum())


def _feasible(profile: LossProfile, K: int) -> None:
    if K > profile.n - 1:
        raise InfeasibleError(f"K = {K} needs at least K + 1 = {K + 1} candidates, got {profile.n}")


def _make_schedule(profile, indices, cfg, tie_breaks=0) -> Schedule:
    return Schedule(
        indices=tuple(indices),
        gammas=profile.gammas[np.asarray(indices, dtype=int)],
        objective=schedule_objective(profile, indices, cfg.lam, cfg.alpha),
        lam=cfg.lam,
        alpha=cfg.alpha,
        tie_breaks=tie_breaks,
    )


# cells per reused cost buffer: (b, c, a) costs per block of consecutive b
# in las_beam, whose block of one b holds that b's whole (c, a) plane,
# whatever its size; (column, predecessor) costs per chunk in las_exact
_BLOCK_CELLS = 2**15
# las_exact fills at least this many targets per block, so the per-block bound
# bookkeeping (some 30 numpy calls) is spread over enough columns at small K
_MIN_TARGETS = 32
# las_exact gathers a stage's surviving predecessors, instead of reading the
# contiguous span from the first of them, when they fill less than
# 1/_GATHER_COST of that span: a gathered cell costs about two contiguous ones
_GATHER_COST = 2
_min = np.minimum.reduce  # called positionally, without ndarray.min's Python wrapper


def _fold_min(dp_row, step, lo, idx, out, buf) -> None:
    """out[c] = min over predecessors i of dp_row[i] + step[c, i].

    The predecessors are the index array ``idx``, or when it is None the
    span lo <= i < step.shape[1]. Costs are built whole rows of step at a
    time in ``buf``, which holds at least one row.
    """
    width = step.shape[1] - lo if idx is None else idx.size
    rows = buf.size // width
    for c0 in range(0, step.shape[0], rows):
        blk = step[c0 : c0 + rows]
        t = buf[: blk.shape[0] * width].reshape(blk.shape[0], width)
        if idx is None:
            np.add(dp_row[lo : step.shape[1]], blk[:, lo:], out=t)
        else:
            np.take(blk, idx, axis=1, out=t, mode="clip")  # "raise" buffers out
            t += dp_row.take(idx)
        _min(t, 1, None, out[c0 : c0 + rows])


def _first_order_table(eta, L, K: int) -> np.ndarray:
    """First-order DP table: dp[k, j], the cheapest path 0 -> j in k steps.

    Each cell is the minimum of dp[k - 1, i] + (eta_j - eta_i) L_i over
    i < j, summed in that float order. Stages 1..K-1 hold the live band
    k <= j <= end - (K - k) and stage K only (K, end); every other cell is
    inf. The columns are filled in blocks of B = max(K, ``_MIN_TARGETS``)
    consecutive targets [j0, j1). A block's step costs (eta_j - eta_i) L_i,
    for all its columns and all i < j1, go once into one (B, n) buffer, with
    inf where i >= j, and serve every stage. For stage k, let j_lo and j_hi
    be the block columns with the smallest and the largest eta, and let
    u < j0 be the predecessor with the smallest cost at j_lo. A predecessor
    i < j0 whose cost at j_lo exceeds UB = dp[k - 1, u] + (eta_{j_hi} -
    eta_u) L_u is skipped: L >= 0 and each float operation is correctly rounded, hence
    monotone, so a cell's cost does not decrease with eta_j, and that i
    costs more than u at every column of the block. It can be neither a
    minimum nor a tie, so the table is the one a full scan gives, bit for
    bit. j_lo and j_hi are found by argmin and argmax because float eta
    need not increase with the index. The survivors and the block's own
    columns are then read as one contiguous span from the first survivor,
    or gathered when they fill less than half of that span, whole rows of
    the step block at a time in one reused buffer of max(``_BLOCK_CELLS``, n)
    costs, so memory stays one (K + 1, n) table, one (B, n) step block and
    two chunk buffers.
    """
    n = eta.size
    end = n - 1
    B = max(K, _MIN_TARGETS)
    dp = np.full((K + 1, n), np.inf)
    dp[0, 0] = 0.0
    step_buf = np.empty(B * n)
    size = max(_BLOCK_CELLS, n)  # one stage's bounds fit
    buf = np.empty(size)
    keep_buf = np.empty(size + K * B, dtype=bool)
    upper = ~np.tri(B, dtype=bool, k=-1)  # in-block predecessors i >= j
    # stages 1..K-1 over columns 1..end-1; the cells that cannot reach the
    # endpoint are filled too, then reset to inf
    for j0 in range(1, end, B) if K > 1 else ():
        j1 = min(j0 + B, end)
        w = j1 - j0
        step = step_buf[: w * j1].reshape(w, j1)
        np.subtract(eta[j0:j1, None], eta[:j1], out=step)
        step *= L[:j1]
        np.copyto(step[:, j0:], np.inf, where=upper[:w, :w])
        lo_row, hi_row = step[eta[j0:j1].argmin(), :j0], step[eta[j0:j1].argmax(), :j0]
        stages = min(K - 1, j1 - 1)
        rows = size // j0
        for r0 in range(0, stages, rows):
            r1 = min(r0 + rows, stages)
            lb = buf[: (r1 - r0) * j0].reshape(r1 - r0, j0)
            np.add(dp[r0:r1, :j0], lo_row, out=lb)
            u = lb.argmin(axis=1)
            ub = dp[np.arange(r0, r1), u] + hi_row[u]
            keep = keep_buf[: (r1 - r0) * j1].reshape(r1 - r0, j1)
            np.greater(lb, ub[:, None], out=keep[:, :j0])
            np.logical_not(keep[:, :j0], out=keep[:, :j0])  # a nan bound drops nothing
            keep[:, j0:] = True
            first = keep.argmax(axis=1).tolist()
            live = np.add.reduce(keep, 1, np.intp).tolist()
            for r, a, m in zip(range(r0, r1), first, live):
                gather = _GATHER_COST * m < j1 - a
                idx = keep[r - r0].nonzero()[0] if gather else None
                _fold_min(dp[r], step, a, idx, dp[r + 1, j0:j1], buf)
    for k in range(1, K):
        dp[k, end - (K - k) + 1 : end] = np.inf
    last = step_buf[:end]
    np.subtract(eta[end], eta[:end], out=last)
    last *= L[:end]
    dp[K, end] = _min(np.add(dp[K - 1, :end], last, out=last))
    return dp


def las_exact(profile: LossProfile, cfg: LasConfig) -> Schedule:
    """Globally optimal first-order schedule by dynamic programming.

    Requires cfg.alpha == 0. dp[k, j] is the best cost of reaching candidate
    j in exactly k transitions from candidate 0, filled by
    :func:`_first_order_table`, which skips only predecessors that provably
    can neither win nor tie. The path is read back by recomputing the costs
    dp[k - 1, i] + (eta_j - eta_i) L_i at each of the K steps, in the
    table's float order. Ties go to the smallest predecessor (the first
    minimum); ``tie_breaks`` counts the extra equal-cost predecessors at
    those K steps, so it is positive exactly when a second path takes a DP
    minimum at every step (walking back from the endpoint, the two part at
    a path cell with a tied predecessor). Time is O(K n^2) cells at worst,
    when no predecessor can be skipped, as for a constant risk; memory is
    the (K + 1, n) table, a (max(K, 32), n) step block and two chunk buffers.
    """
    if cfg.alpha != 0:
        raise ValueError("las_exact requires alpha = 0; use las_beam for alpha > 0")
    K = cfg.K
    _feasible(profile, K)
    eta = eta_axis(profile.gammas, cfg.lam)
    L = profile.losses
    dp = _first_order_table(eta, L, K)

    indices, ties = [profile.n - 1], 0
    for k in range(K, 0, -1):
        j = indices[-1]
        c = dp[k - 1, :j] + (eta[j] - eta[:j]) * L[:j]
        indices.append(int(np.argmin(c)))
        ties += int(np.count_nonzero(c == c[indices[-1]])) - 1
    indices.reverse()
    return _make_schedule(profile, indices, cfg, tie_breaks=ties)


def las_beam(profile: LossProfile, cfg: LasConfig) -> Schedule:
    """Globally optimal second-order schedule by a DP over index pairs.

    Requires cfg.alpha > 0. V[a, b] is the best cost of reaching candidate b
    with previous candidate a; stage 1 fills (0, b), and each later stage
    extends every pair by c > b,

        V'[b, c] = min_a V[a, b] + (eta_c - eta_b) L_b
                   + alpha ((ell_c - ell_b) - (ell_b - ell_a))^2.

    A stage runs over blocks of consecutive b, each one (b, c, a) array of
    at most ``_BLOCK_CELLS`` costs (or one b's whole plane) in a reused
    buffer, built by in-place passes in the float order above with a last,
    so the first minimum along the contiguous axis is the smallest a. Pairs
    with a >= b are inf in V and outputs with c <= b are reset to inf, so
    the blocks' extra cells never win. Stage K is the same step with c
    pinned to the endpoint, so K = 1 needs no case of its own. Every pair
    is kept, so the result is exact. Ties go to the smallest a, and in the
    final pick over V[:, end] to the smallest b. Time is O(K n^3) and
    memory O(K n^2), the predecessor table at one byte per entry up to
    n = 256 and two beyond: about 0.04 s at n = 128 and 19 s at n = 1024
    with K = 20 on one Xeon thread. The name, and the "beam" that
    :attr:`Schedule.algorithm` reads for alpha > 0, are kept.
    """
    if not cfg.alpha > 0:
        raise ValueError("las_beam requires alpha > 0; use las_exact for alpha = 0")
    K = cfg.K
    _feasible(profile, K)
    n = profile.n
    end = n - 1
    eta = eta_axis(profile.gammas, cfg.lam)
    ell = np.log(profile.gammas)
    dl = ell[None, :] - ell[:, None]  # dl[x, y] = ell_y - ell_x = -dl[y, x]
    L = profile.losses
    alpha = cfg.alpha

    # stage k holds pairs (a, b) at positions (k - 1, k); loop bounds keep
    # every pair extendable to the pinned endpoint
    V = np.full((n, n), np.inf)
    V[0, 1 : end - (K - 1) + 1] = (eta[1 : end - (K - 1) + 1] - eta[0]) * L[0]
    par = np.zeros((K + 1, n, n), dtype=np.min_scalar_type(end))
    # one b's plane has A + C = n - K + 1, so at most (n - K + 1)^2 / 4 cells
    size = max(_BLOCK_CELLS, (n - K + 1) ** 2 // 4)
    cost_buf, dh_buf = np.empty(size), np.empty(size)
    c_le_b = np.tri(n, dtype=bool)
    for k in range(2, K + 1):
        hi_c = end - (K - k)
        nxt = np.full((n, n), np.inf)
        b0 = k - 1
        while b0 < hi_c:
            c0 = end if k == K else b0 + 1
            C = hi_c + 1 - c0
            b1 = b0 + 1
            while b1 < hi_c and (b1 + 2 - k) * (b1 + 1 - b0) * C <= _BLOCK_CELLS:
                b1 += 1
            A, B = b1 - k + 1, b1 - b0
            ia, ib, ic = slice(k - 2, b1 - 1), slice(b0, b1), slice(c0, hi_c + 1)
            cost = cost_buf[: A * B * C].reshape(B, C, A)
            dh = dh_buf[: A * B * C].reshape(B, C, A)
            step = (eta[ic] - eta[ib, None]) * L[ib, None]
            np.add(V[ia, ib].T.copy()[:, None, :], step[:, :, None], out=cost)  # contiguous a
            np.add(dl[ib, ic, None], dl[ib, None, ia], out=dh)  # dl[b, c] - dl[a, b]
            dh *= dh
            dh *= alpha
            cost += dh
            arg = cost.argmin(axis=2)
            # flat offset of each (b, c) row's first minimum
            nxt[ib, ic] = cost_buf.take(arg + np.arange(0, A * B * C, A).reshape(B, C))
            par[k, ib, ic] = arg + (k - 2)
            b0 = b1
        nxt[c_le_b] = np.inf
        V = nxt

    b, c = int(np.argmin(V[:, end])), end
    indices = [end, b]
    for k in range(K, 1, -1):
        b, c = int(par[k, b, c]), b
        indices.append(b)
    indices.reverse()
    return _make_schedule(profile, indices, cfg)
