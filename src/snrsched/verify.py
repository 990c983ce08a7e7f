"""Checks of a target's oracle and entropy properties behind ``snrsched verify``.

The library's own invariants are pinned by its test suite; what a test suite
cannot check is the target a user brings. Every check here is one row
``(label, fn)`` of the module table, registered by the :func:`_check`
decorator on its function, so a row's label sits next to its code and the
rows run in the order they appear here. ``fn(target, rng, seed)`` returns
``(ok, message)``, or None when the row does not apply to the target: the
entropy rows need a finite discrete target, and the rows that difference or
integrate the mmse curve need the deterministic quadrature of dim <= 2.
:func:`run_checks` gives each target its own ``default_rng(seed)``, so a
target's results do not depend on which other targets run, and prints one
line per check. A check that raises counts as a failure and the remaining
checks still run.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (
    MmseCurve,
    _responsibilities,
    mmse,
    mmse_derivative,
    posterior_fourth_moment,
)
from .functionals import disc_error
from .schedules import grid_geometric
from .targets import FiniteDiscrete, _KernelTable, fit_subexponential, renyi_half_entropy, shannon_entropy

__all__ = ["run_checks"]

_CHECKS: list = []  # (label, fn) rows in run order


def _check(label: str):
    """Register the decorated function as the row ``(label, fn)``."""

    def register(fn):
        _CHECKS.append((label, fn))
        return fn

    return register


def _leq(a, b, what="value", slack=0.0) -> tuple:
    ok = a <= b + slack
    return ok, f"{what}: {a:.12g} <= {b:.12g}" + (f" + {slack:g}" if slack else "")


@_check("posterior weights normalize")
def _weights_sum(target, rng, seed):
    X = rng.normal(size=(1, target.dim))
    total = float(_responsibilities(_KernelTable(target, 0.5), X.T)[:, 0].sum())
    return abs(total - 1.0) <= 1e-10, f"posterior weight sum: {total:.12g} vs 1 (tol 1e-10)"


@_check("mmse nonincreasing")
def _monotone(target, rng, seed):
    curve = MmseCurve(target, n_samples=20_000, seed=seed)
    knots = [curve.mmse(g) for g in (0.25, 1.0, 4.0, 16.0)]
    for (v1, s1), (v2, s2) in zip(knots, knots[1:]):
        if v1 < v2 - 3 * math.hypot(s1, s2) - 1e-12:
            return False, f"mmse increased: {v1:.4g} -> {v2:.4g}"
    return True, "mmse nonincreasing on probe knots"


@_check("discretization error nonnegative")
def _disc_nonneg(target, rng, seed):
    if target.dim > 2:
        return None
    v = disc_error(MmseCurve(target), grid_geometric(1.0, 1e-2, 8))
    return _leq(0.0, v, "0 <= E_disc", 1e-12)


@_check("entropy ordering H <= H_1/2 <= log n")
def _entropy_ordering(target, rng, seed):
    if not isinstance(target, FiniteDiscrete):
        return None
    H, R = shannon_entropy(target), renyi_half_entropy(target)
    ok = H <= R + 1e-12 and R <= math.log(target.n_atoms) + 1e-12
    return ok, f"H={H:.12g}, H_1/2={R:.12g}, log n={math.log(target.n_atoms):.12g} (slack 1e-12)"


@_check("mmse below prior variance")
def _below_prior(target, rng, seed):
    curve = MmseCurve(target, n_samples=20_000, seed=seed)
    var = target.cov_trace()
    for g in (0.1, 1.0, 10.0):
        v, se = curve.mmse(g)
        if v > var + 3 * se + 1e-12:
            return False, f"mmse({g}) = {v:.12g} exceeds prior variance {var:.12g}"
    return True, f"mmse <= prior covariance trace {var:.12g} at gamma in {{0.1, 1, 10}}"


@_check("mmse derivative matches finite differences")
def _derivative(target, rng, seed):
    if target.dim > 2:
        return None
    for g in (0.5, 2.0, 8.0):
        dv = mmse_derivative(target, g)[0]
        h = 1e-4 * g
        fd = (mmse(target, g + h)[0] - mmse(target, g - h)[0]) / (2 * h)
        if abs(dv - fd) > 5e-3 * max(abs(fd), 1e-12):
            return False, f"gamma={g}: -E tr(Cov^2)={dv:.6g} vs fd={fd:.6g} (rel tol 5e-3)"
    return True, "matches central differences at gamma in {0.5, 2, 8} (rel tol 5e-3)"


@_check("sub-exponential fit bounds the Renyi gap")
def _fitted_gap(target, rng, seed):
    if not isinstance(target, FiniteDiscrete):
        return None
    bound = shannon_entropy(target) + 0.5 * fit_subexponential(target)
    return _leq(renyi_half_entropy(target), bound, "H_1/2 <= H + nu^2/2", 1e-10)


@_check("fourth moment dominates tr(Cov^2)")
def _fourth_moment(target, rng, seed):
    if not isinstance(target, FiniteDiscrete):
        return None
    t = 0.25
    fr, fse = mmse_derivative(target, 1.0 / t, n_samples=20_000, seed=seed)
    v4, se = posterior_fourth_moment(target, t, 50_000, rng.integers(2**32))
    return _leq(abs(fr), v4 + 3 * math.hypot(se, fse), "E tr(Cov^2) <= E|Z'-Z|^4 + 3 se")


@_check("I-MMSE integral within Riemann bracket")
def _integral_bracket(target, rng, seed):
    if target.dim > 2:
        return None
    curve = MmseCurve(target)
    knots = np.geomspace(0.25, 64.0, 17)
    vals = np.array([curve.mmse(g)[0] for g in knots])
    widths = np.diff(knots)
    right, left = float(widths @ vals[1:]), float(widths @ vals[:-1])
    area = curve.integral(knots[0], knots[-1])
    slack = 1e-9 * left + 1e-12
    ok = right - slack <= area <= left + slack
    return ok, f"{right:.12g} <= {area:.12g} <= {left:.12g} (slack {slack:.3g})"


def run_checks(targets: dict, seed: int) -> list:
    """Run every applicable row on each target of ``{name: target}``.

    Prints ``[PASS]``/``[FAIL]`` per check and a summary line, and returns
    one ``{"target", "label", "ok", "message"}`` dict per check.
    """
    results = []
    for name, target in targets.items():
        rng = np.random.default_rng(seed)
        for label, fn in _CHECKS:
            try:
                outcome = fn(target, rng, seed)
                if outcome is None:
                    continue
                ok, msg = outcome
            except Exception as exc:  # a crash is a failure, not an abort
                ok, msg = False, f"raised {type(exc).__name__}: {exc}"
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} ({msg})")
            results.append({"target": name, "label": label, "ok": bool(ok), "message": msg})

    passed = sum(r["ok"] for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return results
