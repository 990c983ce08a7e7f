"""Span tracer for one CLI op, installed from outside the package.

:meth:`Tracer.install` replaces each public function listed in ``TARGETS``
with a timing wrapper. Module-level functions are matched by identity in
every ``snrsched.*`` namespace, because ``cli``, ``functionals`` and
``sampler`` bind them with ``from .channel import ...``; methods are
patched on their class. A target that no longer exists is recorded as
absent. Spans stay in memory until :meth:`Tracer.dump`.

This module uses the standard library only, so importing it adds nothing
to the traced op besides the wrappers themselves.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_FLOAT = 8  # bytes per float64


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


def _n_atoms(dist) -> int:
    for attr in ("means", "points"):
        arr = getattr(dist, attr, None)
        if arr is not None:
            return int(arr.shape[0])
    return 0


def _kernel_info(args, kwargs):
    # (dist, t, X): the kernel builds an (m, n, d) difference tensor
    dist, X = args[0], args[2] if len(args) > 2 else kwargs.get("X")
    m = _rows(X)
    d = int(X.shape[-1]) if getattr(X, "ndim", 0) >= 1 else 1
    return {"rows": m, "tensor_bytes": m * _n_atoms(dist) * d * _FLOAT}


def _gamma_info(args, kwargs):
    gamma = args[1] if len(args) > 1 else kwargs.get("gamma")
    return {"gamma": float(gamma)}


def _log_prob_info(args, kwargs):
    return {"rows": _rows(args[1] if len(args) > 1 else kwargs.get("x"))}


def _sample_rows_info(args, kwargs):
    return {"rows": int(args[1] if len(args) > 1 else kwargs.get("n"))}


def _exact_info(args, kwargs):
    cands, cfg = args[0], args[1] if len(args) > 1 else kwargs.get("cfg")
    n, K = int(cands.n), int(cfg.K)
    end = n - 1
    # predecessor scans of the DP: stage k >= 2 scans j predecessors for
    # every reachable j, and the final step scans all of [0, end)
    cells = end
    for k in range(2, K):
        lo, hi = k, end - (K - k)
        cells += (lo + hi) * (hi - lo + 1) // 2
    return {"n": n, "K": K, "cells": cells}


def _beam_info(args, kwargs):
    return {"n": int(args[0].n)}


def _tie_breaks(result):
    return {"tie_breaks": int(getattr(result, "tie_breaks", 0))}


# (span name, module, attribute path, argument info, result info)
TARGETS = [
    ("channel.posterior_cov_stats", "snrsched.channel", "posterior_cov_stats", _kernel_info, None),
    ("channel.posterior_mean", "snrsched.channel", "posterior_mean", _kernel_info, None),
    ("channel.mmse", "snrsched.channel", "mmse", _gamma_info, None),
    ("channel.integral", "snrsched.channel", "MmseCurve.integral", None, None),
    ("functionals.error_report", "snrsched.functionals", "error_report", None, None),
    ("functionals.disc_error", "snrsched.functionals", "disc_error", None, None),
    ("functionals.apx_error", "snrsched.functionals", "apx_error", None, None),
    ("functionals.LossProfile.from_csv", "snrsched.functionals", "LossProfile.from_csv", None, None),
    ("schedules.las_exact", "snrsched.schedules", "las_exact", _exact_info, _tie_breaks),
    ("schedules.las_beam", "snrsched.schedules", "las_beam", _beam_info, None),
    ("sampler.sample", "snrsched.sampler", "sample", None, None),
    ("sampler.reverse_step", "snrsched.sampler", "reverse_step", None, None),
    ("targets.log_prob", "snrsched.targets", "GaussianMixture.log_prob", _log_prob_info, None),
    ("targets.sample", "snrsched.targets", "GaussianMixture.sample", _sample_rows_info, None),
    ("targets.sample", "snrsched.targets", "FiniteDiscrete.sample", _sample_rows_info, None),
    ("targets.target_from_json", "snrsched.targets", "target_from_json", None, None),
    ("cli.main", "snrsched.cli", "main", None, None),
]


class Tracer:
    """Records (name, parent, start, end, info) spans for one op."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, arg_info=None, result_info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            if arg_info is not None:
                rec[4] = arg_info(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if result_info is not None:
                rec[4] = {**(rec[4] or {}), **result_info(out)}
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "snrsched" or k.startswith("snrsched.")]
        for name, modname, path, arg_info, result_info in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{modname}.{path}")
                continue
            if owner_name:
                # a method: patch the class, which every namespace shares
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__, arg_info, result_info)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, arg_info, result_info))
                continue
            wrapper = self.wrap(name, raw, arg_info, result_info)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "op_id": self.op_id,
                    "absent": self.absent,
                    "fields": ["name", "parent", "start", "end", "info"],
                    "spans": self.spans,
                },
                fh,
            )
