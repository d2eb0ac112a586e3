"""``ef_mode``, the one feedback switch: the exact residual and its rules.

Under a rule a step reads the exact probe ``g = J^T d`` and feeds the
residual ``D = g - g~`` to one accumulator ``r`` of length d, which the
next update adds back.  The probe is the problem's (`Problem.probe`): it
needs the problem's activation cache and the m-vector signal, not a
materialized J, and the MLP answers it by one reverse pass.  "paper"
keeps adding each ``D`` without ever consuming it, which double-counts
under persistent error and can grow without bound (the harness reports
that divergence); "ef-standard" keeps only the newest (consume-on-apply).
"off" reads no probe and keeps none.
"""

from __future__ import annotations

import numpy as np

from .errors import DimError

EF_MODES = ("paper", "ef-standard", "off")


def correct(g_tilde: np.ndarray, r: np.ndarray) -> np.ndarray:
    """g^ = g~ + r."""
    if g_tilde.shape != r.shape:
        raise DimError(f"correct: {g_tilde.shape} vs {r.shape}")
    return g_tilde + r


def estimate_delta(problem, theta, delta, g_tilde: np.ndarray) -> np.ndarray:
    """D = g - g~, from the exact probe g = J^T delta at theta (`problem.probe`)."""
    g = problem.probe(theta, delta)
    if g.shape != g_tilde.shape:
        raise DimError(f"estimate_delta: {g.shape} vs {g_tilde.shape}")
    return g - g_tilde


def update_accumulator(r: np.ndarray, residual: np.ndarray, mode: str) -> np.ndarray:
    """paper: r' = r + D (additive); ef-standard: r' = D itself, not a copy."""
    if r.shape != residual.shape:
        raise DimError(f"update_accumulator: {r.shape} vs {residual.shape}")
    if mode == "paper":
        return r + residual
    if mode == "ef-standard":
        return residual
    raise ValueError(f"unknown accumulator mode {mode!r}")
