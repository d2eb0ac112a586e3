"""Residual accumulator and both readings of the feedback rule.

The accumulator of a block is one residual array ``r``.  "paper" mode
keeps adding each step's residual without ever consuming it, which
double-counts under persistent error and can grow without bound;
"ef-standard" stores only the newest residual (consume-on-apply).  Both
are exposed because the divergence behaviour of the additive rule is
itself something the harness reports.
"""

from __future__ import annotations

import numpy as np

from .errors import DimError
from .linalg import matvec_t

MODES = ("paper", "ef-standard")
PROBES = ("exact", "none")


def correct(g_tilde: np.ndarray, r: np.ndarray) -> np.ndarray:
    """g^ = g~ + r."""
    if g_tilde.shape != r.shape:
        raise DimError(f"correct: {g_tilde.shape} vs {r.shape}")
    return g_tilde + r


def estimate_delta(j, delta, g_tilde: np.ndarray, probe: str) -> np.ndarray:
    """Residual estimate D of g - g~ for this step.

    probe="exact" materializes the chain-rule gradient j.T @ delta (the
    desk scale affords it) and returns g - g~; probe="none" returns a fresh
    float64 zero vector of g~'s shape, i.e. no feedback information at all.
    """
    if probe == "exact":
        g = matvec_t(j, delta)
        if g.shape != g_tilde.shape:
            raise DimError(f"estimate_delta: {g.shape} vs {g_tilde.shape}")
        return g - g_tilde
    if probe == "none":
        return np.zeros(g_tilde.shape)
    raise ValueError(f"unknown probe {probe!r}")


def update_accumulator(r: np.ndarray, residual: np.ndarray, mode: str) -> np.ndarray:
    """paper: r' = r + D (additive); ef-standard: r' = D."""
    if r.shape != residual.shape:
        raise DimError(f"update_accumulator: {r.shape} vs {residual.shape}")
    if mode == "paper":
        return r + residual
    if mode == "ef-standard":
        return residual.copy()
    raise ValueError(f"unknown accumulator mode {mode!r}")
