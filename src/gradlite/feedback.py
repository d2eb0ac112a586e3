"""``ef_mode``, the one feedback switch: the exact residual and its rules.

`EF_MODES` is the one place a mode is defined: its row is the rule
``r' = rule(r, D)`` that updates the accumulator, and other modules read
the row or the state's ``r``, never a mode name.  Under a rule a step
reads the exact probe ``g = J^T d`` and feeds the residual ``D = g - g~``
to one accumulator ``r`` of length d, which the next update adds back.
The probe is the problem's (`Problem.probe`): it needs the problem's
activation cache and the m-vector signal, not a materialized J, and the
MLP answers it by one reverse pass.  "paper" keeps adding each ``D``
without ever consuming it, which double-counts under persistent error
and can grow without bound (the harness reports that divergence);
"ef-standard" keeps only the newest (consume-on-apply).  "off", a row of
None, reads no probe and keeps no accumulator.
"""

from __future__ import annotations

import numpy as np

from .errors import DimError

# mode -> its accumulator rule r' = rule(r, D); None: no probe, no accumulator.
EF_MODES = {"paper": np.add, "ef-standard": lambda r, residual: residual, "off": None}


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
    """r' = EF_MODES[mode](r, D): paper adds, ef-standard keeps D itself, not a copy."""
    if r.shape != residual.shape:
        raise DimError(f"update_accumulator: {r.shape} vs {residual.shape}")
    rule = EF_MODES.get(mode) if isinstance(mode, str) else None
    if rule is None:
        raise ValueError(f"unknown accumulator mode {mode!r}")
    return rule(r, residual)
