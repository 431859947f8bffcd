"""Global numeric policy record.

All validation thresholds in the package read from one module-level record,
so each tolerance is defined in one place.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    hermiticity_tol: float = 1e-12
    trace_tol: float = 1e-12
    eigenvalue_floor: float = -1e-10
    unitarity_tol: float = 1e-10
    axis_unit_tol: float = 1e-9
    visibility_floor: float = 1e-9
    overlap_floor: float = 0.1
    antipode_guard: float = 1e-6
    path_closure_tol: float = 1e-9
    path_unit_tol: float = 1e-9
    state_norm_tol: float = 1e-10
    direction_tol: float = 1e-9


POLICY = NumericPolicy()

