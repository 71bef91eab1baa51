"""Hyperbolic structures, Dehn fillings and invariants for the (g, k)
family of cusped 3-manifolds with geodesic boundary."""

from .deformation import (
    CompleteSolution,
    ContinuationError,
    ConvergenceError,
    GKSignature,
    dehn_coefficients,
    jacobian,
    residuals,
    solve_complete,
    solve_filling,
    solve_fillings,
    tangent_basis,
    uv,
    varsigma_derivatives,
    varsigma_point,
)
from .hyptrig import DomainError, FillingSpec

__all__ = [
    "CompleteSolution",
    "ContinuationError",
    "ConvergenceError",
    "DomainError",
    "FillingSpec",
    "GKSignature",
    "dehn_coefficients",
    "jacobian",
    "residuals",
    "solve_complete",
    "solve_filling",
    "solve_fillings",
    "tangent_basis",
    "uv",
    "varsigma_derivatives",
    "varsigma_point",
]

__version__ = "0.1.0"
