"""Hyperbolic structures, Dehn fillings and invariants for the (g, k)
family of cusped 3-manifolds with geodesic boundary.

`import mgk` loads the standard-library half only: the errors and
`FillingSpec` of `hyptrig`.  The first solver name read from the package
(`mgk.residuals`, say) imports the numpy half together, the modules of
`_NUMPY_HALF`, and binds every solver name here (PEP 562), so that after
it every module of the package that uses numpy is loaded."""

import importlib

from .hyptrig import ConvergenceError, DomainError, FillingSpec

# the names re-exported from `deformation`
_SOLVER = (
    "CompleteSolution",
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
)
_NUMPY_HALF = ("deformation", "cusp_invariants", "commensurability_xk", "report", "boundary_trace")

__all__ = sorted(_SOLVER + ("ConvergenceError", "DomainError", "FillingSpec"))

__version__ = "0.1.0"


def __getattr__(name):
    if name in _NUMPY_HALF:
        # a submodule not yet imported, as `import mgk.<name>` would
        return importlib.import_module("." + name, __name__)
    if name not in _SOLVER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    for module in _NUMPY_HALF:
        importlib.import_module("." + module, __name__)
    deformation = globals()["deformation"]
    globals().update((n, getattr(deformation, n)) for n in _SOLVER)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
