"""Structure reports: one solved structure with its invariant panel,
serializable to a stable versioned JSON document."""

import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import cusp_invariants as ci
from .commensurability_xk import XkSignature, abc
from .deformation import (
    FillingSpec,
    GKSignature,
    _coefficients,
    residuals,
    uv,
)
from .hyptrig import DomainError

SCHEMA = "mgk/1"
# residual sup-norm above which a structure is not reported
RESIDUAL_TOL = 1e-9


@dataclass
class CuspReport:
    u: complex
    v: complex
    coefficients: Optional[Tuple[float, float]]
    complex_length: Optional[complex]
    modulus: Optional[complex]


@dataclass
class StructureReport:
    g: int
    k: int
    filling: tuple
    coords: List[float]
    residual_max: float
    cusps: List[CuspReport]
    return_path_length: float
    homology_rank: int
    heegaard_genus: int
    abc: Optional[Tuple[float, float, float]] = None


def build_report(sig: GKSignature, spec: FillingSpec, x: np.ndarray) -> StructureReport:
    """Assemble the invariant panel of a solved structure.  Refuses to
    report anything whose residual norm is not below RESIDUAL_TOL."""
    res = float(np.max(np.abs(residuals(sig, x))))
    if not res < RESIDUAL_TOL:
        raise DomainError("residual norm %g above reporting tolerance %g" % (res, RESIDUAL_TOL))
    cusps = []
    for c, pq in enumerate(spec.pairs):
        # one (u, v) per cusp serves every invariant of the cusp
        u, v = uv(x, c)
        coeffs, cl, modulus = _coefficients(u, v, c), None, None
        if pq is None:
            modulus = ci._modulus(x, u, c)
        elif float(pq[0]).is_integer() and float(pq[1]).is_integer():
            cl = ci._complex_length(u, v, c, (int(pq[0]), int(pq[1])))
        cusps.append(CuspReport(u=u, v=v, coefficients=coeffs, complex_length=cl, modulus=modulus))
    h = spec.filled_count
    report = StructureReport(
        g=sig.g,
        k=sig.k,
        filling=spec.pairs,
        coords=[float(v) for v in x],
        residual_max=res,
        cusps=cusps,
        return_path_length=ci.return_path_length(x),
        homology_rank=ci.homology_rank(sig, h),
        heegaard_genus=ci.heegaard_genus(sig),
    )
    if sig.k % 2 == 1 and sig.g == sig.k + 1:
        inv = abc(x, XkSignature(sig.k))
        report.abc = (inv.a, inv.b, inv.c)
    return report


def _c2j(z: Optional[complex]):
    return None if z is None else [z.real, z.imag]


def report_to_dict(rep: StructureReport) -> dict:
    return {
        "schema": SCHEMA,
        "signature": {"g": rep.g, "k": rep.k},
        "filling": [
            "inf" if pq is None else [float(pq[0]), float(pq[1])] for pq in rep.filling
        ],
        "coords": list(rep.coords),
        "residual_max": rep.residual_max,
        "cusps": [
            {
                "u": _c2j(c.u),
                "v": _c2j(c.v),
                "coefficients": "inf" if c.coefficients is None else list(c.coefficients),
                "complex_length": _c2j(c.complex_length),
                "modulus": _c2j(c.modulus),
            }
            for c in rep.cusps
        ],
        "return_path_length": rep.return_path_length,
        "homology_rank": rep.homology_rank,
        "heegaard_genus": rep.heegaard_genus,
        "abc": None if rep.abc is None else list(rep.abc),
    }


def to_json(doc) -> str:
    """The JSON text of a document.  Python's float repr is the shortest
    string that parses back to the same double, so values round-trip
    exactly; NaN and infinities, which JSON lacks, are a DomainError."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError("cannot write JSON: %s" % exc) from None


def report_to_json(rep: StructureReport) -> str:
    return to_json(report_to_dict(rep))
