"""Structure reports: one solved structure with its invariant panel,
serializable to a stable versioned JSON document.

`build_reports` reports the solved points of one signature together, as
`deformation.solve_fillings` solves them: one stacked residual
evaluation gates them all, and a refused point is its own error.
`to_json` writes every JSON document of the package, the text of
`json.dumps(doc, indent=2, allow_nan=False)`."""

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import cusp_invariants as ci
from .commensurability_xk import XkSignature, abc
from .deformation import (
    FillingSpec,
    GKSignature,
    _coefficients,
    check_coords,
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
    report anything whose residual norm is not below RESIDUAL_TOL.  This
    is `build_reports` on the one structure."""
    (rep,) = build_reports(sig, [spec], [x])
    if isinstance(rep, Exception):
        raise rep
    return rep


def build_reports(sig: GKSignature, specs: Sequence[FillingSpec], xs) -> list:
    """`build_report` for each pair of `specs` and solved points `xs` of
    one signature.  Returns, per pair, the report or the DomainError that
    refuses it: a point that is not a coordinate vector, or one whose
    residual norm is not below RESIDUAL_TOL.  One stacked `residuals`
    evaluation gates them all."""
    out = []
    for x in xs:
        try:
            out.append(check_coords(sig, x))
        except DomainError as exc:
            out.append(exc)
    ok = [i for i, x in enumerate(out) if not isinstance(x, Exception)]
    if ok:
        norms = np.abs(residuals(sig, np.array([out[i] for i in ok]))).max(axis=1).tolist()
        for i, res in zip(ok, norms):
            if res < RESIDUAL_TOL:
                out[i] = _panel(sig, specs[i], out[i], res)
            else:
                out[i] = DomainError("residual norm %g above reporting tolerance %g" % (res, RESIDUAL_TOL))
    return out


def _panel(sig: GKSignature, spec: FillingSpec, x: np.ndarray, res: float) -> StructureReport:
    """The report of the point x of `spec`, of residual norm `res`."""
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
        coords=x.tolist(),
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
    """The JSON text of a document of dicts with str keys, lists, tuples,
    str, bool, None, int and float: byte for byte that of
    `json.dumps(doc, indent=2, allow_nan=False)`, written by one plain
    recursion and one join per list of floats.  Python's float repr is the
    shortest string that parses back to the same double, so values
    round-trip exactly; NaN and infinities, which JSON lacks, are a
    DomainError."""
    return _text(doc, "\n")


_NOT_FINITE = "cannot write JSON: Out of range float values are not JSON compliant"


def _text(o, newline: str) -> str:
    """The JSON text of o, whose lines after the first start with
    `newline` (a newline and the indentation of o)."""
    # the repr of a finite float has no "n"; those of nan, inf and -inf do
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        if "n" in text:
            raise DomainError(_NOT_FINITE)
        return text
    inner = newline + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(type(v) is float for v in o):
            body = sep.join(map(float.__repr__, o))
            if "n" in body:
                raise DomainError(_NOT_FINITE)
        else:
            body = sep.join([_text(v, inner) for v in o])
        return "[" + inner + body + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # _quote raises the TypeError of a key that is not a str
        body = sep.join([_quote(key) + ": " + _text(v, inner) for key, v in o.items()])
        return "{" + inner + body + newline + "}"
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def report_to_json(rep: StructureReport) -> str:
    return to_json(report_to_dict(rep))
