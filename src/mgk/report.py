"""Structure reports: one solved structure with its invariant panel, as
a document of the stable versioned JSON schema `mgk/1`.  The document
is the report's only model: `report_to_json` writes it as JSON and
`report_to_text` as the text report.

`build_report` gates a bare point on its `residuals`.  `build_reports`
reports the records of one signature that `deformation.solve_fillings`
hands out, each gated on its own residual vector with no evaluation, and
a refused record is its own error.
`to_json` and `SCHEMA` are those of `jsontext`, the standard-library
writer of every JSON document of the package, re-exported here."""

import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import cusp_invariants as ci
from .commensurability_xk import XkSignature, abc
from .deformation import (
    GKSignature, _coefficients, _cusp_count_error, _structure_rows, _uv, angle_blocks, check_coords, residuals
)
from .hyptrig import DomainError, FillingSpec, slope_text
from .jsontext import SCHEMA, to_json

# residual sup-norm above which a structure is not reported
RESIDUAL_TOL = 1e-9


def build_report(sig: GKSignature, spec: FillingSpec, x: np.ndarray) -> dict:
    """The `mgk/1` document of the point x of `spec`, its invariant panel:
    the one gate of a bare point.  Raises the DomainError of a point that
    is not a coordinate vector, one whose residual norm, the max of
    `residuals` at x, is not below RESIDUAL_TOL, a spec whose cusp count is
    not k, or a panel entry undefined at the point (such as the core
    length of a filled cusp that is complete)."""
    x = check_coords(sig, x)
    return _panel(sig, spec, x, float(np.abs(residuals(sig, x)).max()))


def build_reports(sig: GKSignature, specs: Sequence[FillingSpec], records) -> list:
    """`build_report` for each spec and its `deformation.Solved` record from
    `solve_fillings`, of the same length.  Returns, per pair, the document
    or the DomainError that refuses it.  A record whose x is an error is
    its own result.  The others are gated on the max of the structure rows
    (`_structure_rows`) of the record's residual, which is the max of
    `residuals` at x, bit for bit."""
    out = []
    for spec, rec in zip(specs, records, strict=True):
        rep = rec.x
        if not isinstance(rep, Exception):
            try:
                rep = _panel(sig, spec, rep, float(np.abs(_structure_rows(rec.residual, sig.k)).max()))
            except DomainError as exc:
                rep = exc
        out.append(rep)
    return out


def _c2j(z):
    return None if z is None else [z.real, z.imag]


def _panel(sig: GKSignature, spec: FillingSpec, x: np.ndarray, res: float) -> dict:
    """The document of the point x of `spec`, of residual norm `res`, with
    its keys in the schema's order.  Refused (DomainError) unless `res` is
    below RESIDUAL_TOL."""
    if not res < RESIDUAL_TOL:
        raise DomainError("residual norm %g above reporting tolerance %g" % (res, RESIDUAL_TOL))
    exc = _cusp_count_error(sig, spec)
    if exc is not None:
        raise exc
    cusps = []
    # one read of the gammas, and one (u, v) per cusp, serve every invariant of the cusps
    for c, (pq, (gA, gB)) in enumerate(zip(spec.pairs, angle_blocks(x)[:, :, 1].tolist())):
        u, v = _uv(gA, gB)
        coeffs, cl, modulus = _coefficients(u, v, c), None, None
        if pq is None:
            modulus = ci._modulus(gB, u, c)
        elif float(pq[0]).is_integer() and float(pq[1]).is_integer():
            cl = ci._complex_length(u, v, c, (int(pq[0]), int(pq[1])))
        cusps.append(
            {
                "u": _c2j(u),
                "v": _c2j(v),
                "coefficients": "inf" if coeffs is None else list(coeffs),
                "coefficients_error": _coefficients_error(pq, u, v, coeffs),
                "complex_length": _c2j(cl),
                "modulus": _c2j(modulus),
            }
        )
    inv = abc(x, XkSignature(sig.k)) if sig.k % 2 == 1 and sig.g == sig.k + 1 else None
    return {
        "schema": SCHEMA,
        "signature": {"g": sig.g, "k": sig.k},
        "filling": ["inf" if pq is None else [float(pq[0]), float(pq[1])] for pq in spec.pairs],
        "coords": x.tolist(),
        "residual_max": res,
        "cusps": cusps,
        "return_path_length": ci.return_path_length(x),
        "homology_rank": ci.homology_rank(sig, spec.filled_count),
        "heegaard_genus": ci.heegaard_genus(sig),
        "abc": None if inv is None else [inv.a, inv.b, inv.c],
    }


def _coefficients_error(pq, u: complex, v: complex, coeffs) -> Optional[float]:
    """None on an unfilled cusp, else a bound on the distance of both
    recovered coefficients `coeffs` from the nearer of +-pq, the
    unoriented slope filled, taken from the cusp's (u, v).
    `_coefficients` solves the real system M (p, q) = (0, 2 pi), with
    M = [Re u, Re v; Im u, Im v]; the slope meets it up to the residual
    rho = p u + q v -+ 2 pi i, so each coefficient is off by at most
    |rho| |M^-1|, and |M^-1| is at most |M|_F / |det M| =
    sqrt(|u|^2 + |v|^2) / |det M|.  Added: the rounding of rho, and that
    of the solve, whose det loses |u| |v| / |det M| units in the last
    place."""
    if pq is None or coeffs is None:
        return None
    p, q = pq
    eps = sys.float_info.epsilon
    det = abs(u.real * v.imag - u.imag * v.real)
    w = p * u + q * v
    rho = min(abs(w - 2j * math.pi), abs(w + 2j * math.pi))
    rho += 4.0 * eps * (abs(p * u) + abs(q * v) + 2.0 * math.pi)
    solve = 4.0 * eps * (1.0 + abs(u) * abs(v) / det) * max(map(abs, coeffs))
    return rho * math.hypot(abs(u), abs(v)) / det + solve


def _certain(c: float, err) -> str:
    """c to 9 significant digits, but to no decimal place whose half unit
    its error bound `err` reaches: rounded there, an integer slope prints
    exactly."""
    if err is not None and math.isfinite(err):
        places = math.ceil(-math.log10(2.0 * err)) - 1
        # %.9g shows 8 - e decimals, e the exponent of c to 9 digits
        if places < 8 - int(("%.8e" % c).split("e")[1]):
            c = round(c, places) + 0.0
    return "%.9g" % c


def _fmt_c(z) -> str:
    return "%.12g%+.12gi" % tuple(z)


def report_to_text(doc: dict) -> str:
    """The text report of the document `doc`."""
    lines = [
        "signature       g=%(g)d k=%(k)d" % doc["signature"],
        "filling         %s" % ", ".join(slope_text(None if pq == "inf" else pq) for pq in doc["filling"]),
        "residual max    %.3g" % doc["residual_max"],
    ]
    for i, c in enumerate(doc["cusps"]):
        coeff = c["coefficients"]
        if coeff != "inf":
            coeff = "(%s)" % ", ".join(_certain(x, c["coefficients_error"]) for x in coeff)
        extra = ""
        if c["modulus"] is not None:
            extra = "  modulus %s" % _fmt_c(c["modulus"])
        if c["complex_length"] is not None:
            extra = "  core length %s" % _fmt_c(c["complex_length"])
        lines.append(
            "cusp %-2d         u %s  v %s  coeff %s%s" % (i + 1, _fmt_c(c["u"]), _fmt_c(c["v"]), coeff, extra)
        )
    lines.append("return path     %.12g" % doc["return_path_length"])
    lines.append("homology rank   %d" % doc["homology_rank"])
    lines.append("heegaard genus  %d" % doc["heegaard_genus"])
    if doc["abc"] is not None:
        lines.append("abc             (%.12g, %.12g, %.12g)" % tuple(doc["abc"]))
    return "\n".join(lines)


def report_to_json(doc: dict) -> str:
    """The JSON text of the report `doc`: `to_json`, under the name that
    perfbench's traced runs time as the report's writer."""
    return to_json(doc)
