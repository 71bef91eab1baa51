"""Structure reports: one solved structure with its invariant panel, as
a document of the stable versioned JSON schema `mgk/1`.  The document
is the report's only model: `report_to_json` writes it as JSON and
`report_to_text` as the text report.  report_to_json writes `to_json`'s
bytes, at any starting indent, from cached formats: one for the head,
cut by `jsontext.template` from the text of a document of the report's
keys, and one per kind of cusp and of filling entry
(`jsontext.entries_text`), with the coords in one join of float reprs.

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
    GKSignature, _coefficients, _cusp_count_error, _uv, angle_blocks, check_coords, residuals
)
from .hyptrig import DomainError, FillingSpec, slope_text
from .jsontext import SCHEMA, SLOT, entries_text, float_texts, separator, template, to_json

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
    of the record's residual vector r, rows 0-9 of each 12-row block and
    the total angle r[-1], which is the max of `residuals` at x, bit for
    bit.  The max stays in numpy, which keeps a NaN in any row."""
    out = []
    for spec, rec in zip(specs, records, strict=True):
        rep = rec.x
        if not isinstance(rep, Exception):
            r = rec.residual
            try:
                rep = _panel(sig, spec, rep, float(np.abs(r[:-1].reshape(sig.k, 12)[:, :10]).max(initial=abs(r[-1]))))
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


def report_to_json(doc: dict, indent: int = 0) -> str:
    """The JSON text of the report `doc`, `indent` spaces in: that of
    `to_json(doc, indent)`, byte for byte, filled into cached formats.
    The head's is cut from the text of a document of doc's keys
    (`jsontext.template`); the coords are one join of float reprs; and
    each entry of "filling" and "cusps", and the abc value, is filled into
    the format of its kind (`jsontext.entries_text`), so that the formats
    grow with the kinds of cusp, not with the 2^k filled masks of a list.
    A document these formats do not fit, such as one with a non-finite
    float, is written by `to_json`, which raises its DomainError or
    TypeError.  perfbench's traced runs time this name as the report's
    writer."""
    try:
        return _report_text(doc, indent)
    # to_json writes, or refuses as json.dumps would, what the formats do not fit
    except (TypeError, ValueError, AttributeError):
        return to_json(doc, indent)


# report_to_json's head formats, by indent and keys
_HEADS = {}


def _report_text(doc: dict, indent: int) -> str:
    """report_to_json's text of doc, or the TypeError, ValueError or
    AttributeError of a document its formats do not fit, such as one
    whose values are not of the kinds of `_panel`'s, in its order."""
    schema, signature, filling, coords, res, cusps, path, rank, genus, inv = doc.values()
    g, k = signature.values()
    *numbers, res, path = float_texts([*coords, res, path])
    if not numbers:
        raise ValueError("to_json writes an empty list as []")
    key = (indent, tuple(doc), tuple(signature))
    head = _HEADS.get(key)
    if head is None:
        # every value a slot; the lists one slot each, for their entries
        sample = dict.fromkeys(doc, SLOT)
        sample[key[1][1]] = dict.fromkeys(signature, SLOT)
        for i in (2, 3, 5):
            sample[key[1][i]] = [SLOT]
        head = _HEADS[key] = template(sample, indent)
    # doc's values start 2 spaces in, the signature's and the lists' entries 4
    at2, at4 = indent + 2, indent + 4
    return head % (to_json(schema, at2), to_json(g, at4), to_json(k, at4), entries_text(filling, at4),
                   separator(at4).join(numbers), res, entries_text(cusps, at4), path, to_json(rank, at2),
                   to_json(genus, at2), entries_text([inv], at2))
