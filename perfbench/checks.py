"""Answer checks for the benchmark.

Every check takes one answer of the program and returns None when it is
right, otherwise the reason it is wrong.  The hexagonal-torus arithmetic (slopes, the order-12
dihedral action, witnesses) is written out here rather than taken from mgk,
so a defect in mgk's slope layer cannot vouch for itself.  Residuals are
evaluated with mgk's own `residuals`, passed in by the caller unwrapped.
"""

import math

SCHEMA = "mgk/1"
# acceptance tolerances of the library: residuals and Dehn round trips
FILL_TOL = 1e-9


# ---------------------------------------------------------------------------
# slopes on the hexagonal torus: (p, q) up to sign, length^2 = p^2 + q^2 - pq


def canonical(p, q):
    return (-p, -q) if p < 0 or (p == 0 and q < 0) else (p, q)


def length_sq(s):
    p, q = s
    return p * p + q * q - p * q


def act(rot, refl, s):
    """r^rot s^refl applied to the slope s (the reflection first), with
    r: (p, q) -> (p - q, p) and s: (p, q) -> (p - q, -q)."""
    p, q = s
    if refl:
        p, q = p - q, -q
    for _ in range(rot % 6):
        p, q = p - q, p
    return canonical(p, q)


def d6_orbit(s):
    return frozenset(act(m, f, s) for m in range(6) for f in (False, True))


def primitive_slopes(max_len_sq):
    """All canonical primitive slopes with length^2 <= max_len_sq."""
    bound = math.isqrt(4 * max_len_sq // 3) + 2
    out = []
    for p in range(0, bound + 1):
        for q in range(-bound, bound + 1):
            s = (p, q)
            if canonical(p, q) == s and s != (0, 0) and math.gcd(p, q) == 1:
                if length_sq(s) <= max_len_sq:
                    out.append(s)
    return out


def apply_witness(perm, local, slopes):
    """Image of a slope set (tuple over tori, None for an empty torus)
    under the isometry: local[i] = (rot, refl) acts on torus i, which is
    then relabelled perm[i]."""
    out = [None] * len(slopes)
    for i, s in enumerate(slopes):
        if s is not None:
            out[perm[i]] = act(local[i][0], local[i][1], s)
    return tuple(out)


# ---------------------------------------------------------------------------
# fillings


def _coeffs_match(requested, got):
    """`requested` is None (complete cusp) or (p, q); `got` is what the
    program reports: None / "inf" for a complete cusp, else a real pair,
    equal to the request up to the sign of the unoriented slope."""
    if requested is None:
        return got is None or got == "inf"
    if got is None or got == "inf" or len(got) != 2:
        return False
    p, q = requested
    return min(
        max(abs(got[0] - p), abs(got[1] - q)), max(abs(got[0] + p), abs(got[1] + q))
    ) < FILL_TOL


def check_fill(pairs, residual_max, coefficients):
    """One solved filling: structure residuals below FILL_TOL and every
    cusp's Dehn coefficients round-tripping to the request."""
    if not residual_max < FILL_TOL:
        return "residual %g not below %g" % (residual_max, FILL_TOL)
    if len(coefficients) != len(pairs):
        return "%d cusps reported, %d requested" % (len(coefficients), len(pairs))
    for c, (req, got) in enumerate(zip(pairs, coefficients)):
        if not _coeffs_match(req, got):
            return "cusp %d: coefficients %r, requested %r" % (c, got, req)
    return None


def check_fill_doc(g, k, pairs, doc, residual_max):
    """One report of `mgk fill --json`; `residual_max(g, k, coords)`
    re-evaluates the residuals at the reported coordinates."""
    if doc.get("schema") != SCHEMA:
        return "schema %r" % doc.get("schema")
    if doc["signature"] != {"g": g, "k": k}:
        return "signature %r, expected g=%d k=%d" % (doc["signature"], g, k)
    if len(doc["coords"]) != 12 * k + 1:
        return "%d coordinates, expected %d" % (len(doc["coords"]), 12 * k + 1)
    return check_fill(
        pairs,
        residual_max(g, k, doc["coords"]),
        [c["coefficients"] for c in doc["cusps"]],
    )


# ---------------------------------------------------------------------------
# slope sets


def check_similar_doc(a, b, equivalent, reflections, doc):
    """`mgk similar --json` on sets a, b whose equivalence is known: a
    positive must come with a witness taking a onto b (orientation
    preserving unless reflections were allowed), a negative with none."""
    if doc.get("schema") != SCHEMA:
        return "schema %r" % doc.get("schema")
    if doc["equivalent"] != equivalent:
        return "equivalent=%r, expected %r" % (doc["equivalent"], equivalent)
    w = doc["witness"]
    if not equivalent:
        return None if w is None else "witness %r for inequivalent sets" % (w,)
    if w is None:
        return "no witness for equivalent sets"
    k = len(a)
    perm = tuple(w["perm"])
    if sorted(perm) != list(range(k)) or len(w["local"]) != k:
        return "witness %r is not an isometry of %d tori" % (w, k)
    if not reflections and any(refl for _, refl in w["local"]):
        return "orientation-reversing witness without --reflections"
    if apply_witness(perm, w["local"], a) != tuple(b):
        return "witness does not take the first set onto the second"
    return None


def check_slopes_doc(max_len_sq, doc):
    """`mgk slopes --json`: the orbits partition every primitive slope of
    length^2 <= max_len_sq, each orbit is exactly one dihedral orbit of
    one length, listed in increasing length."""
    if doc.get("schema") != SCHEMA or doc.get("max_len_sq") != max_len_sq:
        return "schema/max_len_sq %r/%r" % (doc.get("schema"), doc.get("max_len_sq"))
    seen = []
    last = 0
    for entry in doc["orbits"]:
        lsq = entry["length_sq"]
        if not lsq > last:
            return "lengths not increasing at %r" % lsq
        last = lsq
        for orbit in entry["orbits"]:
            members = [tuple(s) for s in orbit]
            if any(length_sq(s) != lsq for s in members):
                return "orbit %r is not of length^2 %d" % (members, lsq)
            if frozenset(members) != d6_orbit(members[0]) or len(set(members)) != len(members):
                return "%r is not one dihedral orbit" % (members,)
            seen += members
    expected = primitive_slopes(max_len_sq)
    if len(seen) != len(set(seen)) or set(seen) != set(expected):
        return "orbits cover %d slopes (%d distinct), expected %d" % (
            len(seen), len(set(seen)), len(expected))
    return None
