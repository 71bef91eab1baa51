"""JSON text, in the standard library alone: `to_json` writes every JSON
document of the package, and `SCHEMA` names the versioned schema that
they share.  It loads no numpy, so neither do the commands of the exact
layer (`mgk similar`, `mgk slopes`)."""

from json.encoder import encode_basestring_ascii as _quote

from .hyptrig import DomainError

SCHEMA = "mgk/1"

_NOT_FINITE = "cannot write JSON: Out of range float values are not JSON compliant"


def to_json(doc) -> str:
    """The JSON text of a document of dicts with str keys, lists, tuples,
    str, bool, None, int and float: byte for byte that of
    `json.dumps(doc, indent=2, allow_nan=False)`, written by one plain
    recursion and one join per list of only floats or only ints.  Python's
    float repr is the shortest string that parses back to the same double,
    so values round-trip exactly; NaN and infinities, which JSON lacks, are
    a DomainError."""
    return _text(doc, "\n")


def _text(o, newline: str) -> str:
    """The JSON text of o, whose lines after the first start with
    `newline` (a newline and the indentation of o).  The exact types
    float, str and int are tested first; containers, None, bool and
    subclasses (np.float64, say) take the tests after them.  A list or
    tuple of only floats, or of only ints, is written with one join."""
    # the repr of a finite float has no "n"; those of nan, inf and -inf do
    t = type(o)
    if t is float:
        text = float.__repr__(o)
        if "n" in text:
            raise DomainError(_NOT_FINITE)
        return text
    if t is str:
        return _quote(o)
    if t is int:
        return int.__repr__(o)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        first = type(o[0])
        if (first is float or first is int) and all(type(v) is first for v in o):
            body = sep.join(map(first.__repr__, o))
            if first is float and "n" in body:
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
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        if "n" in text:
            raise DomainError(_NOT_FINITE)
        return text
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)
