"""JSON text, in the standard library alone: `to_json` writes every JSON
document of the package, and `SCHEMA` names the versioned schema that
they share.  A writer of many documents of one layout (`mgk fill` and
`mgk complete`'s reports, `mgk trace`'s rows) instead fills formats that
`template` cuts from the text to_json writes of a sample, where each
SLOT leaf becomes a slot, and `entries_text` writes a list's entries from
one cached format per kind of entry: the same bytes, with no walk of each
document.  It loads no numpy, so neither do the commands of the exact
layer (`mgk similar`, `mgk slopes`)."""

from json.encoder import encode_basestring_ascii as _quote

from .hyptrig import DomainError

SCHEMA = "mgk/1"

_NOT_FINITE = "cannot write JSON: Out of range float values are not JSON compliant"

# the leaf of a sample that `template` makes a slot: a float, so that
# to_json writes it, whose text no key of the package's documents spells
SLOT = -1.2345678901234567e-300
_SLOT_TEXT = float.__repr__(SLOT)


def to_json(doc, indent: int = 0) -> str:
    """The JSON text of a document of dicts with str keys, lists, tuples,
    str, bool, None, int and float: byte for byte that of
    `json.dumps(doc, indent=2, allow_nan=False)`, written by one plain
    recursion and one join per list of only floats or only ints.  Python's
    float repr is the shortest string that parses back to the same double,
    so values round-trip exactly; NaN and infinities, which JSON lacks, are
    a DomainError.  Lines after the first start `indent` spaces further
    in, as in a document that holds this one."""
    return _text(doc, "\n" + " " * indent)


def template(sample, indent: int = 0) -> str:
    """The %-format of `to_json(sample, indent)` with a %s slot at each
    SLOT leaf of `sample`, in document order: filled with the texts of the
    leaves of a document of sample's layout, it is that document's text.
    A TypeError where to_json refuses the sample, or where the text holds
    SLOT's text at some other place than its slots (a key that spells
    it)."""
    text = to_json(sample, indent)
    if text.count(_SLOT_TEXT) != _slots(sample):
        raise TypeError("a sample whose text spells SLOT elsewhere has no template")
    return text.replace("%", "%%").replace(_SLOT_TEXT, "%s")


def _slots(o) -> int:
    """The count of SLOT leaves in o."""
    if isinstance(o, dict):
        o = o.values()
    elif not isinstance(o, (list, tuple)):
        return int(o is SLOT)
    return sum(map(_slots, o))


# entries_text's formats, one per kind of entry, and the separator of a
# list's entries per indent: made on first use, and as many as the kinds
_FORMATS = {}


def entries_text(entries, indent: int) -> str:
    """The text `to_json` writes between the brackets of a non-empty list
    whose entries start `indent` spaces in, byte for byte.  Each entry is
    a dict of values or one value, and is filled into the format of its
    kind: the indent, the dict's keys (None for a value), and per value
    the kind that fixes its text but for its floats.  That kind is the
    value of None or a str, a bool in a 1-tuple (True == 1 would make it
    the length of a list), the length of a list of floats, and -1 for any
    other leaf, which must then be a float.  Raises the TypeError of an
    entry these kinds do not fit (float.__repr__ refuses what is not a
    float) and the ValueError of a NaN or an infinity: to_json writes, or
    refuses, such a list."""
    if not entries:
        raise ValueError("to_json writes an empty list as []")
    floats, fmts = [], []
    for e in entries:
        keys, values = (tuple(e), e.values()) if type(e) is dict else (None, (e,))
        kind = [indent, keys]
        for v in values:
            if type(v) is list:
                floats += v
                kind.append(len(v))
            elif v is None:
                kind.append(None)
            elif isinstance(v, str):
                kind.append(str.__str__(v))
            elif v is True or v is False:
                kind.append((v,))
            else:
                floats.append(v)
                kind.append(-1)
        kind = tuple(kind)
        fmt = _FORMATS.get(kind)
        if fmt is None:
            samples = map(_sample, kind[2:])
            fmt = _FORMATS[kind] = template(next(samples) if keys is None else dict(zip(keys, samples)), indent)
        fmts.append(fmt)
    return separator(indent).join(fmts) % tuple(float_texts(floats))


def _sample(kind):
    """A value of `kind` (see `entries_text`) with SLOT at each float."""
    if type(kind) is int:
        return SLOT if kind < 0 else [SLOT] * kind
    return kind[0] if type(kind) is tuple else kind


def float_texts(floats) -> list:
    """The JSON texts of `floats`, float.__repr__ of each: the TypeError of
    one that is not a float, the ValueError of a NaN or an infinity."""
    texts = list(map(float.__repr__, floats))
    # the repr of a finite float has no "n"; those of nan, inf and -inf do
    if "n" in "".join(texts):
        raise ValueError(_NOT_FINITE)
    return texts


def separator(indent: int) -> str:
    """What `to_json` writes between the entries of a list whose entries
    start `indent` spaces in."""
    sep = _FORMATS.get(indent)
    if sep is None:
        sep = _FORMATS[indent] = template([SLOT, SLOT], indent - 2).split("%s")[1]
    return sep


def _text(o, newline: str) -> str:
    """The JSON text of o, whose lines after the first start with
    `newline` (a newline and the indentation of o).  The exact types
    float, str and int are tested first; containers, None and bool take
    the tests after them, and a subclass of str, int or float (np.float64,
    say) is written as an exact copy of its base type.  A list or tuple of
    only floats, or of only ints, is written with one join."""
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
    # a subclass as its base type, copied by the base's own slot, which
    # ignores an override of __str__, __int__ or __float__ as json.dumps does
    for base, copy in ((str, str.__str__), (int, int.__int__), (float, float.__float__)):
        if isinstance(o, base):
            return _text(copy(o), newline)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)
