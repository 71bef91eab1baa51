"""Command-line frontend.

Subcommands: complete, fill, slopes, similar, commensurable, tangent,
trace, each declared once in `_COMMANDS` (name, help, function and
arguments), from which `_parsers` adds its subparser.  Human-readable
tables by default, machine-readable JSON with --json, written to stdout
or to the --out file; both flags go on either side of the subcommand.
Each command builds one mgk/1 document and hands it to one writer,
`_write`: its JSON under --json, else a text rendered from that document
alone.  `fill --batch` instead writes one array of entries, each list's
`_entry`: its report, written by `report.report_to_json` or
`report_to_text`, or its error record.  Slope entries share one
syntax (`hyptrig.parse_slope`): `fill --coeffs` takes p/q or inf per
cusp, `similar` and `commensurable` take p/q@i, with p and q coprime
integers of either sign.  Exit codes: 0 success, 2 input error (a
malformed, non-coprime or 0/0 slope entry, a filling slope shorter than
sqrt(7), one beyond the float range where a filling is solved, an
unwritable --out file, a request too large for memory, such as
k = 2**62, --grid 2**62 or --max-len-sq 2**62), 3 numerical failure
(a filling whose continuation fails, named by its signature, slopes
and residual).
Tolerances are fixed: a report is refused above residual
`report.RESIDUAL_TOL`, and invariants compare at
`commensurability_xk.INVARIANT_TOL`.  `main(argv)` can be called
repeatedly in-process; it builds its parser once per process, reads a
well-formed argv that starts with a subcommand whose positionals take one
value each from the actions that subcommand declared (the `Action`s
`add_argument` returned, by their public attributes), and leaves every
other argv, `commensurable`'s too, to argparse (`parse`).

`slopes` and `similar` answer in exact integer arithmetic
(`slopes_symmetry`) and write with `jsontext`, so they load no numpy.
Each of the other commands imports the modules it uses (`deformation`,
`report`, `commensurability_xk`, `boundary_trace`) when it runs, and the
errors that `main` maps to exit codes are those of `hyptrig` and
MemoryError.  The commands do no linear algebra themselves: `tangent`
writes what `deformation.tangent_spectrum` computes, `fill` hands the
solver's records, all-unfilled lists' too, to `report.build_reports`,
whose gate reads only their residual vectors, `complete` hands its point
to `report.build_report`, the gate of a bare point, and `trace` reads
each r0 of its grid from `boundary_trace.varsigma_trace_data` on the
complete structure and the curve's derivatives, both cached per
signature.
"""

import argparse
import functools
import itertools
import math
import os
import sys

from . import slopes_symmetry as ss
from .hyptrig import ConvergenceError, DomainError, FillingSpec, parse_slope
from .jsontext import SCHEMA, to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DomainError("cannot write %s: %s" % (args.out, exc.strerror or exc)) from None
    else:
        print(text)


# what a command may raise on bad input or a failed solve, see _failure
_FAILURES = (DomainError, ConvergenceError)


def _failure(exc):
    """Exit code and one-line message for one of _FAILURES."""
    if isinstance(exc, DomainError):
        return EXIT_INPUT, "input error: %s" % exc
    return EXIT_NUMERIC, "numerical failure: %s" % exc


def _parse_slope_set(text: str, k: int) -> ss.SlopeSet:
    """Parse "p/q@torus" entries (tori numbered 1..k), comma-separated,
    into the slope set: one Slope or None per torus."""
    if k < 1:
        raise DomainError("k must be >= 1, got %d" % k)
    slopes = [None] * k
    if text.strip():
        for item in text.split(","):
            item = item.strip()
            try:
                pq, at = item.rsplit("@", 1)
                torus, (p, q) = int(at), parse_slope(pq)
            except DomainError as exc:
                raise DomainError("slope entry %r: %s" % (item, exc)) from None
            except ValueError:
                raise DomainError("cannot parse slope entry %r (want p/q@i)" % item) from None
            if not 1 <= torus <= k:
                raise DomainError("torus index %d outside 1..%d" % (torus, k))
            if slopes[torus - 1] is not None:
                raise DomainError("torus %d given two slopes" % torus)
            slopes[torus - 1] = ss.Slope._of_coprime(p, q)
    return tuple(slopes)


def _set_spec(text: str, k: int) -> FillingSpec:
    """The filling of the slope set "p/q@torus,..." on k tori."""
    return FillingSpec.from_pairs(k, [None if s is None else (s.p, s.q) for s in _parse_slope_set(text, k)])


def cmd_complete(args) -> int:
    from .deformation import GKSignature, solve_complete
    from .report import build_report, report_to_text

    sig = GKSignature(args.g, args.k)
    return _write(args, build_report(sig, FillingSpec.unfilled(sig.k), solve_complete(sig).x0), report_to_text)


def _spec_or_error(build, *args):
    """`build(*args)`, a FillingSpec, or the DomainError it raises: a list
    that does not parse is its error, which rides to its solve's place."""
    try:
        return build(*args)
    except DomainError as exc:
        return exc


def _entry(coeffs, rep, args):
    """The exit code and the text of the batch list `coeffs`: its report
    `rep`, written by `report_to_json` under --json else by
    `report_to_text`, or the error record of what parsing, solving,
    reporting or writing the list raised.  rep is the report or the error
    of the first three; writing raises the DomainError of a report that
    JSON cannot hold (a NaN)."""
    from .report import report_to_json, report_to_text

    try:
        if isinstance(rep, Exception):
            raise rep
        return EXIT_OK, report_to_json(rep) if args.json else report_to_text(rep)
    except _FAILURES as exc:
        code, message = _failure(exc)
    if args.json:
        return code, to_json({"schema": SCHEMA, "coeffs": coeffs, "error": {"exit": code, "message": message}})
    return code, "error           %s: %s" % (coeffs, message)


def cmd_fill(args) -> int:
    from .deformation import GKSignature, solve_fillings
    from .report import build_reports, report_to_text

    sig = GKSignature(args.g, args.k)
    # with --batch every entry is a list, an empty one too (an error record
    # like any other); without it the one list's error is the command's
    coeffs = [c.strip() for c in args.coeffs.split(";")] if args.batch else [args.coeffs]
    specs = [_spec_or_error(FillingSpec.parse, c, sig.k) for c in coeffs]
    records = []
    solve_fillings(sig, specs, out=records)
    reports = build_reports(sig, specs, records)
    if not args.batch:
        (rep,) = reports
        if isinstance(rep, Exception):
            raise rep
        return _write(args, rep, report_to_text)
    codes, texts = zip(*(_entry(c, rep, args) for c, rep in zip(coeffs, reports)))
    # under --json the array of the entries, as to_json would indent it (no
    # entry holds a blank line)
    _emit(args, "[\n%s\n]" % ",\n".join("  " + t.replace("\n", "\n  ") for t in texts)
          if args.json else "\n\n".join(texts))
    return max(codes)


def _write(args, doc, render) -> int:
    """Write `doc`, a command's mgk/1 document: its JSON under --json, else
    `render(doc)`, a text that reads only the document."""
    _emit(args, to_json(doc) if args.json else render(doc))
    return EXIT_OK


def _slopes_text(doc) -> str:
    lines = ["L^2   L        orbit size  representatives"]
    for entry in doc["orbits"]:
        for orb in entry["orbits"]:
            reps = " ".join("%d/%d" % (p, q) for p, q in orb)
            lines.append("%-5d %-8.5g %-11d %s" % (entry["length_sq"], entry["length"], len(orb), reps))
    return "\n".join(lines)


def cmd_slopes(args) -> int:
    orbits = [
        {
            "length_sq": lsq,
            "length": math.sqrt(lsq),
            "orbits": [[[s.p, s.q] for s in orb] for orb in orbits],
        }
        for lsq, orbits in ss.classify_slopes(args.max_len_sq)
    ]
    return _write(args, {"schema": SCHEMA, "max_len_sq": args.max_len_sq, "orbits": orbits}, _slopes_text)


def _similar_text(doc) -> str:
    witness = doc["witness"]
    if witness is None:
        return "not equivalent: no witness isometry"
    moves = ", ".join(
        "torus %d -> %d via r^%d%s" % (i + 1, witness["perm"][i] + 1, rot, " s" if refl else "")
        for i, (rot, refl) in enumerate(witness["local"])
    )
    return "equivalent: %s" % moves


def cmd_similar(args) -> int:
    a = _parse_slope_set(args.set_a, args.k)
    b = _parse_slope_set(args.set_b, args.k)
    witness = ss.slope_sets_equivalent(
        a, b, orientation_preserving=not args.reflections
    )
    doc = {"schema": SCHEMA, "equivalent": witness is not None, "witness": None}
    if witness is not None:
        doc["witness"] = {
            "perm": list(witness.perm),
            "local": [[e.rot, int(e.refl)] for e in witness.local],
            "orientation_preserving": witness.orientation_preserving,
        }
    return _write(args, doc, _similar_text)


def _commensurable_text(doc) -> str:
    words = {True: "commensurable", False: "NOT commensurable", None: "indeterminate"}
    lines = ["%-28s abc = (%.12g, %.12g, %.12g)" % (r["label"], *r["abc"]) for r in doc["structures"]]
    lines += ["%s vs %s: %s" % (*v["pair"], words[v["commensurable"]]) for v in doc["pairs"]]
    return "\n".join(lines)


def cmd_commensurable(args) -> int:
    from . import commensurability_xk as cx
    from .deformation import solve_fillings

    sig = cx.XkSignature(args.k)
    points = solve_fillings(sig.gk, [_spec_or_error(_set_spec, text, args.k) for text in args.sets])
    # the first set that fails, in input order, fails the command
    for x in points:
        if isinstance(x, Exception):
            raise x
    labels = list(args.sets)
    if args.rotated:
        # each set's two companions, after all the sets
        for x, lab in list(zip(points, labels)):
            y1 = cx.theta_r(x, sig)
            points += [y1, cx.theta_r(y1, sig)]
            labels += [lab + " (rotated)", lab + " (rotated twice)"]
    rows = []
    for x, lab in zip(points, labels):
        inv = cx.abc(x, sig)
        rows.append({"label": lab, "abc": [inv.a, inv.b, inv.c]})
    verdicts = [
        {"pair": [la, lb], "commensurable": cx.commensurable(xa, xb, sig)}
        for (xa, la), (xb, lb) in itertools.combinations(zip(points, labels), 2)
    ]
    return _write(args, {"schema": SCHEMA, "structures": rows, "pairs": verdicts}, _commensurable_text)


def _tangent_text(doc) -> str:
    lines = ["tangent space dimension %d" % doc["dimension"]]
    lines.append("max |J b| over basis vectors: %.3g" % doc["max_jacobian_product"])
    lines += ["  [" + ", ".join("%.9g" % v for v in row) + "]" for row in doc["basis"]]
    return "\n".join(lines)


def cmd_tangent(args) -> int:
    from .deformation import GKSignature, tangent_spectrum

    sig = GKSignature(args.g, args.k)
    basis, jb, sv = tangent_spectrum(sig)
    doc = {
        "schema": SCHEMA,
        "dimension": 2 * sig.k,
        "basis": basis.tolist(),
        "max_jacobian_product": jb,
        "singular_values": sv.tolist(),
    }
    return _write(args, doc, _tangent_text)


def _trace_text(doc) -> str:
    lines = ["r0        trace       trace''     stima>0"]
    for r in doc["rows"]:
        lines.append("%-9.5g %-11.6g %-11.6g %s" % (r["r0"], r["trace"], r["trace_dd"], r["stima_positive"]))
    return "\n".join(lines)


def cmd_trace(args) -> int:
    import numpy as np

    from . import boundary_trace as bt
    from .deformation import GKSignature

    sig = GKSignature(args.g, args.k)
    if args.grid is not None and args.grid < 1:
        raise DomainError("--grid must be at least 1, got %d" % args.grid)
    # numpy's own limit, as in GKSignature: np.linspace raises ValueError above it
    if args.grid is not None and 8 * args.grid > sys.maxsize:
        raise DomainError("request too large for memory")
    # np.linspace makes NaN r0 values of a non-finite end, and warns on an infinite one
    if args.grid is not None and not math.isfinite(args.grid_max):
        raise DomainError("--grid-max must be finite, got %r" % args.grid_max)
    rows = []
    r0_values = [args.r0] if args.grid is None else np.linspace(0.1, args.grid_max, args.grid).tolist()
    for r0 in r0_values:
        try:
            data = bt.varsigma_trace_data(sig, args.delta, r0)
        except DomainError:
            continue
        rows.append(
            {
                "r0": r0,
                "lambda0": data.lambda0,
                "eta0": data.eta0,
                "zeta0": data.zeta0,
                "trace": bt.trace_gamma(data.lambda0, data.eta0, data.zeta0),
                "trace_dd": bt.trace_second_derivative(data),
                "stima_positive": bt.stima_inequality(data.lambda0, data.eta0, data.zeta0),
            }
        )
    if not rows:
        raise DomainError("no admissible r0 values in the requested range")
    return _write(args, {"schema": SCHEMA, "delta": args.delta, "rows": rows}, _trace_text)


# --json and --out: on the top parser with argparse's defaults, and on
# every subparser with SUPPRESS ones, so that the flags work on either
# side of the subcommand and a later occurrence wins
_COMMON = (
    ("--json", dict(action="store_true", help="machine-readable output")),
    ("--out", dict(help="write output to this file instead of stdout")),
)


# a required int option, such as the signature's --g and --k
_INT = {"type": int, "required": True}
_G, _K = ("--g", _INT), ("--k", _INT)
# per subcommand: its name, help, function, and its arguments in the order
# they are added, each a name or option string with its keywords
_COMMANDS = (
    ("complete", "solve the complete structure", cmd_complete, (_G, _K)),
    ("fill", "solve a Dehn filling", cmd_fill, (
        _G, _K,
        ("--coeffs", dict(required=True, help='e.g. "inf,5/1"; with --batch, ";"-separated lists')),
        ("--batch", dict(action="store_true", help="solve several coefficient lists")),
    )),
    ("slopes", "classify short slopes into isometry orbits", cmd_slopes, (("--max-len-sq", _INT),)),
    ("similar", "decide equivalence of two slope sets", cmd_similar, (
        _K,
        ("set_a", dict(help='e.g. "3/1@1,5/1@2"')),
        ("set_b", {}),
        ("--reflections", dict(action="store_true", help="allow orientation-reversing witnesses")),
    )),
    ("commensurable", "compare fillings of the odd-k chain manifold", cmd_commensurable, (
        _K,
        ("sets", dict(nargs="+", help='slope sets, e.g. "7/2@1"')),
        ("--rotated", dict(action="store_true", help="include the two rotated companions")),
    )),
    ("tangent", "tangent space at the complete solution", cmd_tangent, (_G, _K)),
    ("trace", "boundary-trace second derivative data", cmd_trace, (
        _G, _K,
        ("--delta", dict(type=int, choices=(0, 1), default=0)),
        ("--r0", dict(type=float, default=1.0)),
        ("--grid", dict(type=int, default=None, help="scan this many r0 values instead")),
        ("--grid-max", dict(type=float, default=2.8)),
    )),
)


@functools.cache
def _parsers():
    """The `mgk` parser, the parsers of its subcommands by name, and per
    subcommand whose positionals take one value each what `_read_exact`
    reads: the actions of its option strings by string, its positionals in
    order, and the namespace of an argv that names it and sets nothing.
    There is no entry for `commensurable`, whose `sets` take one or more
    values: argparse reads its argv.  Built once and shared by every call:
    callers must not mutate them."""
    ap = argparse.ArgumentParser(
        prog="mgk",
        description="Hyperbolic structures, Dehn fillings and invariants "
        "of the (g, k) family of manifolds with geodesic boundary.",
    )
    top = [ap.add_argument(arg, **kw) for arg, kw in _COMMON]
    sub = ap.add_subparsers(dest="command", required=True)
    tables = {}
    for name, text, func, arguments in _COMMANDS:
        p = sub.add_parser(name, help=text)
        actions = [p.add_argument(arg, **kw) for arg, kw in arguments]
        actions += [p.add_argument(arg, default=argparse.SUPPRESS, **kw) for arg, kw in _COMMON]
        p.set_defaults(func=func)
        options = {opt: a for a in actions for opt in a.option_strings}
        positionals = [a for a in actions if not a.option_strings]
        defaults = {a.dest: a.default for a in top + actions if a.default != argparse.SUPPRESS}
        if all(a.nargs is None for a in positionals):
            tables[name] = options, positionals, {**defaults, "command": name, "func": func}
    return ap, sub.choices, tables


class _Unread(Exception):
    """An argument that `_read_exact` leaves to argparse."""


def _value(action, text):
    """`text` as argparse stores it for `action`: converted by its `type`
    and within its `choices`.  A text that starts with "-", as the "-" of
    a missing value does, is argparse's to read."""
    if text.startswith("-"):
        raise _Unread
    try:
        value = text if action.type is None else action.type(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise _Unread from None
    if action.choices is not None and value not in action.choices:
        raise _Unread
    return value


def _read_exact(options, positionals, defaults, args):
    """The namespace of the full parse of a subcommand's argv, read from
    its entry in `_parsers` (`options`, `positionals` and `defaults`) when
    each argument after its name (`args`) is an exact option string, the
    value of one, or a positional.  A flag (nargs 0) stores its const, any
    other option its one value, and the positionals take one value each,
    in order, as argparse assigns them around the options.  Raises _Unread
    for any other argv, and where a required option is left without a
    value or the positionals are given too few or too many values."""
    values, plain, it = {}, [], iter(args)
    for arg in it:
        if not arg.startswith("-"):
            plain.append(arg)
            continue
        action = options.get(arg)
        if action is None or action.nargs not in (0, None):
            raise _Unread
        values[action.dest] = action.const if action.nargs == 0 else _value(action, next(it, "-"))
    # a missing positional, or one too many, is argparse's error
    if len(plain) != len(positionals) or any(a.required and a.dest not in values for a in options.values()):
        raise _Unread
    values.update((a.dest, _value(a, text)) for a, text in zip(positionals, plain))
    return argparse.Namespace(**{**defaults, **values})


def parse(argv) -> argparse.Namespace:
    """`argv` as the `mgk` parser reads it.  When argv is the name of a
    subcommand with an entry in `_parsers` followed only by that
    subcommand's exact option strings, their values and its positionals,
    `_read_exact` reads it; argparse reads every other argv, and reports
    its errors, in one full parse."""
    ap, _, tables = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in tables:
        try:
            return _read_exact(*tables[argv[0]], argv[1:])
        except _Unread:
            pass
    return ap.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse(argv)
        return args.func(args)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    except _FAILURES as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code
    except MemoryError:
        # a k, such as 2**62, whose list or tuple Python's size check refuses
        print("input error: request too large for memory", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`mgk ... | head`): point stdout at
        # devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
