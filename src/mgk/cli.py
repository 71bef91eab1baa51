"""Command-line frontend.

Subcommands: complete, fill, slopes, similar, commensurable, tangent,
trace.  Human-readable tables by default, machine-readable JSON with
--json, written to stdout or to the --out file; both flags go on either
side of the subcommand.  Slope entries share one syntax
(`hyptrig.parse_slope`): `fill --coeffs` takes p/q or inf per cusp,
`similar` and `commensurable` take p/q@i, with p and q coprime integers
of either sign.  Exit codes: 0 success, 2 input error (a malformed,
non-coprime or 0/0 slope entry, one beyond the float range where a
filling is solved, an unwritable --out file), 3 numerical failure.
Tolerances are fixed: a report is refused above residual
`report.RESIDUAL_TOL`, and invariants compare at
`commensurability_xk.INVARIANT_TOL`.  `main(argv)` can be called
repeatedly in-process; it builds its parser once per process, and when
argv starts with the subcommand, the subcommand's parser reads the rest
in one pass (`parse`).

`slopes` and `similar` answer in exact integer arithmetic
(`slopes_symmetry`) and write with `jsontext`, so they load no numpy.
Each of the other commands imports numpy and the modules it uses
(`deformation`, `report`, `commensurability_xk`, `boundary_trace`) when
it runs, and the errors that `main` maps to exit codes are those of
`hyptrig`.
"""

import argparse
import functools
import math
import os
import sys

from . import slopes_symmetry as ss
from .hyptrig import ContinuationError, ConvergenceError, DomainError, FillingSpec, parse_slope
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
    if isinstance(exc, ContinuationError):
        if exc.last_good_t is None:
            return EXIT_NUMERIC, "numerical failure: %s (no continuation step was solved)" % exc
        return EXIT_NUMERIC, "numerical failure: %s (last good multiplier %.6g)" % (exc, exc.last_good_t)
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
            slopes[torus - 1] = ss.Slope.of(p, q)
    return tuple(slopes)


def _report_text(rep, args) -> str:
    """The text of the report `rep`.  When rep is instead the error that
    parsing, solving or reporting its list raised, that error is raised,
    as is the DomainError of a report that JSON cannot hold (a NaN)."""
    from .report import report_to_json, report_to_text

    if isinstance(rep, Exception):
        raise rep
    return report_to_json(rep) if args.json else report_to_text(rep)


def cmd_complete(args) -> int:
    from .deformation import GKSignature, solve_complete
    from .report import build_report

    sig = GKSignature(args.g, args.k)
    _emit(args, _report_text(build_report(sig, FillingSpec.unfilled(sig.k), solve_complete(sig).x0), args))
    return EXIT_OK


def _error_record(coeffs, exc, args):
    """The exit code and the text of a batch list that failed."""
    code, message = _failure(exc)
    if args.json:
        return code, to_json({"schema": SCHEMA, "coeffs": coeffs, "error": {"exit": code, "message": message}})
    return code, "error           %s: %s" % (coeffs, message)


def _parse_or_error(coeffs, k):
    try:
        return FillingSpec.parse(coeffs, k)
    except DomainError as exc:
        return exc


def _batched(fn, values, *more) -> list:
    """Per entry of `values`, the error it holds, or what `fn` gives for it:
    `fn` takes the entries that are not errors, and the entries of `more`
    at their places, in one call and returns one result per entry."""
    ok = [i for i, v in enumerate(values) if not isinstance(v, Exception)]
    results = iter(fn(*([seq[i] for i in ok] for seq in (values,) + more)))
    return [v if isinstance(v, Exception) else next(results) for v in values]


def _solve_specs(sig, specs, **kw) -> list:
    """Per entry of `specs`, a FillingSpec or the error that building it
    raised: its solution or its error.  The specs are solved together, in
    one `solve_fillings` call; an error keeps its place."""
    from .deformation import solve_fillings

    return _batched(lambda ok: solve_fillings(sig, ok, **kw), specs)


def cmd_fill(args) -> int:
    from .deformation import GKSignature
    from .report import build_reports

    sig = GKSignature(args.g, args.k)
    # with --batch every entry is a list, an empty one too (an error record
    # like any other); without it the one list's error is the command's
    coeffs = [c.strip() for c in args.coeffs.split(";")] if args.batch else [args.coeffs]
    specs = [_parse_or_error(c, sig.k) for c in coeffs]
    solved = _solve_specs(sig, specs, check_length=not args.allow_short)
    reports = _batched(lambda xs, ok: build_reports(sig, ok, xs), solved, specs)
    entries = []
    for c, rep in zip(coeffs, reports):
        try:
            entries.append((EXIT_OK, _report_text(rep, args)))
        except _FAILURES as exc:
            if not args.batch:
                raise
            entries.append(_error_record(c, exc, args))
    texts = [text for _, text in entries]
    if not args.batch:
        _emit(args, texts[0])
    elif args.json:
        # the JSON array of the entries, as to_json would indent it (no
        # entry holds a blank line)
        _emit(args, "[\n%s\n]" % ",\n".join("  " + t.replace("\n", "\n  ") for t in texts))
    else:
        _emit(args, "\n\n".join(texts))
    return max(code for code, _ in entries)


def cmd_slopes(args) -> int:
    table = ss.classify_slopes(args.max_len_sq)
    if args.json:
        doc = {
            "schema": SCHEMA,
            "max_len_sq": args.max_len_sq,
            "orbits": [
                {
                    "length_sq": lsq,
                    "length": math.sqrt(lsq),
                    "orbits": [[[s.p, s.q] for s in orb] for orb in orbits],
                }
                for lsq, orbits in table
            ],
        }
        _emit(args, to_json(doc))
        return EXIT_OK
    lines = ["L^2   L        orbit size  representatives"]
    for lsq, orbits in table:
        for orb in orbits:
            reps = " ".join("%d/%d" % (s.p, s.q) for s in orb)
            lines.append("%-5d %-8.5g %-11d %s" % (lsq, math.sqrt(lsq), len(orb), reps))
    _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_similar(args) -> int:
    a = _parse_slope_set(args.set_a, args.k)
    b = _parse_slope_set(args.set_b, args.k)
    witness = ss.slope_sets_equivalent(
        a, b, orientation_preserving=not args.reflections
    )
    if args.json:
        doc = {
            "schema": SCHEMA,
            "equivalent": witness is not None,
            "witness": None
            if witness is None
            else {
                "perm": list(witness.perm),
                "local": [[e.rot, int(e.refl)] for e in witness.local],
                "orientation_preserving": witness.orientation_preserving,
            },
        }
        _emit(args, to_json(doc))
    elif witness is None:
        _emit(args, "not equivalent: no witness isometry")
    else:
        moves = ", ".join(
            "torus %d -> %d via r^%d%s" % (i + 1, witness.perm[i] + 1, e.rot, " s" if e.refl else "")
            for i, e in enumerate(witness.local)
        )
        _emit(args, "equivalent: %s" % moves)
    return EXIT_OK


def cmd_commensurable(args) -> int:
    from . import commensurability_xk as cx

    sig = cx.XkSignature(args.k)
    gk = sig.gk

    def spec_of(sset):
        try:
            return FillingSpec.from_pairs(gk.k, [None if s is None else (s.p, s.q) for s in sset])
        except DomainError as exc:
            return exc

    points = _solve_specs(gk, [spec_of(_parse_slope_set(text, args.k)) for text in args.sets])
    # the first set that fails, in input order, fails the command
    for x in points:
        if isinstance(x, Exception):
            raise x
    labels = list(args.sets)
    if args.rotated:
        extra = []
        for x, lab in zip(points, labels):
            y1 = cx.theta_r(x, sig)
            y2 = cx.theta_r(y1, sig)
            extra += [(y1, lab + " (rotated)"), (y2, lab + " (rotated twice)")]
        points += [p for p, _ in extra]
        labels += [l for _, l in extra]
    rows = []
    for x, lab in zip(points, labels):
        inv = cx.abc(x, sig)
        rows.append({"label": lab, "abc": [inv.a, inv.b, inv.c]})
    verdicts = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            verdict = cx.commensurable(points[i], points[j], sig)
            verdicts.append(
                {
                    "pair": [labels[i], labels[j]],
                    "commensurable": verdict,
                }
            )
    if args.json:
        _emit(args, to_json({"schema": SCHEMA, "structures": rows, "pairs": verdicts}))
    else:
        lines = []
        for r in rows:
            lines.append("%-28s abc = (%.12g, %.12g, %.12g)" % (r["label"], *r["abc"]))
        for v in verdicts:
            word = {True: "commensurable", False: "NOT commensurable", None: "indeterminate"}[
                v["commensurable"]
            ]
            lines.append("%s vs %s: %s" % (v["pair"][0], v["pair"][1], word))
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_tangent(args) -> int:
    import numpy as np

    from .deformation import GKSignature, jacobian, solve_complete, tangent_basis

    sig = GKSignature(args.g, args.k)
    basis = tangent_basis(sig)
    # At x0 every cusp block of J is the same 10x12 block B, with border column
    # b and row a as in the one-cusp Jacobian [[B, b], [a, 6(g - k)]].  In
    # orthonormal cusp modes J is k - 1 copies of B and [[B, sqrt(k) b],
    # [sqrt(k) a, 6(g - k)]]; its square (12k+1)^2 SVD adds 2k zeros.
    one = jacobian(GKSignature(sig.g - sig.k + 1, 1), solve_complete(sig).x0[np.r_[:12, -1]])
    jn = np.max(np.abs(one[:, :12] @ basis[:2, :12].T))
    mode = one.copy()
    mode[:10, 12] *= math.sqrt(sig.k)
    mode[10, :12] *= math.sqrt(sig.k)
    sv = [np.linalg.svd(m, compute_uv=False) for m in (one[:10, :12], mode)]
    sv = np.sort(np.concatenate([np.tile(sv[0], sig.k - 1), sv[1], np.zeros(2 * sig.k)]))[::-1]
    if args.json:
        doc = {
            "schema": SCHEMA,
            "dimension": 2 * sig.k,
            "basis": [[float(v) for v in row] for row in basis],
            "max_jacobian_product": float(jn),
            "singular_values": [float(s) for s in sv],
        }
        _emit(args, to_json(doc))
    else:
        lines = ["tangent space dimension %d" % (2 * sig.k)]
        lines.append("max |J b| over basis vectors: %.3g" % jn)
        for row in basis:
            lines.append("  [" + ", ".join("%.9g" % v for v in row) + "]")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def cmd_trace(args) -> int:
    import numpy as np

    from . import boundary_trace as bt
    from .deformation import GKSignature

    sig = GKSignature(args.g, args.k)
    if args.grid is not None and args.grid < 1:
        raise DomainError("--grid must be at least 1, got %d" % args.grid)
    rows = []
    r0_values = (
        [args.r0]
        if args.grid is None
        else list(np.linspace(0.1, args.grid_max, args.grid))
    )
    for r0 in r0_values:
        try:
            data = bt.varsigma_trace_data(sig, args.delta, r0)
        except DomainError:
            continue
        tr0 = bt.trace_gamma(data.lambda0, data.eta0, data.zeta0)
        tdd = bt.trace_second_derivative(data)
        rows.append(
            {
                "r0": r0,
                "lambda0": data.lambda0,
                "eta0": data.eta0,
                "zeta0": data.zeta0,
                "trace": tr0,
                "trace_dd": tdd,
                "stima_positive": bt.stima_inequality(data.lambda0, data.eta0, data.zeta0),
            }
        )
    if not rows:
        raise DomainError("no admissible r0 values in the requested range")
    if args.json:
        _emit(args, to_json({"schema": SCHEMA, "delta": args.delta, "rows": rows}))
    else:
        lines = ["r0        trace       trace''     stima>0"]
        for r in rows:
            lines.append(
                "%-9.5g %-11.6g %-11.6g %s" % (r["r0"], r["trace"], r["trace_dd"], r["stima_positive"])
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _add_common(parser, top_level: bool) -> None:
    # registered on the top parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work on either side of the
    # subcommand and a later occurrence wins
    sup = argparse.SUPPRESS
    parser.add_argument(
        "--json",
        action="store_true",
        default=False if top_level else sup,
        help="machine-readable output",
    )
    parser.add_argument(
        "--out",
        default=None if top_level else sup,
        help="write output to this file instead of stdout",
    )


@functools.cache
def build_parser():
    """The `mgk` parser and the parsers of its subcommands by name, built
    on the first call and shared by every later one, so that `main` does
    not rebuild them per call.  Callers must not mutate them; `parse_args`
    does not, and starts each call from a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="mgk",
        description="Hyperbolic structures, Dehn fillings and invariants "
        "of the (g, k) family of manifolds with geodesic boundary.",
    )
    _add_common(ap, top_level=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="solve the complete structure")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("fill", help="solve a Dehn filling")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coeffs", required=True, help='e.g. "inf,5/1"; with --batch, ";"-separated lists')
    p.add_argument("--batch", action="store_true", help="solve several coefficient lists")
    p.add_argument("--allow-short", action="store_true", help="skip the sqrt(7) slope-length check")
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("slopes", help="classify short slopes into isometry orbits")
    p.add_argument("--max-len-sq", type=int, required=True)
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_slopes)

    p = sub.add_parser("similar", help="decide equivalence of two slope sets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("set_a", help='e.g. "3/1@1,5/1@2"')
    p.add_argument("set_b")
    p.add_argument("--reflections", action="store_true", help="allow orientation-reversing witnesses")
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_similar)

    p = sub.add_parser("commensurable", help="compare fillings of the odd-k chain manifold")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("sets", nargs="+", help='slope sets, e.g. "7/2@1"')
    p.add_argument("--rotated", action="store_true", help="include the two rotated companions")
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_commensurable)

    p = sub.add_parser("tangent", help="tangent space at the complete solution")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("trace", help="boundary-trace second derivative data")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, choices=(0, 1), default=0)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=None, help="scan this many r0 values instead")
    p.add_argument("--grid-max", type=float, default=2.8)
    _add_common(p, top_level=False)
    p.set_defaults(func=cmd_trace)
    return ap, sub.choices


def parse(argv) -> argparse.Namespace:
    """`argv` as the `mgk` parser reads it.  That parser classifies every
    argument and then hands all those after the subcommand's name to the
    subcommand's parser, which reads them again; so when argv starts with
    the name, the subcommand's parser reads the rest alone.  An argument
    that it leaves unread takes the full parse, whose error is the `mgk`
    parser's."""
    ap, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        # the top parser's defaults of the flags of _add_common
        args = argparse.Namespace(command=argv[0], json=False, out=None)
        args, extras = commands[argv[0]].parse_known_args(argv[1:], args)
        if not extras:
            return args
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
