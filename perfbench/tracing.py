"""Tracing for the benchmark's traced run, built from the benchmark's own
files.  Every module binding of a traced function (`mgk.cli.solve_filling`
as well as `mgk.deformation.solve_filling`, `mgk.report.residuals`, ...)
is replaced by one wrapper that records a span (name, start, end, parent)
or, for the hottest exact work count, only counts calls.  Spans stay in
memory and are written out when the run ends; self time is computed from
them.  A function that no longer exists is skipped and its metrics are
dropped."""

import functools
import gzip
import json
import sys
import threading
from time import perf_counter

# (defining module, attribute, layer metric name, record spans)
TARGETS = (
    ("mgk.deformation", "residuals", "deformation.residuals", True),
    ("mgk.deformation", "jacobian", "deformation.jacobian", True),
    ("mgk.deformation", "uv", "deformation.uv", True),
    ("mgk.deformation", "solve_complete", "deformation.solve_complete", True),
    ("mgk.deformation", "solve_filling", "deformation.solve_filling", True),
    ("mgk.deformation", "_newton", "deformation.newton", True),
    ("mgk.report", "build_report", "report.build_report", True),
    ("mgk.report", "report_to_json", "report.report_to_json", True),
    ("mgk.cusp_invariants", "cusp_modulus", "cusp_invariants.cusp_modulus", True),
    ("mgk.cusp_invariants", "complex_length", "cusp_invariants.complex_length", True),
    ("mgk.cusp_invariants", "return_path_length", "cusp_invariants.return_path_length", True),
    ("mgk.commensurability_xk", "abc", "commensurability_xk.abc", True),
    ("mgk.slopes_symmetry", "slope_sets_equivalent", "slopes_symmetry.slope_sets_equivalent", True),
    ("mgk.slopes_symmetry", "classify_slopes", "slopes_symmetry.classify_slopes", True),
    ("mgk.slopes_symmetry", "hyperbolic_filling_check", "slopes_symmetry.hyperbolic_filling_check", True),
    ("mgk.slopes_symmetry", "d6_act", "slopes_symmetry.d6_act", False),
    ("mgk.cli", "main", "cli.main", True),
)
# np.linalg.solve as `mgk.deformation` sees it
LINALG_SOLVE = "deformation.linalg_solve"


class _View:
    """A module seen through a few replaced attributes."""

    def __init__(self, target, **replaced):
        self.__dict__.update(replaced)
        self._target = target

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.spans = []  # (name index, start, end, parent span or -1, raised)
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _span_wrapper(self, fn, idx):
        spans, lock, main_stack, stack_of = self.spans, self._lock, self._main_stack, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            # the outermost call on a worker thread was caused by the call
            # the main thread is waiting in (the CLI's batch thread pool)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            with lock:
                sid = len(spans)
                spans.append(None)
            stack.append(sid)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (idx, start, end, parent, raised)

        return traced

    def _count_wrapper(self, fn, idx):
        counts, lock = self.counts, self._lock
        counts.setdefault(idx, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mgk" or n.startswith("mgk."))]
        for defining, attr, name, spans in TARGETS:
            fn = getattr(sys.modules.get(defining), attr, None)
            if fn is None:
                continue
            wrap = self._span_wrapper if spans else self._count_wrapper
            wrapper = wrap(fn, self._id(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)
        deformation = sys.modules.get("mgk.deformation")
        np = getattr(deformation, "np", None)
        solve = getattr(getattr(np, "linalg", None), "solve", None)
        if solve is not None:
            wrapped = self._span_wrapper(solve, self._id(LINALG_SOLVE))
            self._patched.append((deformation, "np", np))
            deformation.np = _View(np, linalg=_View(np.linalg, solve=wrapped))

    def metrics(self, wall, ops):
        """Per-layer metrics over a traced window of `wall` seconds in which
        `ops` operations ran: calls and failed calls per operation, and
        self time as a share of the window, per traced function; plus the
        solver's ratios."""
        spans = self.spans
        n = len(self.names)
        calls, failed, self_time = [0] * n, [0] * n, [0.0] * n
        children = {}
        for s in spans:
            if s is not None and s[3] >= 0:
                children.setdefault(s[3], []).append((s[1], s[2]))
        for sid, s in enumerate(spans):
            if s is None:
                continue
            idx, start, end, _, raised = s
            calls[idx] += 1
            failed[idx] += raised
            self_time[idx] += (end - start) - _covered(children.get(sid, ()), start, end)
        for idx, c in self.counts.items():
            calls[idx] = c
        out = {}
        for idx, name in enumerate(self.names):
            out[name + ".calls_per_op"] = calls[idx] / ops
            out[name + ".failed_per_op"] = failed[idx] / ops
            out[name + ".self_share"] = self_time[idx] / wall

        def ratio(a, b):
            return a / b if b else 0.0

        ids = self._index
        fill, complete = ids.get("deformation.solve_filling"), ids.get("deformation.solve_complete")
        if fill is not None and complete is not None:
            out["deformation.complete_calls_per_fill"] = ratio(calls[complete], calls[fill])
        newton, jac, res = (ids.get("deformation." + f) for f in ("newton", "jacobian", "residuals"))
        if None not in (fill, newton, jac, res):
            # one Jacobian per Newton iteration; residuals also in the line search
            under = [0] * n
            for s in spans:
                if s is not None and s[3] >= 0 and spans[s[3]][0] == newton:
                    under[s[0]] += 1
            out["deformation.newton_iters_per_fill"] = ratio(under[jac], calls[fill])
            out["deformation.resid_evals_per_iter"] = ratio(under[res], under[jac])
            out["deformation.continuation_useful_ratio"] = ratio(
                calls[newton] - failed[newton], calls[newton])
        return out

    def write(self, path, header):
        """Spans as JSON (gzip): times in seconds from the first span."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        doc = dict(header, names=self.names,
                   counts={self.names[i]: c for i, c in self.counts.items()},
                   spans=[None if s is None else [s[0], s[1] - t0, s[2] - t0, s[3], s[4]]
                          for s in self.spans])
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
