"""Layer spans for the serrin benchmark, recorded from outside the package.

A :class:`Tracer` patches the public entry points of each layer (see
``LAYER_ENTRY_POINTS``) in every ``serrin`` module that bound them with
``from ... import``, records one span per call with the span that caused it,
and counts work at the same boundaries.  Spans stay in memory; the child
process reduces them to per-layer metrics (:func:`layer_metrics`) before it
exits.  The package source is never modified.

A ``*_s`` metric of a layer is its *self* time: the span durations minus the
part of each span that its child spans cover (for example, back-solve time
excludes the factorization the first solve triggers).  The exceptions are
``branch.point_s`` and ``branch.certificate_s``, which time whole operations.
"""

import contextlib
import functools
import sys
import time
import weakref
from collections import Counter, defaultdict

# (module, attribute, span name); attributes with a dot are class members
LAYER_ENTRY_POINTS = (
    ("serrin.discrete", "TubeOperator.__init__", "discrete.assemble"),
    ("serrin.discrete", "TubeOperator.lu", "discrete.factor"),
    ("serrin.discrete", "TubeOperator.solve", "discrete.solve"),
    ("serrin.geometry", "laplacian_coefficients", "geometry.laplacian_coefficients"),
    ("serrin.torsion", "solve_torsion", "torsion.solve"),
    ("serrin.linearize", "constant_operator", "linearize.constant_operator"),
    ("serrin.linearize", "apply_L", "linearize.apply_L"),
    ("serrin.modes", "riccati_solution", "modes.riccati"),
    ("serrin.spectrum", "sigma", "spectrum.sigma"),
    ("serrin.spectrum", "find_lambda_n", "spectrum.find_lambda_n"),
    ("serrin.branch", "check_cr_hypotheses", "branch.certificate"),
    ("serrin.branch", "trace_branch", "branch.trace"),
)

# stored LU entries: an 8-byte value and a 4-byte row index each
LU_BYTES_PER_NNZ = 12

class Span:
    """One call of a layer entry point; ``parent`` indexes the caller's span."""

    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name, parent, start, end=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end


def self_times(spans):
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to the parent's interval, and overlapping children
    are counted once.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        pieces = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                        for c in children[idx])
        covered, reach = 0.0, span.start
        for lo, hi in pieces:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """In-memory spans and counters; :meth:`installed` patches the layers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.missing = []
        self._open = []
        self._restore = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, self.clock()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx):
        self.spans[idx].end = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- patching --------------------------------------------------------
    def install(self):
        import serrin  # noqa: F401  (the package imports every layer module)
        for module_name, attr, span_name in LAYER_ENTRY_POINTS:
            owner_name, _, member = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if member not in vars(owner or object):
                # an entry point the package no longer has records no spans
                self.missing.append(f"{module_name}.{attr}")
            elif owner_name:
                self._patch_member(owner, member, span_name)
            else:
                original = getattr(owner, member)
                self._patch_function(original, self._function_wrapper(member, original, span_name))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def _patch_function(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "serrin" or name.startswith("serrin.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _function_wrapper(self, attr, original, span_name):
        if attr == "apply_L":
            def after(args, result):
                keep = {m for m in range(result.w.n_modes + 1) if result.w.coefficient(m) != 0.0}
                self.note_max("linearize.leakage_max", result.leakage(keep))
            return self._wrap(span_name, original, after)
        if attr == "find_lambda_n":
            def after(args, result):
                self.note_max("spectrum.sigma_residual_max", result.sigma_residual)
            return self._wrap(span_name, original, after)
        wrapper = self._wrap(span_name, original)
        if attr == "riccati_solution":
            # callers clear and inspect the lru cache through these
            wrapper.cache_info = original.cache_info
            wrapper.cache_clear = original.cache_clear
            wrapper.cache_parameters = original.cache_parameters
        return wrapper

    def _patch_member(self, cls, member, span_name):
        original = cls.__dict__[member]
        if member == "lu":
            factored = weakref.WeakSet()
            fget = original.fget

            def lu(op):
                if op in factored:
                    return fget(op)
                idx = self.begin(span_name)
                try:
                    result = fget(op)
                finally:
                    self.end(idx)
                factored.add(op)
                self.counts["discrete.lu_nnz"] += int(result.nnz)
                return result
            replacement = property(lu, doc=original.__doc__)
        elif member == "__init__":
            def after(args, result):
                self.counts["discrete.nnz"] += int(args[0].matrix.nnz)
            replacement = self._wrap(span_name, original, after)
        else:
            replacement = self._wrap(span_name, original)
        self._restore.append((cls, member, original))
        setattr(cls, member, replacement)


def layer_metrics(tracer, point_windows=(), newton_iters=()):
    """Per-layer metrics of one traced unit.

    ``point_windows`` are the (start, end) clock readings of each continued
    branch point; spans that start inside a window are charged to it.
    ``newton_iters`` are the Newton iteration counts of those points.
    """
    spans = tracer.spans
    own = self_times(spans)
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for span, own_s in zip(spans, own):
        calls[span.name] += 1
        self_s[span.name] += own_s
        total_s[span.name] += span.end - span.start

    def per(count, base):
        return count / base if base else 0.0

    requests = calls["linearize.constant_operator"]
    builds = sum(1 for s in spans if s.name == "discrete.assemble" and s.parent is not None
                 and spans[s.parent].name == "linearize.constant_operator")
    factors = calls["discrete.factor"]
    points = len(point_windows)

    def in_points(name):
        return sum(1 for s in spans if s.name == name
                   and any(lo < s.start <= hi for lo, hi in point_windows))

    cache = sys.modules["serrin.modes"].riccati_solution.cache_info()
    metrics = {
        "discrete.assemble_calls": calls["discrete.assemble"],
        "discrete.assemble_s": self_s["discrete.assemble"],
        "geometry.laplacian_coefficients_s": self_s["geometry.laplacian_coefficients"],
        "discrete.factor_calls": factors,
        "discrete.factor_s": self_s["discrete.factor"],
        "discrete.nnz_per_op": per(tracer.counts["discrete.nnz"], calls["discrete.assemble"]),
        "discrete.lu_nnz_per_op": per(tracer.counts["discrete.lu_nnz"], factors),
        "discrete.lu_mb_computed": tracer.counts["discrete.lu_nnz"] * LU_BYTES_PER_NNZ / 1e6,
        "discrete.solve_calls": calls["discrete.solve"],
        "discrete.solve_s": self_s["discrete.solve"],
        "torsion.solve_calls": calls["torsion.solve"],
        "torsion.solve_s": self_s["torsion.solve"],
        "branch.points": points,
        "branch.point_s": per(sum(hi - lo for lo, hi in point_windows), points),
        "branch.newton_iters_per_point": per(sum(newton_iters), points),
        "branch.solves_per_point": per(in_points("torsion.solve"), points),
        "branch.factorizations_per_point": per(in_points("discrete.factor"), points),
        "branch.certificate_s": per(total_s["branch.certificate"], calls["branch.certificate"]),
        "linearize.apply_L_calls": calls["linearize.apply_L"],
        "linearize.apply_L_s": self_s["linearize.apply_L"],
        "linearize.operator_requests": requests,
        "linearize.operator_builds": builds,
        "linearize.operator_reuse_ratio": per(requests, builds),
        "linearize.leakage_max": tracer.maxima["linearize.leakage_max"],
        "modes.riccati_misses": cache.misses,
        "modes.riccati_hits": cache.hits,
        "modes.riccati_s": self_s["modes.riccati"],
        "spectrum.sigma_calls": calls["spectrum.sigma"],
        "spectrum.sigma_s": self_s["spectrum.sigma"],
        "spectrum.find_lambda_n_s": self_s["spectrum.find_lambda_n"],
        "spectrum.sigma_residual_max": tracer.maxima["spectrum.sigma_residual_max"],
        "trace.spans": len(spans),
    }
    return metrics
