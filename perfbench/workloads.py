"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

A *unit* is what one fresh child process runs: the whole workload once,
single client and closed loop (each operation waits for the previous one).
An *operation* is one continued branch point (``branch``), one straight-tube
radius with all its modes (``straight``) or one bifurcation root
(``roots``).  Every operation is checked against the acceptance tolerances
after the timed region; an operation fails if it raises or misses one.

Why these workloads (also recorded in BENCHMARK.json):

- ``branch`` continues the xi and eta j=2 branches at 64x64, truncation 16,
  certificate included, to the first point of the amplitude path of
  acceptance criterion 8.  Perturbed assembly, ``splu`` on the 1.8M-nnz
  operator and the finite-difference Jacobian dominate.  Both axes run
  because eta reflects through the axis with a half-period shift.
- ``straight`` repeats the access pattern of acceptance criterion 2 at the
  library default 256x48: one straight-tube factorization per radius and
  nine back-solves on it, with the factorizations kept alive by the
  operator cache, so it is the memory-bound side of the ``discrete`` layer.
  The seed draws the radii.
- ``roots`` runs ``serrin roots`` and then ``serrin sweep`` over modes
  2..24 of both axes from cold Riccati caches: scalar Brent evaluations
  against grid evaluation of the dense output, with no PDE work.
"""

import contextlib
import csv
import json
import math
import os
import random
import resource
import time
import traceback

from tracing import Tracer, layer_metrics

WORKLOADS = ("branch", "straight", "roots")

BRANCH = {"axes": ["xi", "eta"], "j": 2, "resolution": [64, 64], "truncation": 16,
          # the first point of criterion 8's path: s_max=0.02 in 10 steps
          "s_max": 0.002, "n_steps": 1}
STRAIGHT = {"resolution": [256, 48], "n_max": 8, "lam_range": [0.15, 1.35],
            "radii_per_axis": 4}
ROOTS = {"n_min": 2, "n_max": 24}

TOLERANCES = {
    # acceptance criterion 8
    "branch_defect": 1e-6, "branch_orthogonality": 1e-10, "branch_divergence": 1e-6,
    # acceptance criterion 2; identity deviation as in ``serrin verify``
    "straight_leakage": 1e-8, "straight_identity": 1e-6,
    # acceptance criterion 5
    "root_residual": 1e-10, "quarter_pi": 1e-10,
}


def make_inputs(workload, seed, unit):
    """Inputs of one unit; the seed only draws the straight-tube radii.

    Radii are stratified: one uniform draw in each of ``radii_per_axis``
    equal slices of the radius range, so every unit covers the whole range.
    """
    if workload == "branch":
        return dict(BRANCH)
    if workload == "roots":
        return dict(ROOTS)
    if workload != "straight":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"straight:{seed}:{unit}")
    lo, hi = STRAIGHT["lam_range"]
    k = STRAIGHT["radii_per_axis"]
    width = (hi - lo) / k
    radii = {axis: [lo + width * (i + rng.uniform(0.01, 0.99)) for i in range(k)]
             for axis in ("xi", "eta")}
    return {"resolution": STRAIGHT["resolution"], "n_max": STRAIGHT["n_max"],
            "radii": radii}


class _Op:
    """One operation: its latency (None when it raised) and what to check."""

    __slots__ = ("label", "latency", "result", "error")

    def __init__(self, label, latency=None, result=None, error=None):
        self.label = label
        self.latency = latency
        self.result = result
        self.error = error


def _error(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# -- branch ------------------------------------------------------------------

@contextlib.contextmanager
def _point_clock():
    """Clock reading at the construction of every ``BranchPoint``.

    One ``perf_counter`` call per point; the untraced run needs it to time
    single points inside ``trace_branch``.
    """
    from serrin import branch
    cls = branch.BranchPoint
    original = cls.__init__
    marks = []

    def init(point, *args, **kwargs):
        original(point, *args, **kwargs)
        marks.append((point.s, time.perf_counter()))
    cls.__init__ = init
    try:
        yield marks
    finally:
        cls.__init__ = original


def run_branch(inputs, out_dir, facts):
    from serrin import branch, geometry
    ops = []
    windows, iters = [], []
    with _point_clock() as marks:
        for axis in inputs["axes"]:
            mode = geometry.ModeIndex(geometry.Axis(axis), inputs["j"])
            first = len(marks)
            try:
                run = branch.trace_branch(mode, inputs["s_max"], inputs["n_steps"],
                                          resolution=tuple(inputs["resolution"]),
                                          truncation=inputs["truncation"])
            except Exception as exc:   # the operation failed; keep measuring
                ops += [_Op(f"{axis} step {k}", error=_error(exc))
                        for k in range(1, inputs["n_steps"] + 1)]
                continue
            mine = marks[first:]
            solved = [p for p in run.points if p.s != 0.0]
            for k, point in enumerate(solved, start=1):
                lo, hi = mine[k - 1][1], mine[k][1]
                windows.append((lo, hi))
                iters.append(point.newton_iters)
                ops.append(_Op(f"{axis} s={point.s:g}", hi - lo,
                               (point, run.certificate)))
            for k in range(len(solved) + 1, inputs["n_steps"] + 1):
                ops.append(_Op(f"{axis} step {k}",
                               error=f"not reached: termination {run.termination!r}"))
    facts.update(point_windows=windows, newton_iters=iters)
    return ops


def check_branch(op, tol, records=None):
    point, cert = op.result
    if not cert.passed:
        return "certificate did not pass"
    for name, value, limit in (
            ("defect", point.defect, tol["branch_defect"]),
            ("orthogonality", point.kernel_orthogonality, tol["branch_orthogonality"]),
            ("divergence gap", point.divergence_gap, tol["branch_divergence"])):
        if not value < limit:
            return f"{name} {value:.3e} not below {limit:.0e}"
    return None


# -- straight ----------------------------------------------------------------

def run_straight(inputs, out_dir, facts):
    from serrin import fourier, geometry, linearize, spectrum
    resolution = tuple(inputs["resolution"])
    ops = []
    for axis_name, radii in inputs["radii"].items():
        axis = geometry.Axis(axis_name)
        for lam in radii:
            label = f"{axis_name} lambda={lam:.6f}"
            start = time.perf_counter()
            try:
                op = linearize.constant_operator(axis, lam, resolution)
                calls = []
                for n in range(inputs["n_max"] + 1):
                    la = linearize.apply_L(lam, fourier.CosineSeries.basis(n),
                                           axis=axis, operator=op)
                    calls.append((n, la, spectrum.sigma(geometry.ModeIndex(axis, n), lam)))
            except Exception as exc:   # the operation failed; keep measuring
                ops.append(_Op(label, error=_error(exc)))
                continue
            ops.append(_Op(label, time.perf_counter() - start, calls))
    return ops


def check_straight(op, tol, records=None):
    import numpy as np
    for n, la, sig in op.result:
        leak = la.leakage({n})
        if not leak < tol["straight_leakage"]:
            return f"mode {n}: leakage {leak:.3e} not below {tol['straight_leakage']:.0e}"
        dev = float(np.max(np.abs(la.samples - sig * np.cos(n * la.angles))))
        if not dev < tol["straight_identity"]:
            return f"mode {n}: |L cos - sigma cos| {dev:.3e} not below {tol['straight_identity']:.0e}"
    return None


# -- roots -------------------------------------------------------------------

class _LineClock:
    """Stand-in for stdout that notes when each root line is printed."""

    def __init__(self, marker):
        self.marker = marker
        self.marks = []

    def write(self, text):
        if self.marker in text:
            self.marks.append(time.perf_counter())
        return len(text)

    def flush(self):
        pass


def _root_modes(inputs):
    return [(axis, n) for axis in ("xi", "eta")
            for n in range(inputs["n_min"], inputs["n_max"] + 1)]


def run_roots(inputs, out_dir, facts):
    from serrin import cli
    options = ["--axis", "both", "--n-min", str(inputs["n_min"]),
               "--n-max", str(inputs["n_max"]), "--out", out_dir]
    clock = _LineClock("lambda_n=")
    start = time.perf_counter()
    with contextlib.redirect_stdout(clock):
        codes = [cli.main(["roots", *options]), cli.main(["sweep", *options])]
    facts["exit_codes"] = codes
    expected = _root_modes(inputs)
    ops = []
    for k, (axis, n) in enumerate(expected):
        label = f"{axis} n={n}"
        if k < len(clock.marks):
            lo = clock.marks[k - 1] if k else start
            ops.append(_Op(label, clock.marks[k] - lo, (axis, n)))
        else:
            ops.append(_Op(label, error=f"no root printed; roots exit code {codes[0]}"))
    return ops


def _roots_records(out_dir):
    records = {}
    for axis in ("xi", "eta"):
        path = os.path.join(out_dir, f"roots_{axis}.json")
        if os.path.exists(path):
            with open(path) as handle:
                records.update({(r["axis"], r["n"]): r for r in json.load(handle)})
    return records


def check_root(op, tol, records):
    axis, n = op.result
    rec = records.get((axis, n))
    if rec is None:
        return "no record in roots output"
    lam = rec["lambda_n"]
    if not rec["sigma_residual"] < tol["root_residual"]:
        return f"sigma residual {rec['sigma_residual']:.3e} not below {tol['root_residual']:.0e}"
    # the CLI runs sigma_prime_closed_form, which raises on a slope mismatch;
    # the sign and the proved interval are those of acceptance criterion 5
    slope = rec["sigma_prime_closed_form"]
    if axis == "xi":
        ok = slope > 0.0 and lam <= math.asin(n ** -0.5) + 1e-9
    else:
        ok = slope < 0.0 and math.acos(1.0 / n) < lam < math.pi / 2
    if not ok:
        return f"slope {slope:+.3e} or location {lam:.12f} outside the proved window"
    if (axis, n) == ("xi", 2) and not abs(lam - math.pi / 4) < tol["quarter_pi"]:
        return f"xi n=2 root {lam!r} is not pi/4 within {tol['quarter_pi']:.0e}"
    return None


def check_sweep(inputs, out_dir, records):
    """Each swept curve changes sign once, between the nodes around its root."""
    errors = []
    for axis, n in _root_modes(inputs):
        path = os.path.join(out_dir, f"sweep_{axis}_n{n}.csv")
        if not os.path.exists(path):
            errors.append(f"sweep {axis} n={n}: no output")
            continue
        with open(path, newline="") as handle:
            rows = [(float(r["lambda"]), float(r["sigma"])) for r in csv.DictReader(handle)]
        flips = [(a[0], b[0]) for a, b in zip(rows, rows[1:]) if (a[1] < 0.0) != (b[1] < 0.0)]
        rec = records.get((axis, n))
        if len(flips) != 1 or rec is None or not flips[0][0] <= rec["lambda_n"] <= flips[0][1]:
            errors.append(f"sweep {axis} n={n}: sign changes {flips} do not bracket the root")
    return errors


# -- one unit ----------------------------------------------------------------

RUNNERS = {"branch": run_branch, "straight": run_straight, "roots": run_roots}
CHECKS = {"branch": check_branch, "straight": check_straight, "roots": check_root}


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_unit(workload, inputs, out_dir, trace=False, tol=TOLERANCES):
    """Run one unit in this process and return its record.

    The record holds the unit's wall and CPU time, its peak RSS, one entry
    per operation (latency, or the reason it failed), unit-level errors and,
    when traced, the per-layer metrics.
    """
    facts = {}
    tracer = Tracer() if trace else None
    with tracer.installed() if trace else contextlib.nullcontext():
        cpu0 = _cpu_s()
        start = time.perf_counter()
        ops = RUNNERS[workload](inputs, out_dir, facts)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    unit_errors, records = [], None
    if workload == "roots":
        records = _roots_records(out_dir)
        unit_errors += check_sweep(inputs, out_dir, records)
        if facts["exit_codes"] != [0, 0]:
            unit_errors.append(f"CLI exit codes {facts['exit_codes']}")
    for op in ops:
        if op.error is None:
            op.error = CHECKS[workload](op, tol, records)
    record = {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
        "ops": [{"label": op.label, "latency_s": op.latency, "error": op.error}
                for op in ops],
        "unit_errors": unit_errors,
    }
    if trace:
        record["layers"] = layer_metrics(tracer, facts.get("point_windows", ()),
                                         facts.get("newton_iters", ()))
        record["missing_entry_points"] = tracer.missing
    return record
