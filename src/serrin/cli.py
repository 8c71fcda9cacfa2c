"""Command-line surface for reproducible runs.

Subcommands: ``sweep`` (eigenvalue curves), ``roots`` (bifurcation radii),
``solve`` (one torsion field), ``check-linearization`` (finite-difference
validation of the linearized flux map), ``branch`` (continued branches of
perturbed Serrin domains) and ``verify`` (a pass/fail matrix of the checks
in ``serrin.battery``, stage by stage up to the bifurcation certificate and a
short branch).  The module holds argument parsing and output only.

Configuration comes from a plain ``key=value`` file (``--config``) with
command-line flags taking precedence; every command is deterministic given
its configuration and writes files atomically.  Output goes under ``--out``
or the ``SERRIN_OUT_DIR`` environment variable.

Exit codes: 0 ok, 1 check failure, 2 configuration error, 3 numerical
failure.  A failure prints its message on stderr, followed by the error's
``details`` (when it carries any) as one sorted-key JSON line.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, _blas, io
from .battery import INJECTIONS, gate, verify_table
from .branch import branch_report, trace_branch
from .errors import (AnalysisError, ConfigError, ConsistencyError,
                     DomainValidationError, NumericalError, PrecisionError)
from .fourier import CosineSeries
from .geometry import HALF_PI, Axis, BoundaryProfile, ModeIndex
# apply_L and riccati_solution are unused here; the benchmark's tracer test reads them
from .linearize import apply_L, fd_derivative_H  # noqa: F401
from .modes import RICCATI_RTOL, chebyshev_grid, check_swept_range, riccati_solution  # noqa: F401
from .spectrum import eigen_curve, find_lambda_n, sigma, sigma_prime_closed_form
from .torsion import mean_flux, parse_resolution, serrin_defect, solve_torsion

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _axes(value):
    return [Axis.XI, Axis.ETA] if value == "both" else [Axis.coerce(value)]


def _out_dir(ns):
    out = ns.out or os.environ.get("SERRIN_OUT_DIR") or "serrin_out"
    os.makedirs(out, exist_ok=True)
    return out


def _read(path, what):
    """The text of a file named by an option; ConfigError when it cannot be read."""
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {what} {path!r}: {reason}") from None


def _load_config(path):
    if not path:
        return {}
    values = {}
    for lineno, raw in enumerate(_read(path, "config file").splitlines(keepends=True), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _merged(ns, defaults, config=None):
    """Resolve option values: command line > config file > defaults.

    ``config`` holds the config file's keys when the caller has read it.
    """
    if config is None:
        config = _load_config(ns.config)
    unknown = set(config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, default in defaults.items():
        cli_val = getattr(ns, key, None)
        if cli_val is not None:
            out[key] = cli_val
        elif key in config:
            caster = type(default) if default is not None else str
            try:
                out[key] = caster(config[key])
            except ValueError:
                raise ConfigError(f"config key {key}={config[key]!r} is not a {caster.__name__}")
        else:
            out[key] = default
    return argparse.Namespace(out=ns.out, **out)


def _check_positive(**named):
    for name, value in named.items():
        # written so that NaN fails it
        if value is not None and not value > 0:
            raise ConfigError(f"{name} must be positive, got {value}")


def _check_lambda_range(lo, hi):
    if not (0.0 < lo < hi < HALF_PI):
        raise ConfigError(
            f"lambda range must satisfy 0 < min < max < pi/2, got ({lo}, {hi})")


def _manifest(out, command, options):
    io.write_json(os.path.join(out, f"{command}_manifest.json"), {
        "command": command,
        "options": {k: (v.value if isinstance(v, Axis) else v) for k, v in options.items()},
        "version": __version__,
        "blas": {"library": _blas.LIBRARY and os.path.basename(_blas.LIBRARY),
                 "caller_threads": _blas.threads(), "solve_threads": 1 if _blas.LIBRARY else None},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

SWEEP_DEFAULTS = dict(axis="both", n_min=0, n_max=4, lam_min=1e-3,
                      lam_max=float(HALF_PI - 1e-3), points=400)


def cmd_sweep(ns):
    opts = _merged(ns, SWEEP_DEFAULTS)
    _check_positive(points=opts.points)
    _check_lambda_range(opts.lam_min, opts.lam_max)
    if not 0 <= opts.n_min <= opts.n_max:
        raise ConfigError(f"need 0 <= n_min <= n_max, got {opts.n_min}..{opts.n_max}")
    grid = chebyshev_grid(opts.points, opts.lam_min, opts.lam_max)
    check_swept_range(grid)   # before any curve is written, n = 0 included
    out = _out_dir(ns)
    written = []
    for axis in _axes(opts.axis):
        name = axis.value
        for n in range(opts.n_min, opts.n_max + 1):
            curve = eigen_curve(ModeIndex(axis, n), grid)
            path = os.path.join(out, f"sweep_{name}_n{n}.csv")
            io.write_csv(path, ("axis", "n", "lambda", "value", "sigma"),
                         [(name, n, lam, val, sig) for lam, val, sig in zip(
                             curve.lam.tolist(), curve.riccati.tolist(), curve.sigma.tolist())])
            written.append(os.path.basename(path))
            print(f"wrote {path}")
    _manifest(out, "sweep", {**vars(opts), "files": written})
    return EXIT_OK


# ----------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------

ROOTS_DEFAULTS = dict(axis="both", n_min=2, n_max=8, tol=1e-12)


def cmd_roots(ns):
    opts = _merged(ns, ROOTS_DEFAULTS)
    _check_positive(tol=opts.tol)
    if opts.n_min < 2:
        raise ConfigError(
            f"bifurcation analysis needs modes n >= 2, got n_min={opts.n_min}")
    if opts.n_min > opts.n_max:
        raise ConfigError(f"need n_min <= n_max, got {opts.n_min}..{opts.n_max}")
    out = _out_dir(ns)
    for axis in _axes(opts.axis):
        records = []
        for n in range(opts.n_min, opts.n_max + 1):
            point = find_lambda_n(ModeIndex(axis, n), tol=opts.tol)
            slope = sigma_prime_closed_form(point)
            records.append({
                "axis": axis.value, "n": n,
                "lambda_n": point.lambda_n,
                "sigma_residual": point.sigma_residual,
                "sigma_prime_closed_form": slope,
                "bracket": list(point.bracket),
                "sign_changes": point.sign_changes,
                "tolerances": {"brent_xtol": opts.tol, "sweep_rtol": RICCATI_RTOL},
            })
            print(f"{axis.value} n={n}: lambda_n={point.lambda_n:.12f} "
                  f"sigma'={slope:+.6f}")
        io.write_json(os.path.join(out, f"roots_{axis.value}.json"), records)
    _manifest(out, "roots", vars(opts))
    return EXIT_OK


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

SOLVE_DEFAULTS = dict(axis="xi", lam=0.8, mode=0, amplitude=0.0,
                      resolution="64x64", profile_json=None)


def cmd_solve(ns):
    config = _load_config(ns.config)
    opts = _merged(ns, SOLVE_DEFAULTS, config)
    if opts.profile_json:
        given = [key for key in ("axis", "lam", "mode", "amplitude")
                 if getattr(ns, key) is not None or key in config]
        if given:
            raise ConfigError(f"profile_json fixes the profile; it conflicts with {given}")
        profile = BoundaryProfile.from_json(_read(opts.profile_json, "profile_json"))
    elif opts.amplitude:
        profile = BoundaryProfile.perturbed(opts.axis, opts.lam, opts.mode,
                                            opts.amplitude)
    else:
        profile = BoundaryProfile.constant(opts.axis, opts.lam)
    fld = solve_torsion(profile, parse_resolution(opts.resolution))
    out = _out_dir(ns)
    stem = os.path.join(out, "torsion_field")
    io.torsion_field_to_files(fld, stem)
    print(f"solved {profile!r} at {opts.resolution}: "
          f"defect={serrin_defect(fld):.3e} mean_flux={mean_flux(fld):.10f} "
          f"residual={fld.residual:.2e}")
    print(f"wrote {stem}.json, {stem}_u.csv, {stem}_trace.csv")
    _manifest(out, "solve", {**vars(opts), "defect": serrin_defect(fld)})
    return EXIT_OK


# ----------------------------------------------------------------------
# check-linearization
# ----------------------------------------------------------------------

CHECK_DEFAULTS = dict(axis="xi", lam=0.5, mode=2, resolution="64x64",
                      truncation=16)


def cmd_check_linearization(ns):
    opts = _merged(ns, CHECK_DEFAULTS)
    _check_lambda_range(opts.lam * 0.99, opts.lam * 1.01 + 1e-9)
    if opts.truncation < 0:
        raise ConfigError(f"truncation must be >= 0, got {opts.truncation}")
    resolution = parse_resolution(opts.resolution)
    nyquist = resolution[1] // 2
    # as branch --truncation: mode M/2 and above alias on the M angle nodes
    if opts.mode < 0:
        raise ConfigError(f"mode must be >= 0, got {opts.mode}")
    if opts.mode >= nyquist:
        raise ConfigError(
            f"mode {opts.mode} reaches the Nyquist mode {nyquist} of {resolution[1]} "
            f"angle nodes; it must stay below {nyquist}")
    axis = Axis.coerce(opts.axis)
    table = fd_derivative_H(opts.lam, CosineSeries.basis(opts.mode), axis=axis,
                            resolution=resolution)
    sigmas = [sigma(ModeIndex(axis, m), opts.lam) for m in range(opts.truncation + 1)]
    out = _out_dir(ns)
    io.write_csv(os.path.join(out, f"linearization_{axis.value}_n{opts.mode}.csv"),
                 ("h", "deviation"), list(zip(table.steps, table.deviations)))
    io.write_json(os.path.join(out, f"decomposition_{axis.value}.json"), {
        "lambda": opts.lam, "axis": axis.value,
        "sigma": sigmas, "truncation": opts.truncation,
        "fd_extrapolated_deviation": table.extrapolated_deviation,
        "fd_slope": table.slope,
    })
    print(f"fd check at lambda={opts.lam}, mode {opts.mode} ({axis.value}): "
          f"deviations={np.array2string(table.deviations, precision=3)} "
          f"extrapolated={table.extrapolated_deviation:.3e} slope={table.slope:.2f}")
    _manifest(out, "check-linearization", vars(opts))
    return EXIT_OK


# ----------------------------------------------------------------------
# branch
# ----------------------------------------------------------------------

BRANCH_DEFAULTS = dict(axis="xi", mode=2, smax=0.02, steps=10,
                       resolution="64x64", truncation=16)


def cmd_branch(ns):
    opts = _merged(ns, BRANCH_DEFAULTS)
    _check_positive(smax=opts.smax, steps=opts.steps)
    if opts.mode < 2:
        raise ConfigError(
            f"bifurcation needs a kernel mode with n >= 2, got {opts.mode}")
    axis = Axis.coerce(opts.axis)
    run = trace_branch(ModeIndex(axis, opts.mode), opts.smax, opts.steps,
                       resolution=parse_resolution(opts.resolution),
                       truncation=opts.truncation)
    rep = branch_report(run)
    out = _out_dir(ns)
    columns = ("s", "lambda", "defect", "volume", "area", "volume_fraction", "mean_flux",
               "divergence_gap", "newton_iters", "tangent_jacobians")
    # the three leading modes as (mode, amplitude) pairs, padded with (0, 0.0)
    rows = [tuple(r[c] for c in columns) + sum((r["leading_modes"] + [(0, 0.0)] * 3)[:3], ())
            for r in rep.rows]
    stem = os.path.join(out, f"branch_{axis.value}_j{opts.mode}")
    io.write_csv(stem + ".csv", columns + tuple(
        f"lead{i}_{part}" for i in (1, 2, 3) for part in ("mode", "amp")), rows)
    io.write_json(stem + ".json", {
        "settings": run.settings, "termination": run.termination,
        "certificate": {key: getattr(run.certificate, key) for key in (
            "lambda_j", "spectral_gap", "kernel_sigma", "transversality_slope",
            "closed_form_slope", "trivial_defect")},
    })
    print(f"branch {axis.value} j={opts.mode}: {len(run.points)} points, "
          f"termination={run.termination}, max defect={rep.max_defect:.3e}, "
          f"volume fraction {rep.volume_fraction_range[0]:.4f}"
          f"..{rep.volume_fraction_range[1]:.4f}")
    print(f"wrote {stem}.csv, {stem}.json")
    _manifest(out, "branch", vars(opts))
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

VERIFY_DEFAULTS = dict(axis="both", inject="none")


def cmd_verify(ns):
    opts = _merged(ns, VERIFY_DEFAULTS)
    inj = INJECTIONS.get(opts.inject)
    if inj is None:
        raise ConfigError(f"unknown injection {opts.inject!r}")
    rows = []
    for axis in _axes(opts.axis):
        for name, check, sample, bounds, shown in verify_table(axis):
            try:
                status, detail = "PASS", shown.format(**gate(check(axis, inj, **sample), bounds))
            except (AnalysisError, ConsistencyError, NumericalError,
                    PrecisionError, AssertionError) as exc:
                status, detail = "FAIL", " ".join(filter(None, (str(exc), _details(exc))))
            rows.append((name, axis.value, status, detail))
            print(f"{name:24s} {axis.value:4s} {status:4s}  {detail}")
    failures = sum(row[2] == "FAIL" for row in rows)
    if ns.out or os.environ.get("SERRIN_OUT_DIR"):
        out = _out_dir(ns)
        io.write_csv(os.path.join(out, "verify_matrix.csv"),
                     ("check", "axis", "status", "detail"), rows)
        _manifest(out, "verify", {**vars(opts), "failures": failures})
    print(f"{len(rows) - failures}/{len(rows)} checks passed"
          + (f" ({opts.inject} injected)" if opts.inject != "none" else ""))
    return EXIT_CHECK_FAILURE if failures else EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="serrin",
        description="Perturbed Serrin domains of the three-sphere: curves, "
                    "roots, torsion fields, and bifurcation branches.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", help="output directory (default $SERRIN_OUT_DIR or ./serrin_out)")
        p.add_argument("--config", help="key=value configuration file")
        p.set_defaults(func=func)
        return p

    p = command("sweep", cmd_sweep, "eigenvalue curves over (axis, n, lambda)")
    p.add_argument("--axis", choices=("xi", "eta", "both"))
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--lam-min", type=float, dest="lam_min")
    p.add_argument("--lam-max", type=float, dest="lam_max")
    p.add_argument("--points", type=int)

    p = command("roots", cmd_roots, "bifurcation radii lambda_n with certificates")
    p.add_argument("--axis", choices=("xi", "eta", "both"))
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--tol", type=float)

    p = command("solve", cmd_solve, "solve the torsion problem on one profile")
    p.add_argument("--axis", choices=("xi", "eta"))
    p.add_argument("--lam", type=float)
    p.add_argument("--mode", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--resolution", help="radial x angular nodes, e.g. 64x64")
    p.add_argument("--profile-json", dest="profile_json",
                   help="JSON file with {axis, coeffs, n_modes}")

    p = command("check-linearization", cmd_check_linearization,
                "finite differences of H against the linearized map")
    p.add_argument("--axis", choices=("xi", "eta"))
    p.add_argument("--lam", type=float)
    p.add_argument("--mode", type=int)
    p.add_argument("--resolution")
    p.add_argument("--truncation", type=int)

    p = command("branch", cmd_branch, "trace one bifurcating branch")
    p.add_argument("--axis", choices=("xi", "eta"))
    p.add_argument("--mode", type=int, help="kernel frequency j >= 2")
    p.add_argument("--smax", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--resolution")
    p.add_argument("--truncation", type=int)

    p = command("verify", cmd_verify, "run the property battery")
    p.add_argument("--axis", choices=("xi", "eta", "both"))
    p.add_argument("--inject", choices=tuple(INJECTIONS),
                   help="deliberately corrupt one ingredient (battery must fail)")
    return parser


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (ConfigError, DomainValidationError) as exc:
        return _failure("configuration error", exc, EXIT_CONFIG_ERROR)
    except (NumericalError, PrecisionError) as exc:
        return _failure("numerical failure", exc, EXIT_NUMERICAL_FAILURE)
    except (AnalysisError, ConsistencyError) as exc:
        return _failure("check failure", exc, EXIT_CHECK_FAILURE)


def _details(exc):
    """An error's ``details`` as one sorted-key JSON line, or "" if it has none."""
    details = getattr(exc, "details", None)
    return json.dumps(details, sort_keys=True) if details else ""


def _failure(label, exc, code):
    print("\n".join(filter(None, (f"{label}: {exc}", _details(exc)))), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
