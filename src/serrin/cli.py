"""Command-line surface for reproducible runs.

Subcommands: ``sweep`` (eigenvalue curves), ``roots`` (bifurcation radii),
``solve`` (one torsion field), ``check-linearization`` (finite-difference
validation of the linearized flux map), ``branch`` (continued branches of
perturbed Serrin domains) and ``verify`` (the property battery with a
pass/fail matrix).

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
from dataclasses import dataclass

import numpy as np

from . import __version__, io
from .branch import branch_report, trace_branch
from .errors import (AnalysisError, ConfigError, ConsistencyError,
                     DomainValidationError, NumericalError, PrecisionError)
from .fourier import CosineSeries
from .geometry import HALF_PI, Axis, BoundaryProfile, ModeIndex
from .linearize import apply_L, constant_operator, fd_derivative_H, resolvent_apply
from .modes import (RICCATI_RTOL, chebyshev_grid, check_swept_range, integrate_riccati,
                    riccati_solution, riccati_sweep)
from .radial import radial_flux, radial_torsion
from .spectrum import eigen_curve, find_lambda_n, sigma, sigma_prime_closed_form
from .torsion import mean_flux, parse_resolution, serrin_defect, solve_torsion

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _axes(value):
    if value == "both":
        return [Axis.XI, Axis.ETA]
    return [Axis.coerce(value)]


def _out_dir(ns):
    out = ns.out or os.environ.get("SERRIN_OUT_DIR") or "serrin_out"
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(path):
    if not path:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _merged(ns, defaults):
    """Resolve option values: command line > config file > defaults."""
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
            if caster is bool:
                out[key] = config[key].lower() in ("1", "true", "yes")
            else:
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
    opts = _merged(ns, SOLVE_DEFAULTS)
    if opts.profile_json:
        config = _load_config(ns.config)
        given = [key for key in ("axis", "lam", "mode", "amplitude")
                 if getattr(ns, key) is not None or key in config]
        if given:
            raise ConfigError(f"profile_json fixes the profile; it conflicts with {given}")
        with open(opts.profile_json) as handle:
            profile = BoundaryProfile.from_json(handle.read())
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
    axis = Axis.coerce(opts.axis)
    table = fd_derivative_H(opts.lam, CosineSeries.basis(opts.mode), axis=axis,
                            resolution=parse_resolution(opts.resolution))
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
    rows = []
    for r in rep.rows:
        lead = r["leading_modes"] + [(0, 0.0)] * (3 - len(r["leading_modes"]))
        rows.append((r["s"], r["lambda"], r["defect"], r["volume"], r["area"],
                     r["volume_fraction"], r["mean_flux"], r["divergence_gap"],
                     r["newton_iters"], r["tangent_jacobians"],
                     lead[0][0], lead[0][1], lead[1][0], lead[1][1],
                     lead[2][0], lead[2][1]))
    stem = os.path.join(out, f"branch_{axis.value}_j{opts.mode}")
    io.write_csv(stem + ".csv",
                 ("s", "lambda", "defect", "volume", "area", "volume_fraction",
                  "mean_flux", "divergence_gap", "newton_iters", "tangent_jacobians",
                  "lead1_mode", "lead1_amp", "lead2_mode", "lead2_amp",
                  "lead3_mode", "lead3_amp"), rows)
    cert = run.certificate
    io.write_json(stem + ".json", {
        "settings": run.settings, "termination": run.termination,
        "certificate": {
            "lambda_j": cert.lambda_j, "spectral_gap": cert.spectral_gap,
            "kernel_sigma": cert.kernel_sigma,
            "transversality_slope": cert.transversality_slope,
            "closed_form_slope": cert.closed_form_slope,
            "trivial_defect": cert.trivial_defect,
        },
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


@dataclass
class _Injection:
    """Deliberate defects proving the battery can fail."""

    sigma_sign: bool = False
    riccati_shift: float = 0.0
    axis_break: bool = False

    @classmethod
    def from_name(cls, name):
        if name == "none":
            return cls()
        if name == "sigma-sign":
            return cls(sigma_sign=True)
        if name == "riccati-init":
            return cls(riccati_shift=-0.05)
        if name == "axis-condition":
            return cls(axis_break=True)
        raise ConfigError(f"unknown injection {name!r}")

    def sigma(self, mode, lam):
        value = sigma(mode, lam)
        return -value if self.sigma_sign else value

    def riccati(self, mode):
        if self.riccati_shift:
            return integrate_riccati(mode, initial_shift=self.riccati_shift)
        return riccati_solution(mode)

    def operator(self, axis, lam, resolution):
        shift = None
        if self.axis_break:
            _, m = parse_resolution(resolution)
            shift = m // 2 if Axis.coerce(axis) is Axis.XI else 0
        return constant_operator(axis, lam, resolution, axis_shift=shift)


def _battery(axis, inj):
    """Checks for one mode family; each returns a detail string or raises."""
    axis = Axis.coerce(axis)
    lam_ref = 0.8 if axis is Axis.XI else 1.0
    res = (48, 16)

    def radial_reference():
        fld = solve_torsion(BoundaryProfile.constant(axis, lam_ref), res)
        err = float(np.max(np.abs(fld.u - radial_torsion(lam_ref, fld.t * lam_ref)[:, None])))
        flux_err = abs(float(np.mean(fld.neumann)) - radial_flux(lam_ref))
        defect = serrin_defect(fld)
        if err > 1e-7 or flux_err > 1e-6 or defect > 1e-11:
            raise AnalysisError(f"u_err={err:.2e} flux_err={flux_err:.2e} defect={defect:.2e}")
        return f"u_err={err:.1e} flux_err={flux_err:.1e}"

    def eigen_identity():
        ns = (2, 3) if axis is Axis.XI else (1, 2)
        worst = 0.0
        op = inj.operator(axis, lam_ref, (128, 16))
        for n in ns:
            la = apply_L(lam_ref, CosineSeries.basis(n), axis=axis, operator=op)
            sig = inj.sigma(ModeIndex(axis, n), lam_ref)
            worst = max(worst, float(np.max(np.abs(la.samples - sig * np.cos(n * la.angles)))))
        if worst > 1e-6:
            raise AnalysisError(f"eigen-identity deviation {worst:.2e} > 1e-6")
        return f"max_dev={worst:.1e}"

    def riccati_bounds():
        grid = chebyshev_grid(100, 0.01, 1.4)
        for n in ((2, 5) if axis is Axis.XI else (1, 4)):
            riccati_sweep(inj.riccati(ModeIndex(axis, n)), lam_grid=grid)
        return "two-sided bounds hold"

    def sigma_ordering():
        grid = np.linspace(0.1, 1.3, 25)
        prev = None
        for n in range(0, 7):
            vals = np.array([inj.sigma(ModeIndex(axis, n), x) for x in grid])
            if prev is not None and not np.all(vals > prev):
                raise AnalysisError(f"ordering broken between n={n - 1} and n={n}")
            prev = vals
        return "sigma strictly increasing in n"

    def sign_window():
        for n in (2, 4):
            edge = np.arcsin(1.0 / n) if axis is Axis.XI else np.arccos(1.0 / n)
            grid = np.linspace(0.05, edge, 12)
            vals = np.array([inj.sigma(ModeIndex(axis, n), x) for x in grid])
            ok = np.all(vals < 0.0) if axis is Axis.XI else np.all(vals > 0.0)
            if not ok:
                raise AnalysisError(f"sign window violated for n={n}")
        return "proved sign windows hold"

    def roots():
        pts = [find_lambda_n(ModeIndex(axis, n)) for n in (2, 3)]
        for p in pts:
            sigma_prime_closed_form(p)   # raises on closed-form/fd mismatch
            if p.sigma_residual > 1e-10:
                raise AnalysisError(f"sigma residual {p.sigma_residual:.2e}")
        ordered = pts[0].lambda_n > pts[1].lambda_n if axis is Axis.XI \
            else pts[0].lambda_n < pts[1].lambda_n
        signs = all((p.sigma_prime > 0) == (axis is Axis.XI) for p in pts)
        if not (ordered and signs):
            raise AnalysisError("root ordering or slope sign wrong")
        return f"lambda_2={pts[0].lambda_n:.8f} lambda_3={pts[1].lambda_n:.8f}"

    def linearization_fd():
        table = fd_derivative_H(lam_ref, CosineSeries.basis(2), axis=axis,
                                steps=(1e-2, 1e-3), resolution=res)
        if table.extrapolated_deviation > 1e-6:
            raise AnalysisError(f"fd deviation {table.extrapolated_deviation:.2e}")
        return f"extrapolated_dev={table.extrapolated_deviation:.1e}"

    def resolvent_roundtrip():
        j = 2
        sig_j = sigma(ModeIndex(axis, j), lam_ref)
        worst = 0.0
        for m in (0, 1, 3, 4, 6):
            r = resolvent_apply(lam_ref, j, CosineSeries.basis(m), axis=axis)
            back = (sigma(ModeIndex(axis, m), lam_ref) - sig_j) * r.coefficient(m)
            worst = max(worst, abs(back - 1.0))
        if worst > 1e-8:
            raise AnalysisError(f"roundtrip error {worst:.2e}")
        return f"roundtrip_err={worst:.1e}"

    def defect_sensitivity():
        prof = BoundaryProfile.perturbed(axis, lam_ref, 2, 0.05)
        defect = serrin_defect(solve_torsion(prof, res))
        if defect < 1e-4:
            raise AnalysisError(f"perturbed defect {defect:.2e} suspiciously small")
        return f"perturbed_defect={defect:.2e}"

    return [
        ("radial-reference", radial_reference),
        ("eigen-identity", eigen_identity),
        ("riccati-bounds", riccati_bounds),
        ("sigma-ordering", sigma_ordering),
        ("sign-window", sign_window),
        ("roots", roots),
        ("linearization-fd", linearization_fd),
        ("resolvent-roundtrip", resolvent_roundtrip),
        ("defect-sensitivity", defect_sensitivity),
    ]


def cmd_verify(ns):
    opts = _merged(ns, VERIFY_DEFAULTS)
    inj = _Injection.from_name(opts.inject)
    rows = []
    failures = 0
    for axis in _axes(opts.axis):
        for name, check in _battery(axis, inj):
            try:
                detail = check()
                status = "PASS"
            except (AnalysisError, ConsistencyError, NumericalError,
                    PrecisionError, AssertionError) as exc:
                detail = str(exc)
                status = "FAIL"
                failures += 1
            rows.append((name, axis.value, status, detail))
            print(f"{name:24s} {axis.value:4s} {status:4s}  {detail}")
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

    def common(p):
        p.add_argument("--out", help="output directory (default $SERRIN_OUT_DIR or ./serrin_out)")
        p.add_argument("--config", help="key=value configuration file")

    p = sub.add_parser("sweep", help="eigenvalue curves over (axis, n, lambda)")
    common(p)
    p.add_argument("--axis", choices=("xi", "eta", "both"))
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--lam-min", type=float, dest="lam_min")
    p.add_argument("--lam-max", type=float, dest="lam_max")
    p.add_argument("--points", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roots", help="bifurcation radii lambda_n with certificates")
    common(p)
    p.add_argument("--axis", choices=("xi", "eta", "both"))
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("solve", help="solve the torsion problem on one profile")
    common(p)
    p.add_argument("--axis", choices=("xi", "eta"))
    p.add_argument("--lam", type=float)
    p.add_argument("--mode", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--resolution", help="radial x angular nodes, e.g. 64x64")
    p.add_argument("--profile-json", dest="profile_json",
                   help="JSON file with {axis, coeffs, n_modes}")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-linearization",
                       help="finite differences of H against the linearized map")
    common(p)
    p.add_argument("--axis", choices=("xi", "eta"))
    p.add_argument("--lam", type=float)
    p.add_argument("--mode", type=int)
    p.add_argument("--resolution")
    p.add_argument("--truncation", type=int)
    p.set_defaults(func=cmd_check_linearization)

    p = sub.add_parser("branch", help="trace one bifurcating branch")
    common(p)
    p.add_argument("--axis", choices=("xi", "eta"))
    p.add_argument("--mode", type=int, help="kernel frequency j >= 2")
    p.add_argument("--smax", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--resolution")
    p.add_argument("--truncation", type=int)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("verify", help="run the property battery")
    common(p)
    p.add_argument("--axis", choices=("xi", "eta", "both"))
    p.add_argument("--inject",
                   choices=("none", "sigma-sign", "riccati-init", "axis-condition"),
                   help="deliberately corrupt one ingredient (battery must fail)")
    p.set_defaults(func=cmd_verify)
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


def _failure(label, exc, code):
    print(f"{label}: {exc}", file=sys.stderr)
    details = getattr(exc, "details", None)
    if details:
        print(json.dumps(details, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
