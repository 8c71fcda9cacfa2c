"""Numerical toolkit for perturbed Serrin domains of the three-sphere.

The sphere is foliated by flat tori; straight tubes around the core circle
solve the overdetermined torsion problem exactly, and nontrivial Serrin
domains bifurcate from them at computable radii.  The package computes the
whole chain: Laplace-Beltrami coefficients and quadrature (``geometry``),
the exact radial reference (``radial``), the singular mode ODEs and their
Riccati forms (``modes``), the eigenvalue curves and bifurcation radii
(``spectrum``), the tube operators (``discrete``), the deformed-tube
torsion solver and flux (``torsion``), the linearized flux map
(``linearize``), and the continued branches of perturbed Serrin domains
(``branch``).  ``battery`` checks every stage, and ``cli`` ties them into
reproducible runs.
"""

# discrete first: it loads scipy.linalg, whose OpenBLAS worker thread spins
# for about 0.1 s of CPU after it loads (see the imports of discrete).  The
# rest of the package import then overlaps that spin, which otherwise runs
# on into the caller's first work.
from . import discrete  # noqa: F401
from .errors import (AnalysisError, ConfigError, ConsistencyError,
                     DomainValidationError, NumericalError, PrecisionError,
                     SerrinError)
from .fourier import CosineSeries, angle_grid
from .geometry import (Axis, BoundaryProfile, ModeIndex, boundary_area,
                       neumann_weight, volume)
from .radial import radial_flux, radial_torsion
from .modes import RiccatiState, riccati_sweep
from .spectrum import (BifurcationPoint, EigenCurve, eigen_curve, find_lambda_n,
                       sigma, sigma_prime_closed_form)
from .torsion import TorsionField, serrin_defect, solve_torsion
from .linearize import (HarmonicExtension, apply_L, fd_derivative_H,
                        harmonic_extend, resolvent_apply)
from .branch import (BranchPoint, BranchRun, branch_report,
                     check_cr_hypotheses, trace_branch)

__version__ = "0.1.0"

__all__ = [
    "SerrinError", "DomainValidationError", "ConfigError", "PrecisionError",
    "NumericalError", "AnalysisError", "ConsistencyError",
    "CosineSeries", "angle_grid",
    "Axis", "ModeIndex", "BoundaryProfile", "volume", "boundary_area",
    "neumann_weight",
    "radial_torsion", "radial_flux",
    "RiccatiState", "riccati_sweep",
    "sigma", "EigenCurve", "eigen_curve", "BifurcationPoint", "find_lambda_n",
    "sigma_prime_closed_form",
    "TorsionField", "solve_torsion", "serrin_defect",
    "HarmonicExtension", "harmonic_extend", "apply_L", "fd_derivative_H",
    "resolvent_apply",
    "BranchPoint", "BranchRun", "check_cr_hypotheses", "trace_branch",
    "branch_report",
    "__version__",
]
