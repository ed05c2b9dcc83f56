"""Executable function theory on the Fock-Bargmann-Hartogs domain.

Exact closed forms for negative-order polylogarithms, numerical evaluation
of the Bergman kernel and metric, the representative map, the full
automorphism group, and a harness of numerical verification suites.
"""

from . import errors
from .autgroup import (
    Automorphism,
    apply,
    compose,
    haar_unitary,
    identity,
    inverse,
    jacobian,
    jacobian_det,
    random_automorphism,
)
from .bergman import (
    KernelValue,
    inner,
    kernel,
    kernel_batch,
    l_matrix,
    log_kernel_grad_wbar,
    metric,
    representative_map,
)
from .domain import (
    DomainParams,
    Point,
    defect,
    project_to_boundary,
    sample_boundary,
    sample_density,
    sample_interior,
)
from .polylog import PolyExact, a_poly, polylog_deriv
from .verify import (
    CheckReport,
    check_boundary_invariance,
    check_cartan,
    check_gram_psd,
    check_kernel_law,
    check_metric_law,
    mc_reproduce_constant,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "CheckReport",
    "DomainParams",
    "KernelValue",
    "Point",
    "PolyExact",
    "a_poly",
    "apply",
    "check_boundary_invariance",
    "check_cartan",
    "check_gram_psd",
    "check_kernel_law",
    "check_metric_law",
    "compose",
    "defect",
    "errors",
    "haar_unitary",
    "identity",
    "inner",
    "inverse",
    "jacobian",
    "jacobian_det",
    "kernel",
    "kernel_batch",
    "l_matrix",
    "log_kernel_grad_wbar",
    "mc_reproduce_constant",
    "metric",
    "polylog_deriv",
    "project_to_boundary",
    "random_automorphism",
    "representative_map",
    "run_suite",
    "sample_boundary",
    "sample_density",
    "sample_interior",
]
