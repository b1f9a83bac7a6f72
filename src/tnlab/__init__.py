"""tnlab: subset-product-square thresholds t_n and their surrounding machinery.

t_n is the least t such that some subset of {n+1, ..., n+t} multiplied by n
is a perfect square. The package computes t_n exactly with certifying
witnesses, reproduces interval and distribution identities at desk scale,
builds curve-point certificates constructively, and evaluates explicit
height bounds with exact arithmetic.

Importing the package loads none of its modules: each public name below
resolves on first access (PEP 562), importing the one module that defines
it, so a process pays only for the modules it uses.
"""

import importlib

_HOMES = {
    "errors": ("CapExceeded", "DomainError", "PipelineFailed", "PreconditionError",
               "RangeError", "ResourceError", "TnLabError", "UsageError"),
    "sieve": ("FactorizationRecord", "SpfTable", "build_spf_table", "primes_up_to",
              "psi_count", "smooth_in_interval"),
    "tn": ("ParitySupplier", "TnResult", "compute_tn", "large_prime_shortcut", "scan_tn"),
    "verify": ("verify_witness",),
    "intervals": ("IntervalReport", "SquareSubsetEnumeration", "check_interval_identity",
                  "count_tn_closed", "enumerate_square_subsets"),
    "distribution": ("ConjectureScanReport", "DistributionTable", "conjecture_scan",
                     "dickman_rho", "distribution_table", "exceptional_set"),
    "constructor": ("CurvePointCertificate", "build_small_tn", "construct_curve_point",
                    "find_smooth_rich_intervals", "max_symdiff_pair"),
    "heights": ("HeightBoundReport", "LowOmegaSelection", "PellSystem",
                "few_offsets_log_bound", "integral_point_log_bound", "pell_solutions",
                "pell_system_decompose", "select_low_omega", "tn_lower_bound_eval"),
    "runge": ("NearSquareDecomposition", "RationalPoly", "expand_offset_poly",
              "height_bound", "near_square_decompose", "offsets_near_square",
              "search_integral_points"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [name for names in _HOMES.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:  # a submodule not imported yet, as in tnlab.heights
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
