"""tnlab: subset-product-square thresholds t_n and their surrounding machinery.

t_n is the least t such that some subset of {n+1, ..., n+t} multiplied by n
is a perfect square. The package computes t_n exactly with certifying
witnesses, reproduces interval and distribution identities at desk scale,
builds curve-point certificates constructively, and evaluates explicit
height bounds with exact arithmetic.
"""

from .errors import (CapExceeded, DomainError, PipelineFailed, PreconditionError,
                     RangeError, ResourceError, TnLabError, UsageError)
from .sieve import (FactorizationRecord, SpfTable, build_spf_table, primes_up_to,
                    psi_count, smooth_in_interval)
from .tn import (ParitySupplier, TnResult, compute_tn, large_prime_shortcut,
                 scan_tn, verify_witness)
from .intervals import (IntervalReport, SquareSubsetEnumeration, check_interval_identity,
                        count_tn_closed, enumerate_square_subsets)
from .distribution import (ConjectureScanReport, DistributionTable, conjecture_scan,
                           dickman_rho, distribution_table, exceptional_set)
from .constructor import (CurvePointCertificate, build_small_tn, construct_curve_point,
                          find_smooth_rich_intervals, max_symdiff_pair)
from .heights import (HeightBoundReport, LowOmegaSelection, PellSystem,
                      few_offsets_log_bound, integral_point_log_bound,
                      pell_solutions, pell_system_decompose, select_low_omega,
                      tn_lower_bound_eval)
from .runge import (NearSquareDecomposition, RationalPoly, expand_offset_poly,
                    height_bound, near_square_decompose, offsets_near_square,
                    search_integral_points)

__version__ = "0.1.0"
