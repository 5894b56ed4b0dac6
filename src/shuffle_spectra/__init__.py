"""Spectral comparison toolkit for star and random transpositions on S_n.

Modules:
    partitions   integer partitions, Young diagrams, corners, exact dimensions
    spectra      closed-form eigenvalues with multiplicities for both shuffles
    exact_chain  brute-force engine over S_n at small n (exact matrices, TV)
    profiles     Poisson limit profile and the log-space comparison bound
    cli          command-line front end
"""

from .partitions import (
    Corner,
    SizeLimitError,
    corners,
    enumerate_partitions,
    exact_dim,
    transpose,
)
from .spectra import (
    RtEig,
    StarEig,
    rt_eigenvalue,
    spectrum_trace,
    star_eigenvalues,
)
from .exact_chain import (
    SparseScaledMatrix,
    build_matrix,
    commutation_check,
    evolve,
    lemma_l2_check,
    numeric_eig_multiset,
    trajectory,
    tv_between,
    tv_to_uniform,
)
from .profiles import (
    BoundReport,
    ProfilePoint,
    bound_decomposition,
    comparison_bound,
    cutoff_times,
    l2_bound,
    poisson_tv,
    profile_curve,
    rt_profile,
    star_profile,
)

__version__ = "0.1.0"
