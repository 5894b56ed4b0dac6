"""Spectral comparison toolkit for star and random transpositions on S_n.

Modules:
    partitions   integer partitions, Young diagrams, corners, exact dimensions
    spectra      closed-form eigenvalues with multiplicities for both shuffles
    exact_chain  brute-force engine over S_n at small n (exact matrices, TV)
    profiles     Poisson limit profile and the log-space comparison bound
    cli          command-line front end

Importing the package loads numpy only. `exact_chain` is the one module that
needs scipy, so it and the names re-exported from it are imported on first
access (PEP 562): `from shuffle_spectra import build_matrix` and
`shuffle_spectra.exact_chain` both work, and load scipy then.
"""

import importlib

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

_EXACT_CHAIN_NAMES = frozenset({
    "SparseScaledMatrix",
    "build_matrix",
    "commutation_check",
    "evolve",
    "lemma_l2_check",
    "numeric_eig_multiset",
    "trajectory",
    "tv_between",
    "tv_to_uniform",
})


def __getattr__(name):
    if name == "exact_chain" or name in _EXACT_CHAIN_NAMES:
        module = importlib.import_module(".exact_chain", __name__)
        return module if name == "exact_chain" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
