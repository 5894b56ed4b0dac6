"""Spectral comparison toolkit for star and random transpositions on S_n.

Modules:
    partitions   integer partitions, Young diagrams, corners, exact dimensions
    spectra      closed-form eigenvalues with multiplicities for both shuffles
    exact_chain  brute-force engine over S_n at small n (exact matrices, TV)
    profiles     Poisson limit profile and the log-space comparison bound
    cli          command-line front end

Every public name lives in its module: `spectra.rt_eigenvalue`,
`profiles.comparison_bound`. Importing the package loads numpy only.
`exact_chain` is the one module that needs scipy, and loads it when imported:
`from shuffle_spectra import exact_chain`.
"""

from . import partitions, profiles, spectra

__version__ = "0.1.0"
