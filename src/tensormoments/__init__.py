"""Exact Gaussian expectations of unitary-invariant random-tensor observables.

Three independent computation routes over the same bubble observables:
direct Wick enumeration (oracle), angular integration via Weingarten
calculus plus Wishart moments (effective), and Monte Carlo sampling.
"""
from .algebra import (
    LaurentPoly,
    N,
    Partition,
    Permutation,
    RationalFunc,
    Refused,
    catalan,
    partitions_of,
)
from .bubbles import (
    Bubble,
    ChainDecomposition,
    ColorSplit,
    bubble_from_chains,
    chain_decomposition,
    chain_obstruction,
    necklace,
    validate,
)
from .effective import (
    PowerSumExpansion,
    effective_observable,
    laguerre_reconstruct,
    wishart_moment_exact,
    wishart_moment_leading,
)
from .oracle import gaussian_expectation, per_color_dimensions
from .trees import CornerLabeledTree, catalan_product, enumerate_trees, tree_to_bubble
from .weingarten import weingarten_asymptotic, weingarten_exact, weingarten_table

__version__ = "0.1.0"

# Served from ``montecarlo`` on first access (PEP 562), so that importing the
# package, and every exact command, does not load numpy.
MONTECARLO_EXPORTS = ("Estimate", "SampleSpec", "estimate_expectation")


def __getattr__(name: str):
    if name in MONTECARLO_EXPORTS:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
