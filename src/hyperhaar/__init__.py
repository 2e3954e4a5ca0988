"""Invariant (Haar) measures on finite hypergroups via shrinking-bump approximants."""

from .core import (
    FiniteHypergroup,
    Function,
    Measure,
    NoCover,
    Refusal,
    ValidationReport,
    convolve_function_measure,
    convolve_measure_function,
    convolve_measures,
    find_dominating_measure,
    involute_function,
    involute_measure,
    pair,
    support_product,
    validate,
)
from .approx import (
    ApproximantConfig,
    ConvergenceTrace,
    NoChain,
    NotConverged,
    ShrinkingChain,
    ZeroDenominator,
    approximant,
    bounds_certificate,
    canonical_chain,
    haar_net,
    main_identity_gap,
    normalized_approximant,
    sandwich_ratio,
    symmetrize,
)
from .oracles import (
    DegenerateNullspace,
    H6Violation,
    NegativeSolution,
    build_family,
    invariance_residual,
    jewett_haar,
    solve_invariance,
)
from .fileio import (DuplicateEntry, ParseError, RangeError, parse_hypergroup, read_hypergroup,
                     serialize_hypergroup, write_hypergroup)

__version__ = "0.1.0"
