"""Each precondition of the library's public entry points, with its one text:
a wrong call fails the same way wherever it enters."""

import numpy as np
import pytest

from hyperhaar import (
    ApproximantConfig,
    FiniteHypergroup,
    Function,
    Measure,
    ShrinkingChain,
    approximant,
    bounds_certificate,
    canonical_chain,
    convolve_measures,
    find_dominating_measure,
    haar_net,
    main_identity_gap,
    normalized_approximant,
    pair,
    sandwich_ratio,
    support_product,
    symmetrize,
    validate,
)
from hyperhaar.checks import identity_suite, run_all_suites
from hyperhaar.oracles import cyclic_hypergroup, invariance_residual, theta_hypergroup

Z3 = cyclic_hypergroup(3)
ONES = Function.ones(3)
MU0 = Measure(np.ones(3), nonneg=True)
CHAIN = canonical_chain(Z3)
CFG = ApproximantConfig(MU0, ONES, CHAIN)

F0_RULE = "{} must be nonnegative and nonzero, and finite"
MU0_RULE = "mu0 must be finite and positive everywhere"
# (call, the one text it is refused with)
CASES = {
    "config-f0-zero": (lambda: ApproximantConfig(MU0, Function(np.zeros(3)), CHAIN),
                       F0_RULE.format("f0")),
    "config-f0-negative": (lambda: ApproximantConfig(MU0, Function([1.0, -1.0, 1.0]), CHAIN),
                           F0_RULE.format("f0")),
    "config-f0-inf": (lambda: ApproximantConfig(MU0, Function([1.0, np.inf, 1.0]), CHAIN),
                      F0_RULE.format("f0")),
    "dominating-f0-zero": (lambda: find_dominating_measure(Z3, ONES, Function(np.zeros(3))),
                           F0_RULE.format("f0")),
    "dominating-f0-inf": (lambda: find_dominating_measure(Z3, ONES, Function([np.inf, 0, 0])),
                          F0_RULE.format("f0")),
    # f may be 0, but not negative or infinite: an infinite f gets an infinite weight
    "dominating-f-negative": (lambda: find_dominating_measure(Z3, Function([0, -1, 0]), ONES),
                              "f must be nonnegative and finite"),
    "dominating-f-inf": (lambda: find_dominating_measure(Z3, Function([np.inf, 0, 0]), ONES),
                         "f must be nonnegative and finite"),
    # the probe f is named, not cfg.f0, which is valid
    "certificate-f-negative": (lambda: bounds_certificate(Z3, CFG, ONES, Function([1, -1, 0])),
                               F0_RULE.format("f")),
    "certificate-f-zero": (lambda: bounds_certificate(Z3, CFG, ONES, Function(np.zeros(3))),
                           F0_RULE.format("f")),
    "chain-bump-inf": (lambda: ShrinkingChain(CHAIN.neighborhoods[-1:],
                                              (Function([np.inf, 0, 0]),)).check(Z3),
                       F0_RULE.format("bump 0")),
    "config-mu0-zero": (lambda: ApproximantConfig(Measure([1.0, 0.0, 1.0]), ONES, CHAIN),
                        MU0_RULE),
    "config-mu0-negative": (lambda: ApproximantConfig(Measure([1.0, -1.0, 1.0]), ONES, CHAIN),
                            MU0_RULE),
    "config-mu0-nan": (lambda: ApproximantConfig(Measure([1.0, np.nan, 1.0]), ONES, CHAIN),
                       MU0_RULE),
    # approximant and the kernels that take mu0 directly apply ApproximantConfig's rule
    "approximant-mu0-negative": (lambda: approximant(Z3, Measure([-1.0, 1.0, 1.0]), ONES),
                                 MU0_RULE),
    "gap-mu0-negative": (lambda: main_identity_gap(Z3, Measure([1.0, -5.0, 1.0]), ONES, ONES),
                         MU0_RULE),
    "config-conv-tol-0": (lambda: ApproximantConfig(MU0, ONES, CHAIN, conv_tol=0.0),
                          "conv_tol must be a finite number > 0"),
    "config-conv-tol-nan": (lambda: ApproximantConfig(MU0, ONES, CHAIN, conv_tol=np.nan),
                            "conv_tol must be a finite number > 0"),
    "pair": (lambda: pair(Function.ones(2), MU0), "dimension mismatch: expected n=3, got 2"),
    "residual": (lambda: invariance_residual(Z3, Measure(np.ones(2))),
                 "dimension mismatch: expected n=3, got 2"),
    "convolve": (lambda: convolve_measures(Z3, MU0, Measure(np.ones(2))),
                 "dimension mismatch: expected n=3, got 2"),
    "approximant-mu0": (lambda: approximant(Z3, Measure(np.ones(2)), ONES),
                        "dimension mismatch: expected n=3, got 2"),
    "symmetrize": (lambda: symmetrize(Z3, Function.ones(2)),
                   "dimension mismatch: expected n=3, got 2"),
    "gap-f": (lambda: main_identity_gap(Z3, MU0, ONES, Function.ones(2)),
              "dimension mismatch: expected n=3, got 2"),
    "sandwich-mu": (lambda: sandwich_ratio(Z3, MU0, ONES, ONES, Measure(np.ones(2))),
                    "dimension mismatch: expected n=3, got 2"),
    "normalized-f0": (lambda: normalized_approximant(
        Z3, ApproximantConfig(MU0, Function.ones(2), CHAIN), ONES),
        "dimension mismatch: expected n=3, got 2"),
    "net-mu0": (lambda: haar_net(Z3, ApproximantConfig(Measure(np.ones(2)), ONES, CHAIN)),
                "dimension mismatch: expected n=3, got 2"),
    "net-f0": (lambda: haar_net(Z3, ApproximantConfig(MU0, Function.ones(4), CHAIN)),
               "dimension mismatch: expected n=3, got 4"),
    "certificate-f": (lambda: bounds_certificate(Z3, CFG, ONES, Function([1.0, 0.0, 0.0, 0.0])),
                      "dimension mismatch: expected n=3, got 4"),
    "chain-bumps": (lambda: ShrinkingChain(CHAIN.neighborhoods, CHAIN.bumps[1:]),
                    "need one bump per neighborhood"),
    "sandwich-mu-zero": (lambda: sandwich_ratio(Z3, MU0, ONES, ONES, Measure(np.zeros(3))),
                         "mu must be nonzero"),
    "inv-shape": (lambda: FiniteHypergroup(3, 0, [[0], [2], [1]], np.zeros((3, 3, 3))),
                  "involution is not a permutation"),
    "inv-length": (lambda: FiniteHypergroup(3, 0, [0, 2], np.zeros((3, 3, 3))),
                   "involution is not a permutation"),
    "tensor-shape": (lambda: FiniteHypergroup(2, 0, [0, 1], np.zeros((2, 2))),
                     r"structure tensor must have shape \(2, 2, 2\)"),
    "measure-2d": (lambda: Measure(np.ones((2, 2))), "measure weights must be a 1-d vector"),
    "function-2d": (lambda: Function(np.ones((2, 2))), "function values must be a 1-d vector"),
    "nonneg-measure": (lambda: Measure([1.0, -0.5], nonneg=True),
                       "nonneg measure has a negative weight"),
    "sandwich-mu-nan": (lambda: sandwich_ratio(Z3, MU0, ONES, ONES, Measure([np.nan, 0, 0])),
                        "mu must be nonzero"),
    "config-conv-tol-inf": (lambda: ApproximantConfig(MU0, ONES, CHAIN, conv_tol=np.inf),
                            "conv_tol must be a finite number > 0"),
    # validate grades with tol: at nan or -1 every graded check would read FAIL
    "validate-tol-nan": (lambda: validate(Z3, np.nan), "tol must be a finite number >= 0"),
    "validate-tol-negative": (lambda: validate(Z3, -1.0), "tol must be a finite number >= 0"),
    "validate-tol-inf": (lambda: validate(Z3, np.inf), "tol must be a finite number >= 0"),
    # no trial checks no identity
    "suites-trials-0": (lambda: run_all_suites(Z3, trials=0), "trials must be at least 1"),
    "identity-suite-trials-negative": (
        lambda: identity_suite(Z3, np.random.default_rng(0), trials=-1),
        "trials must be at least 1"),
    # a negative index would mark a point from the end
    "indicator-negative": (lambda: Function.indicator(3, [0, -1]),
                           "point index -1 out of range for n=3"),
    "dirac-negative": (lambda: Measure.dirac(3, -1), "point index -1 out of range for n=3"),
    "dirac-n": (lambda: Measure.dirac(3, 3), "point index 3 out of range for n=3"),
    "support-product": (lambda: support_product(Z3, [0], [1, 5]),
                        "point index 5 out of range for n=3"),
    "hypergroup-n-0": (lambda: FiniteHypergroup.from_entries(0, 0, [], [], [], [], []),
                       "n must be at least 1"),
    "hypergroup-e": (lambda: FiniteHypergroup(3, 3, [0, 2, 1], np.zeros((3, 3, 3))),
                     "identity index 3 out of range for n=3"),
    "inv-repeated": (lambda: FiniteHypergroup(3, 0, [0, 0, 1], np.zeros((3, 3, 3))),
                     "involution is not a permutation"),
    "inv-huge": (lambda: FiniteHypergroup(2, 0, [0, 10 ** 20], np.zeros((2, 2, 2))),
                 "involution is not a permutation"),
    # judged before the indices are cast to int64, which would overflow
    "entry-index-huge": (
        lambda: FiniteHypergroup.from_entries(2, 0, [0, 1], [0], [10 ** 20], [0], [1.0]),
        r"entry indices must lie in 0\.\.1"),
    "entry-index-huge-negative": (
        lambda: FiniteHypergroup.from_entries(2, 0, [0, 1], [0, 1], [0, 0], [0, -10 ** 20],
                                              [1.0, 1.0]),
        r"entry indices must lie in 0\.\.1"),
    "cyclic-0": (lambda: cyclic_hypergroup(0), "n must be at least 1"),
    # refused before its n^2 entries are allocated
    "cyclic-max-n": (lambda: cyclic_hypergroup(2 ** 20),
                     r"n=1048576 is not below 1048576: the n\^3 tensor is not addressable"),
    "theta-above-1": (lambda: theta_hypergroup(1.5), r"theta must lie in \[0, 1\]"),
    "theta-nan": (lambda: theta_hypergroup(np.nan), r"theta must lie in \[0, 1\]"),
}


@pytest.mark.parametrize("name", CASES)
def test_refused_with_its_one_text(name):
    call, text = CASES[name]
    with pytest.raises(ValueError, match=f"^{text}$"):
        call()
