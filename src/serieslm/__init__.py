"""Heteroskedasticity-robust series LM specification tests.

A semiparametric conditional mean model is tested against a nonparametric
alternative by expanding both in series terms, fitting the null by least
squares, and forming a robust quadratic form in the scores of the
alternative-only terms.  The package provides the basis and design builders,
the statistic variants, wild-bootstrap critical values, data-driven size
selection, and a reproducible Monte Carlo harness.
"""

from .basis import (
    BasisSpec,
    quantile_knots,
    restricted_interaction_order,
    spline_basis,
    tensor_interactions,
)
from .bootstrap import BootstrapResult, draw_multipliers, wild_bootstrap
from .design import (
    AlternativeSpec,
    DesignPair,
    ModelSpec,
    build_partially_linear,
    screen_collinear,
    simulation_design,
)
from .distributions import chisq_cdf, chisq_quantile, normal_cdf, normal_quantile
from .errors import (
    DesignError,
    ExactFitError,
    InputError,
    RankDeficiencyError,
    SeriesLMError,
    SingularMomentMatrixError,
)
from .lmtest import (
    SampleFit,
    TestResult,
    lm_statistic,
    run_test,
    standardize,
    variant_statistic,
)
from .mc import DgpSpec, McConfig, McReport, emit_report, gen_sample, run_mc
from .regress import FitResult, annihilate, ols_fit, residualize_block
from .tuning import TuningGrid, data_driven_test, select_r

__version__ = "0.1.0"

__all__ = [
    "AlternativeSpec",
    "BasisSpec",
    "BootstrapResult",
    "DesignError",
    "DesignPair",
    "DgpSpec",
    "ExactFitError",
    "FitResult",
    "InputError",
    "McConfig",
    "McReport",
    "ModelSpec",
    "RankDeficiencyError",
    "SampleFit",
    "SeriesLMError",
    "SingularMomentMatrixError",
    "TestResult",
    "TuningGrid",
    "annihilate",
    "build_partially_linear",
    "chisq_cdf",
    "chisq_quantile",
    "data_driven_test",
    "draw_multipliers",
    "emit_report",
    "gen_sample",
    "lm_statistic",
    "normal_cdf",
    "normal_quantile",
    "ols_fit",
    "quantile_knots",
    "residualize_block",
    "restricted_interaction_order",
    "run_mc",
    "run_test",
    "screen_collinear",
    "select_r",
    "simulation_design",
    "spline_basis",
    "standardize",
    "tensor_interactions",
    "variant_statistic",
    "wild_bootstrap",
]
