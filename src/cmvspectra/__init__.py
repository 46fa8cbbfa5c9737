"""Spectral computations for CMV operators with limit-periodic coefficients.

Modules: coefficient sequences (coeffs), the dyadic odometer hull (odometer),
extended CMV matrices (cmv), transfer matrices and the perturbation modulus
(transfer), Floquet band structure (floquet), spectral measures and densities
(specmeasure), the almost-repetition criterion (gordon), budgeted construction
iterations (construct), the acceptance suite (acceptance), and the CLI (cli).
"""

from .cmv import assemble_window, cmv_entry, diff_norm_bound_seq
from .coeffs import PeriodicSeq, constant_seq, make_periodic, rho, validate_alpha
from .construct import (
    DensityConstraintError,
    GapOpeningError,
    InfeasibleStageError,
    StageReport,
    ac_iterate,
    cantor_iterate,
)
from .floquet import (
    AllGapsClosedError,
    Band,
    BandStructure,
    Gap,
    band_structure,
    discriminant,
    eigenangles,
    floquet_matrix,
    min_gap,
    spectrum_displacement,
)
from .gordon import (
    CoefficientWindow,
    GordonCertificate,
    GordonCheck,
    InfeasibleBudgetError,
    check_gordon,
    construct_gordon_approximant,
    growth_ratio,
)
from .odometer import (
    SamplingFn,
    lift,
    make_sampling,
    sup_distance,
    to_periodic,
)
from .specmeasure import (
    EdgeProximityError,
    SpectralDensity,
    density,
    density_distance,
    equilibrium_density,
    lt_integral,
)
from .transfer import build_A, build_A_unimodular, estimate_lipschitz, four_block, gamma

__version__ = "0.1.0"

__all__ = [
    "AllGapsClosedError",
    "Band",
    "BandStructure",
    "CoefficientWindow",
    "DensityConstraintError",
    "EdgeProximityError",
    "Gap",
    "GapOpeningError",
    "GordonCertificate",
    "GordonCheck",
    "InfeasibleBudgetError",
    "InfeasibleStageError",
    "PeriodicSeq",
    "SamplingFn",
    "SpectralDensity",
    "StageReport",
    "ac_iterate",
    "band_structure",
    "build_A",
    "build_A_unimodular",
    "cantor_iterate",
    "check_gordon",
    "cmv_entry",
    "assemble_window",
    "constant_seq",
    "construct_gordon_approximant",
    "density",
    "density_distance",
    "diff_norm_bound_seq",
    "discriminant",
    "eigenangles",
    "equilibrium_density",
    "estimate_lipschitz",
    "floquet_matrix",
    "four_block",
    "gamma",
    "growth_ratio",
    "lift",
    "lt_integral",
    "make_periodic",
    "make_sampling",
    "min_gap",
    "rho",
    "spectrum_displacement",
    "sup_distance",
    "to_periodic",
    "validate_alpha",
]
