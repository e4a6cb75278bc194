"""Exact engine for the correspondence between grand partition functions
and characteristic classes: genera, Chern characters of Fock-type bundles,
index pairings on a manifold catalog, grand canonical ensembles, and
zeta-regularized spectral determinants."""

from .series import NonUnitError, TruncatedSeries, bernoulli_numbers
from .symmetric import (
    ChernPolynomial,
    NotSymmetricError,
    expand_in_roots,
    multiplicative_sequence,
    to_chern_basis,
    to_pontryagin_basis,
)
from .genera import (
    GENUS_KINDS,
    GenusSpec,
    euler_class_roots,
    generating_series,
    genus_class_polynomial,
    genus_polynomial,
    genus_series,
)
from .bundles import (
    DivergenceError,
    RootModel,
    chern_character,
    ext_fock_character,
    lambda_minus1_dual,
    spinor_character,
    sym_fock_character,
)
from .manifolds import (
    CatalogError,
    CohomologyModel,
    TangentData,
    catalog,
    euler_characteristic,
    evaluate_chern_polynomial,
    genus_class,
    genus_number,
    multiplicative_class,
    multiplicative_integral,
)
from .pairings import (
    FactorExpression,
    IndexReport,
    PAIRING_KINDS,
    PoleError,
    VerifyReport,
    density_series,
    hrr_index,
    pairing_density,
    pairing_index,
    verify_identity,
)
from .statmech import (
    ConvergenceError,
    EnsembleReport,
    LevelSystem,
    correspondence_check,
    grand_ensemble,
    level_partition,
    occupation,
    occupation_by_derivative,
)
from .spectral import (
    SpectrumSpec,
    build_spectral_report,
    formal_chern_character,
    formal_euler_class,
    formal_pairing,
    xi_formal,
    zeta_det,
    zeta_det_euler_maclaurin,
)

__version__ = "0.1.0"
