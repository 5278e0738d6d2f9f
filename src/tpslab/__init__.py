"""tpslab: tensor product structures that disentangle time-evolving states."""

from .core import (
    HilbertDims,
    StateVector,
    TPSpec,
    reshape_coefficients,
    rebase_state,
    is_local_product_unitary,
    tps_equivalent,
)
from .trajectory import (
    Harmonic,
    TrigTrajectory,
    HamiltonianTrajectory,
    SampledTrajectory,
    sample,
)
from .entanglement import (
    SchmidtDecomposition,
    EntanglementProfile,
    schmidt_decompose,
    entanglement_entropy,
    product_distance,
    is_product_state,
    entanglement_profile,
)
from .obstruction import (
    Certificate,
    Verdict,
    certify_no_disentangling,
)
from .construct import (
    ConstructConfig,
    ConstructionResult,
    RootPairing,
    construct_disentangler,
    verify_disentangler,
)
from .hamiltonian import (
    SeparableDecomposition,
    rebase_operator,
    separable_projection,
    interaction_norm,
    stationarity_gradient,
)
from .optimizer import OptimizerConfig, OptimizationResult, optimize_tps

__version__ = "0.1.0"
