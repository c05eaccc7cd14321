"""Matrix coherence estimation from column samples, with the two
sampling-based low-rank approximation methods whose quality it predicts,
plus reproducible generators and an experiment CLI."""

from .coherence import (
    CoherenceReport,
    basis_coherence,
    estimate_coherence,
    max_leverage,
    mu0_coherence,
    mu1_coherence,
    mu_coherence,
    nested_coherence,
    sample_size_bound,
    update_projector,
)
from .kernels import (
    KernelSpec,
    PointDataset,
    build_kernel,
    load_csv,
    load_matrix_market,
    spectrum_energy_rank,
)
from .linalg import (
    DecompositionError,
    ThinSVD,
    as_dense,
    left_svd,
    numerical_rank,
    projector,
    pseudoinverse,
    thin_svd,
)
from .lowrank import (
    ApproximationResult,
    approximation_errors,
    column_projection,
    nystrom,
)
from .sampling import (
    RNG_NAME,
    ColumnSample,
    SplitMix64,
    exclusion_sample,
    nested_samples,
    uniform_sample,
)
from .synthetic import (
    SynthSpec,
    add_noise,
    adversarial_spsd,
    basis_aligned_matrix,
    low_rank_factors,
    low_rank_matrix,
)

__version__ = "0.1.0"
