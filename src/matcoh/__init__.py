"""Matrix coherence estimation from column samples, with the two
sampling-based low-rank approximation methods whose quality it predicts,
plus reproducible generators and an experiment CLI."""

from .coherence import (
    CoherenceReport,
    basis_coherence,
    estimate_coherence,
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
    thin_svd,
)
from .lowrank import (
    ApproximationResult,
    column_projection,
    nystrom,
)
from .sampling import (
    RNG_NAME,
    ColumnSample,
    SplitMix64,
    nested_samples,
    uniform_sample,
)
from .synthetic import (
    SynthSpec,
    add_noise,
    adversarial_spsd,
    basis_aligned_matrix,
    low_rank_matrix,
)

__version__ = "0.1.0"
