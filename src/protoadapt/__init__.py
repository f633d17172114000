"""Source-free model adaptation via prototypical Gaussian mixtures and
sliced Wasserstein alignment, with a small reverse-mode autodiff core."""

from .adaptation import (
    AdaptationReport,
    BoundDiagnostics,
    ExperimentConfig,
    ExperimentResult,
    adapt_source_free,
    compute_bound_diagnostics,
    estimate_stage,
    evaluate_miou,
    pixel_embeddings,
    run_experiment,
    train_source,
)
from .autodiff import (
    AdamState,
    Parameter,
    SegModel,
    Tape,
    adam_step,
    backward,
    forward_classify,
    forward_embed,
    init_model,
    load_model,
    save_model,
)
from .datasets import DomainSpec, Shift, gen_blobs, gen_grid_seg, standard_shift_spec
from .errors import (
    ConfigError,
    DimensionError,
    DivergenceError,
    EstimationError,
    FactorizationError,
    FileFormatError,
    GenerationError,
    ProtoAdaptError,
    TapeError,
)
from .fileformats import load_tensor, save_tensor
from .gmm import (
    PrototypicalGMM,
    PseudoDataset,
    SupportSets,
    build_support_sets,
    estimate_gmm,
    generate_pseudo_dataset,
    load_gmm,
    save_gmm,
)
from .linalg import cholesky, sample_gaussian, sample_unit_sphere
from .rng import Rng
from .swd import (
    SlicedConfig,
    exact_wasserstein_sq_small,
    sliced_wasserstein_grad,
    sliced_wasserstein_sq,
    wasserstein1d_sq,
)

__version__ = "0.1.0"
