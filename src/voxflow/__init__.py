"""Volumetric radar-echo motion estimation and extrapolation nowcasting."""

from .advect import advect_once, extrapolate
from .analysis import (
    cell_split_diagnostic,
    coverage_vs_corr_histogram,
    monthwise_boxstats,
    motion_corr_matrix,
    rainy_ratio,
    rank_outliers,
    reflectivity_corr_matrix,
)
from .denoise import denoise_volume, morphological_clean, polarimetric_filter
from .errors import DivergedError, FormatError, NoOverlapError
from .flow import (
    LossConfig,
    divergence,
    gradient_check,
    loss_divergence,
    loss_multiscale,
    loss_total,
)
from .grid import (
    MotionField,
    RadarVolume,
    RainField,
    avg_pool2d,
    cmax,
)
from .synth import GaussianCell, SyntheticScenario, generate, preset
from .transform import dbz_to_rain, rain_to_dbr
from .variational import (
    VariationalResult,
    estimate_variational,
    mean_endpoint_error,
)
from .verify import (
    ContingencyTable,
    VerificationReport,
    contingency,
    continuous_metrics,
    precision_recall_ets,
    verify_nowcast,
)

__version__ = "0.1.0"
