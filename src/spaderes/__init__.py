"""Resolution limits of two-point-source separation estimation with binary
spatial-mode demultiplexing under noisy detection.

The package computes the transmission of the displaced sources into the
derivative mode, the Fisher information of photon counting (Poisson or
thermal, with dark counts), homodyne/heterodyne readout, and direct imaging,
plus half-resolution distances and Monte Carlo Cramér-Rao benchmarks.
"""

from .counting import (
    BOSE_EINSTEIN,
    CountDistribution,
    NO_NOISE,
    NoiseModel,
    POISSON,
    SourceScene,
    THERMAL,
    count_distribution,
    family_of,
    fi_counting_exact,
    fi_counting_oracle,
    fi_counting_small_d,
    fi_from_pmf,
    logpmf,
    mean_count,
    pmf,
    truncation_limit,
)
from .direct_imaging import (
    ImagePlaneDensity,
    fi_direct,
    fi_direct_small_d,
    image_density,
    qfi,
    qfi_numeric,
)
from .errors import (
    BracketingError,
    BudgetError,
    DomainError,
    NumericError,
    SpaderesError,
    TruncationWarning,
    UnsupportedKindError,
    ValidationError,
)
from .montecarlo import (
    Experiment,
    MEASUREMENTS,
    TrialReport,
    ml_estimate_counting,
    ml_estimate_quadrature,
    run_crb_experiment,
    simulate_counts,
)
from .overlap import (
    Transmission,
    tau1_closed,
    tau1_exact,
    tau1_numeric,
    tau1_sinc_expansion,
    tau1_small_d,
)
from .psf import (
    GAUSSIAN,
    KINDS,
    SINC,
    TABULATED,
    TransferFunction,
    eval_u,
    eval_u_prime,
    gaussian_psf,
    load_tabulated,
    quad_over_psf,
    sigma_of,
    sinc_psf,
    tabulated_psf,
)
from .quadrature import (
    HETERODYNE,
    HOMODYNE,
    fi_gaussian_1d,
    fi_gaussian_2d,
    fi_heterodyne,
    fi_heterodyne_small_d,
    fi_homodyne,
    fi_homodyne_small_d,
    sample_quadrature,
    shot_noise_snr,
)
from .resolution import (
    COUNTING,
    SuperresWindow,
    d_half_counting,
    d_half_from_curve,
    d_half_numeric,
    d_half_quadrature,
    superres_window,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
