"""Monte-Carlo laboratory for stopped sums of martingale difference
sequences: stopping-time construction, explicit CLT rate bounds, and
verification of the characteristic-function inequalities behind them."""

from .errors import (
    ConfigurationError,
    DegenerateStartError,
    PathOverflowError,
)
from .harness import (
    BoundReport,
    CfProbe,
    EsseenResult,
    InequalityCheck,
    RateFit,
    esseen_numeric,
    estimate_a_n,
    make_t_grid,
    probe_from_batch,
    rate_fit,
    report_from_batch,
    theorem_bound_F,
    theorem_bound_H,
)
from .models import (
    KINDS,
    LAWS,
    ModelSpec,
    ModelState,
    StepOutput,
    derive_seed,
    init_model,
    step_model,
)
from .normal import (
    DistanceResult,
    EmpiricalCdf,
    dkw_halfwidth,
    kolmogorov_distance,
    std_normal_cdf,
)
from .sampling import BLOCK_SIZE, StoppedBatch, sample_stopped_batch
from .stopping import (
    Lemma1Result,
    StoppedSample,
    compute_gamma,
    lemma1_check,
    run_path,
)

__version__ = "0.1.0"
