"""Oscillatory data-volume scheduling for budgeted selected-data training.

The package derives a periodic low/high selection-ratio schedule under a
cumulative forward-pass budget, runs loss-based hard mining inside a
deterministic SGD trainer, and numerically verifies the subsampling-induced
implicit-regularization term against brute-force oracles.
"""

from .config import RunConfig
from .data import (
    Batch,
    Dataset,
    gen_blobs,
    gen_gauss_linear,
    gen_two_moons,
    inject_label_noise,
    load_idx,
    load_osds,
    save_osds,
)
from .ledger import BudgetLedger
from .models import (
    Arch,
    ModelState,
    hessian_vector_product,
    init_state,
    loss_per_sample,
    mean_gradient,
    mean_loss,
    per_sample_gradients,
)
from .regprobe import (
    estimate_r,
    gradient_covariance_trace_hc,
    verify_one_step_expansion,
)
from .rng import PortableRNG, subseed
from .schedule import (
    RatioTrajectory,
    ScheduleParams,
    constant_params,
    derive_params,
)
from .selection import (
    LossMemory,
    select_hard_mining,
    select_random,
    subset_size,
    update_losses,
)
from .trainer import (
    EpochMetrics,
    TrainResult,
    evaluate,
    run_training,
)

__version__ = "0.1.0"
