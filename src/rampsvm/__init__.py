"""Ramp-loss SVM toolkit.

Exact set-valued proximal operator of the ramp loss, P-stationarity and KKT
certification of candidate classifiers, a prox-based alternating trainer
whose outputs are always independently certified, support-vector margin
geometry checks, and a JSON-reporting CLI.
"""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    KKTCheck,
    PrimalDualPoint,
    Verdict,
    certify_point,
    check_kkt,
    check_pstationary,
    default_gamma_grid,
    grade_point,
    recover_multiplier,
)
from .datasets import (
    COUNTEREXAMPLE_C,
    DataFormat,
    DataFormatError,
    counterexample_dataset,
    counterexample_point,
    gen_synthetic,
    parse_dataset,
    single_point_dataset,
    single_point_point,
    symmetric_pair_dataset,
    symmetric_pair_point,
    write_csv,
)
from .losses import (
    objective,
    ramp_loss,
    ramp_loss_sum,
)
from .problem import (
    Dataset,
    ProblemData,
    build_problem,
    lambda_H,
    spd_solver,
)
from .prox import (
    ProxParams,
    ProxSet,
    prox_array,
    prox_distance,
    prox_objective,
    prox_oracle,
    prox_scalar,
    prox_vector,
)
from .solver import (
    SolveResult,
    SolveStatus,
    SolverConfig,
    global_oracle,
    predict,
    train_admm,
)
from .support import (
    RegimeError,
    SupportSet,
    extract_support,
    reconstruct_w,
    verify_support_margins,
)

__all__ = [
    "__version__",
    "Certificate",
    "KKTCheck",
    "PrimalDualPoint",
    "Verdict",
    "certify_point",
    "check_kkt",
    "check_pstationary",
    "default_gamma_grid",
    "grade_point",
    "recover_multiplier",
    "COUNTEREXAMPLE_C",
    "DataFormat",
    "DataFormatError",
    "counterexample_dataset",
    "counterexample_point",
    "gen_synthetic",
    "parse_dataset",
    "single_point_dataset",
    "single_point_point",
    "symmetric_pair_dataset",
    "symmetric_pair_point",
    "write_csv",
    "objective",
    "ramp_loss",
    "ramp_loss_sum",
    "Dataset",
    "ProblemData",
    "build_problem",
    "lambda_H",
    "spd_solver",
    "ProxParams",
    "ProxSet",
    "prox_array",
    "prox_distance",
    "prox_objective",
    "prox_oracle",
    "prox_scalar",
    "prox_vector",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "global_oracle",
    "predict",
    "train_admm",
    "RegimeError",
    "SupportSet",
    "extract_support",
    "reconstruct_w",
    "verify_support_margins",
]
