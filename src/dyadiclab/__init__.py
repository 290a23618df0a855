"""dyadiclab: Hankel operators, paraproducts, wavelets and BMO norms on dyadic grids."""

__version__ = "0.1.0"

from .dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    RectangleCollection,
    ResolutionError,
    Signal,
    constant,
    enumerate_intervals,
    enumerate_rectangles,
    haar_function,
    haar_tensor,
    random_signal,
    shifted_haar_g,
    zeros,
)
from .transforms import (
    HaarCoefficients,
    MeyerFamily,
    all_analytic_projection,
    analytic_projection,
    build_meyer_family,
    fourier_mode,
    haar_analysis,
    haar_synthesis,
    hilbert_transform,
    square_function,
    strong_maximal,
)
from .norms import (
    BmoReport,
    OperatorMatrix,
    bmo_dyadic,
    bmo_minus1,
    bmo_product,
    bmo_rect,
    lp_norm,
    operator_norm,
)
from .hankel import (
    HankelOp,
    SymbolCoefficients,
    block_identity_check,
    check_intertwining,
    commutator_matrix,
    hankel_matrix,
    hankel_operator_1d,
    little_hankel,
    nehari_ratio,
    random_symbol,
)
from .aak import (
    BlockProblem,
    extend_hankel_step,
    parrott_min,
    recover_bounded_symbol,
)
from .paraproducts import (
    ParaproductPieces,
    apply_petermichl_average,
    decompose_commutator_Gleft,
    dyadic_shift_G,
    meyer_para_1d,
    meyer_para_multi,
    para_haar,
    petermichl_average,
    petermichl_fit_on_signal,
)
from .journe import (
    carleson_family,
    embeddedness,
    enlarged_set,
    journe_damped_check,
    journe_inequality_checker_d1,
    lower_bound_experiment,
)
from .experiments import list_experiments, run as run_experiment
