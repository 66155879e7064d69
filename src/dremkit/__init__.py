"""Online parameter estimation for scalar-output linear regressions.

Gradient estimators, regressor-extension operator banks with adjugate
mixing, finite-time recovery variants, excitation analysis, and a scenario
harness with a CSV-emitting command line front end.
"""

__version__ = "0.1.0"

from .signals import (
    TimeGrid,
    Trajectory,
    SchedulePiece,
    ThetaSchedule,
    sample_schedule,
)
from .operators import (
    KreSpec,
    LtvChannelSpec,
    OperatorBank,
    SlidingWindowSpec,
    extend,
    kre_as_drem_bank,
    kre_ct,
    sliding_window_phi,
)
from .mixing import (
    MixedRegression,
    adjugate,
    determinant,
    extend_with_feedforward,
    feedforward_gain,
    mix,
)
from .estimators import (
    EstimatorRun,
    GradientConfig,
    closed_form_error_ct,
    closed_form_error_dt,
    ct_gradient,
    drem_ct,
    drem_dt,
    dt_gradient,
)
from .ftc import (
    ClipContractError,
    FtcConfig,
    FtcRun,
    clip_w,
    ftc_estimate,
    interval_excitation_time,
    run_ftc,
    run_ftc_alert,
    update_w,
)
from .excitation import (
    CounterexampleReport,
    PeReport,
    counterexample_suite,
    cumulative_energy,
    pe_check_ct,
    pe_check_dt,
)
from .scenarios import (
    Constant,
    PlantSpec,
    RegressorSpec,
    ScenarioResult,
    Sinusoid,
    build_regressor,
    convergence_time,
    identification_bank,
    run_ftc_scenario,
    run_identification_scenario,
    simulate_plant,
    tracking_schedule,
)
