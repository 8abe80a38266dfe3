"""Two-point spline approximants and certified directional bounds for
sin(x), sin(x)/x, cos(x) and the sine integral Si(x) on [0, pi/2]."""

from .numerics import (
    PiRational,
    Poly,
    Var,
    horner_eval,
    horner_values,
    integrate_over_lambda,
)
from .spline import (
    EndpointData,
    SplineApproximant,
    cosine_spline,
    sine_spline,
    two_point_spline,
)
from .series import (
    ErrorSeries,
    SineSeries,
    eval_error_series,
    exponent_rule,
    order1_coefficients,
    order2_coefficients,
    sine_series_eval,
)
from .bounds import (
    BoundFn,
    SufficiencyCertificate,
    baseline_catalog,
    lv_si_lower,
    reflect_to_cos,
    si_lower,
    si_reference,
    sine_lower,
    sine_upper,
    sufficiency_check,
    taylor_sine,
    zhu_bound,
)
from .analysis import (
    Grid,
    RelErrReport,
    certify_direction,
    figure_data,
    half_pi_grid,
    re_bound_scan,
    reference_for,
    relative_error,
    relative_errors,
    reproduce_table,
    scale_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
