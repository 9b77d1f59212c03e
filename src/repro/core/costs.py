"""Cost primitives of the idling-reduction ski-rental problem.

These are Eqs. (2)-(4) of the paper.  All costs are expressed in seconds of
idling (the idling cost per second is the unit cost, the restart cost is the
break-even interval ``B``).

Two APIs are provided for each quantity:

* scalar functions (``offline_cost``, ``online_cost``, ``competitive_ratio``)
  that operate on Python floats and validate their inputs, and
* vectorised variants (suffix ``_vec``) that accept numpy arrays of stop
  lengths and are used by the Monte-Carlo and fleet-evaluation layers;
  they import numpy when called, so the scalar validators load none.

Conventions
-----------
* ``y`` is the (true, adversarial/random) stop length in seconds.
* ``x`` is the idling threshold chosen by the online algorithm: the engine
  idles until ``x`` and is then shut off, paying the restart cost ``B`` when
  the stop outlasts the threshold.
* Ties follow Eq. (3): for ``y >= x`` the online algorithm pays ``x + B``;
  only strictly shorter stops (``y < x``) escape the restart cost.
"""

from __future__ import annotations

import math

from ..errors import InvalidParameterError

__all__ = [
    "validate_break_even",
    "validate_stop_length",
    "offline_cost",
    "online_cost",
    "competitive_ratio",
    "offline_cost_vec",
    "online_cost_vec",
    "competitive_ratio_vec",
]


def validate_break_even(break_even: float) -> float:
    """Validate and return the break-even interval ``B``.

    Raises
    ------
    InvalidParameterError
        If ``break_even`` is not a strictly positive finite number.
    """
    b = float(break_even)
    if not math.isfinite(b) or b <= 0.0:
        raise InvalidParameterError(
            f"break-even interval must be a positive finite number, got {break_even!r}"
        )
    return b


def validate_stop_length(stop_length: float) -> float:
    """Validate and return a stop length ``y >= 0``.

    Raises
    ------
    InvalidParameterError
        If ``stop_length`` is negative, NaN or infinite.
    """
    y = float(stop_length)
    if not math.isfinite(y) or y < 0.0:
        raise InvalidParameterError(
            f"stop length must be a non-negative finite number, got {stop_length!r}"
        )
    return y


def offline_cost(stop_length: float, break_even: float) -> float:
    """Cost of the clairvoyant offline algorithm for a stop (Eq. 2).

    The offline optimum idles through short stops (``y < B``, cost ``y``)
    and shuts off immediately for long stops (``y >= B``, cost ``B``).
    """
    y = validate_stop_length(stop_length)
    b = validate_break_even(break_even)
    return min(y, b)


def online_cost(threshold: float, stop_length: float, break_even: float) -> float:
    """Cost of an online algorithm idling until ``threshold`` (Eq. 3).

    Parameters
    ----------
    threshold:
        Idling time ``x`` selected by the online algorithm.
    stop_length:
        Actual stop length ``y``.
    break_even:
        Break-even interval ``B``.
    """
    x = validate_stop_length(threshold)
    y = validate_stop_length(stop_length)
    b = validate_break_even(break_even)
    if y < x:
        return y
    return x + b


def competitive_ratio(threshold: float, stop_length: float, break_even: float) -> float:
    """Per-stop competitive ratio ``cr(x, y)`` (Eq. 4).

    Undefined for zero-length stops (both costs vanish); we follow the
    convention that a zero-length stop has ratio 1 when the threshold is
    positive (neither algorithm pays anything) and ``+inf`` when the online
    algorithm shuts off at ``x = 0`` and pays the restart cost for nothing.
    """
    x = validate_stop_length(threshold)
    y = validate_stop_length(stop_length)
    b = validate_break_even(break_even)
    off = min(y, b)
    on = y if y < x else x + b
    if off == 0.0:
        return 1.0 if on == 0.0 else float("inf")
    return on / off


def offline_cost_vec(stop_lengths: np.ndarray, break_even: float) -> np.ndarray:
    """Vectorised :func:`offline_cost` over an array of stop lengths."""
    import numpy as np

    b = validate_break_even(break_even)
    y = np.asarray(stop_lengths, dtype=float)
    if y.size and (np.any(~np.isfinite(y)) or np.any(y < 0.0)):
        raise InvalidParameterError("stop lengths must be non-negative and finite")
    return np.minimum(y, b)


def online_cost_vec(
    thresholds: np.ndarray | float,
    stop_lengths: np.ndarray,
    break_even: float,
) -> np.ndarray:
    """Vectorised :func:`online_cost`.

    ``thresholds`` may be a scalar (deterministic strategy applied to every
    stop) or an array broadcastable against ``stop_lengths`` (randomized
    strategy with one draw per stop).
    """
    import numpy as np

    b = validate_break_even(break_even)
    y = np.asarray(stop_lengths, dtype=float)
    x = np.asarray(thresholds, dtype=float)
    if y.size and (np.any(~np.isfinite(y)) or np.any(y < 0.0)):
        raise InvalidParameterError("stop lengths must be non-negative and finite")
    if x.size and (np.any(~np.isfinite(x)) or np.any(x < 0.0)):
        raise InvalidParameterError("thresholds must be non-negative and finite")
    x, y = np.broadcast_arrays(x, y)
    return np.where(y < x, y, x + b)


def competitive_ratio_vec(
    thresholds: np.ndarray | float,
    stop_lengths: np.ndarray,
    break_even: float,
) -> np.ndarray:
    """Vectorised :func:`competitive_ratio`.

    Zero-length stops follow the scalar convention (ratio 1 when the online
    cost is also zero, ``+inf`` otherwise).
    """
    import numpy as np

    on = online_cost_vec(thresholds, stop_lengths, break_even)
    off = offline_cost_vec(stop_lengths, break_even)
    ratio = np.empty_like(on)
    zero = off == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[~zero] = on[~zero] / off[~zero]
    ratio[zero] = np.where(on[zero] == 0.0, 1.0, np.inf)
    return ratio
