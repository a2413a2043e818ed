"""Builtin benchmark blackboxes and the registry the harness resolves.

Each builtin maps an input vector to an output vector and declares its
arities.  Shipped problem files under problems/ declare bounds, constraints
and objectives for these functions.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PROBLEM_DIR = Path(__file__).parent / "problems"


class UnknownBuiltinError(ValueError):
    pass


@dataclass(frozen=True)
class Builtin:
    id: str
    fn: Callable
    in_arity: int
    out_arity: int


def polak3_forward(x) -> np.ndarray:
    """Ten constraint responses of the polak3 minimax problem.

    Inputs are x_1..x_11 followed by the level u; output i (i = 0..9) is
    sum_{j=1..11} (1/j) * exp((x_j - sin(i + 2 j))^2) - u.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (12,):
        raise ValueError(f"polak3 expects 12 inputs, got {x.shape}")
    u = x[11]
    i = np.arange(10)[:, None]
    j = np.arange(1, 12)[None, :]
    terms = (1.0 / j) * np.exp((x[j - 1] - np.sin(i + 2 * j)) ** 2)
    return terms.sum(axis=1) - u


def rosenbrock_forward(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"rosenbrock expects 2 inputs, got {x.shape}")
    a, b = x
    return np.array([(1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2])


BAND_COEFFS = (0.27, 0.05, -0.06, 0.14, 5.6, 0.9)


def band_curve(theta) -> np.ndarray:
    """Published response curve: polynomial plus sine over theta in [20, 40]."""
    a0, a1, a2, b1, c1, d1 = BAND_COEFFS
    t = (np.asarray(theta, dtype=float) - 30.0) / 10.0
    return a0 + a1 * t + a2 * t * t + b1 * np.sin(c1 * t + d1)


def band_forward(x, timeout_lo=None, timeout_hi=None, stall_seconds=10000.0):
    """Scaled band response; stalls inside the configured timeout window.

    Inputs: chord, vx, vy, theta.  The response is
    chord * (vx^2 + vy^2) * band_curve(theta).  When theta falls inside
    [timeout_lo, timeout_hi] the call sleeps long enough to trip any sane
    harness timeout, simulating a non-terminating solver run.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"band expects 4 inputs, got {x.shape}")
    chord, vx, vy, theta = x
    if timeout_lo is not None and timeout_hi is not None:
        if timeout_lo <= theta <= timeout_hi:
            time.sleep(stall_seconds)
    return np.array([chord * (vx * vx + vy * vy) * float(band_curve(theta))])


def _rect_separation(dx, dy, half_w, half_h):
    """Signed separation of two axis-aligned boxes from center deltas.

    Negative when overlapping (depth of least penetration axis), otherwise
    the euclidean gap.
    """
    gap_x = np.abs(dx) - half_w
    gap_y = np.abs(dy) - half_h
    overlap = np.maximum(gap_x, gap_y)
    outside = np.hypot(np.maximum(gap_x, 0.0), np.maximum(gap_y, 0.0))
    return np.where((gap_x < 0) & (gap_y < 0), overlap, outside)


def parking_forward(
    x,
    *,
    car_length=8.0,
    car_width=3.0,
    sigmoid_height=13.0,
    sigmoid_mid=50.0,
    lane_y=5.0,
    divider_y=14.5,
    parked_lo=0.0,
    parked_hi=20.0,
    start_x=100.0,
    dt=0.05,
    horizon=60.0,
    start_tol=0.5,
    park_tol=0.5,
    straight_tol=0.1,
    arc_grid=1600,
):
    """Parallel-parking simulation: outputs (safe, min_clearance, t_stop).

    The blue car starts at (start_x, sigmoid_height) and follows the damped
    sigmoid y = H / (1 + exp(-damp * (x - mid))) leftwards at arc speed s1
    until x reaches `stop`; the green car approaches along the lane at s2.
    safe = 1 requires the curve to pass through the start point (within
    start_tol), parking to complete within the horizon, the curve to have
    descended to the curb at the stop (y(stop) <= park_tol, so stopping
    short on the upper lane is not "parked"), the curve to be straightened
    there (|y'| < straight_tol), and no overlap with the green car, the
    parked car, or the lane divider at any step.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"parking expects 4 inputs, got {x.shape}")
    s1, s2, damp, stop = x
    stop = float(np.clip(stop, 0.0, start_x))

    def curve(xv):
        return sigmoid_height / (1.0 + np.exp(-damp * (np.asarray(xv, dtype=float) - sigmoid_mid)))

    def slope(xv):
        y = curve(xv)
        return damp * y * (sigmoid_height - y) / sigmoid_height

    started = abs(float(curve(start_x)) - sigmoid_height) <= start_tol
    at_curb = float(curve(stop)) <= park_tol
    straightened = abs(float(slope(stop))) < straight_tol

    times = np.arange(0.0, horizon + dt / 2.0, dt)
    if started and stop < start_x:
        grid = np.linspace(stop, start_x, int(arc_grid))
        ys = curve(grid)
        seg = np.hypot(np.diff(grid), np.diff(ys))
        # arc length measured from the start going left
        arc = np.concatenate(([0.0], np.cumsum(seg[::-1])))
        total_arc = float(arc[-1])
        travelled = np.minimum(s1 * times, total_arc)
        x_blue = np.interp(travelled, arc, grid[::-1])
        y_blue = curve(x_blue)
        t_stop = total_arc / s1 if s1 > 0 else horizon
        parked_in_time = s1 > 0 and total_arc <= s1 * horizon
    else:
        # geometry-infeasible start (car cannot mount the curve) or stop at
        # the start itself: the blue car holds its start pose
        x_blue = np.full_like(times, start_x)
        y_blue = np.full_like(times, sigmoid_height)
        t_stop = 0.0 if (started and stop >= start_x) else horizon
        parked_in_time = started and stop >= start_x

    x_green = start_x - s2 * times
    half_l = car_length / 2.0
    half_w = car_width / 2.0

    clear_green = _rect_separation(
        x_blue - x_green, y_blue - lane_y, car_length, car_width
    )
    parked_cx = (parked_lo + parked_hi) / 2.0
    parked_half = (parked_hi - parked_lo) / 2.0
    clear_parked = _rect_separation(
        x_blue - parked_cx, y_blue - lane_y, half_l + parked_half, car_width
    )
    clear_divider = divider_y - (y_blue + half_w)
    min_clearance = float(
        np.min([clear_green.min(), clear_parked.min(), clear_divider.min()])
    )
    collided = min_clearance < 0.0
    safe = started and parked_in_time and at_curb and straightened and not collided
    t_stop = float(min(t_stop, horizon))
    return np.array([1.0 if safe else 0.0, min_clearance, t_stop])


def sleeper_forward(x):
    """Sleeps x[0] seconds, then echoes it; exists to exercise timeouts."""
    x = np.asarray(x, dtype=float)
    time.sleep(float(x[0]))
    return np.array([float(x[0])])


REGISTRY: dict[str, Builtin] = {
    b.id: b
    for b in (
        Builtin("polak3", polak3_forward, 12, 10),
        Builtin("rosenbrock", rosenbrock_forward, 2, 1),
        Builtin("band", band_forward, 4, 1),
        Builtin("parking", parking_forward, 4, 3),
        Builtin("sleeper", sleeper_forward, 1, 1),
    )
}


def get_builtin(builtin_id: str) -> Builtin:
    try:
        return REGISTRY[builtin_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownBuiltinError(
            f"unknown builtin '{builtin_id}' (known: {known})"
        ) from None


def builtin_problem_names() -> list[str]:
    return sorted(p.stem for p in PROBLEM_DIR.glob("*.json"))


def builtin_problem_path(name: str) -> Path:
    path = PROBLEM_DIR / f"{name}.json"
    if not path.exists():
        known = ", ".join(builtin_problem_names())
        raise UnknownBuiltinError(f"no shipped problem '{name}' (known: {known})")
    return path
