"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The Monte Carlo cost transform and the expected-cost curves over variation
grids dominate runtime in the oracle. Both backends implement identical
element-wise math; set ``FLEXCON_NO_NUMBA=1`` to force the numpy path (it is
also used automatically when numba is absent).
``benchmarks/bench_kernels.py`` times one against the other.

The coefficient tables write each piece of the two expected-cost curves as
A*d + B/d + C; the exact incentive check in ``design`` works on them.
"""

from __future__ import annotations

import os

import numpy as np

# ----------------------------------------------------------------------------
# pure-numpy backend
# ----------------------------------------------------------------------------


def _respond(x, p_bar, k, lo, hi):
    xp = np.maximum(x, lo)
    if k < p_bar:
        xp = np.minimum(xp, hi)
    return xp


def customer_cost_numpy(x, p, delta, p_bar, center, k):
    """Total per-draw customer cost: billed amount plus elasticity penalty."""
    lo = center * (1.0 - delta)
    hi = center * (1.0 + delta)
    xp = _respond(x, p_bar, k, lo, hi)
    billed = np.where(xp > hi, xp * p_bar + hi * (p - p_bar), xp * p)
    return billed + k * np.maximum(x - xp, 0.0)


def payment_energy_numpy(x, p, delta, p_bar, center, k):
    """Per-draw payment to the supplier and adjusted energy drawn."""
    lo = center * (1.0 - delta)
    hi = center * (1.0 + delta)
    xp = _respond(x, p_bar, k, lo, hi)
    billed = np.where(xp > hi, xp * p_bar + hi * (p - p_bar), xp * p)
    return billed, xp


def own_cost_curve_numpy(deltas, m, p, delta, p_bar, k):
    """Expected cost of a type-m customer on its own option, per variation value."""
    q = k if p_bar > k else p_bar
    d = np.asarray(deltas, dtype=np.float64)
    dsafe = np.where(d > 0.0, d, 1.0)
    over = m * p + (m * q / (4.0 * dsafe)) * (d - delta) ** 2
    return np.where(d <= delta, m * p, over)


def cross_cost_curve_numpy(deltas, m, p, delta_j, p_bar, center_j, k):
    """Expected cost of a type-m customer on another type's option, per variation value.

    Piecewise in the relation of the demand range [m(1-D), m(1+D)] to the
    option band; boundary points resolve to the formula approached from
    inside the band (all branches are continuous where they meet).
    """
    q = k if p_bar > k else p_bar
    d = np.asarray(deltas, dtype=np.float64)
    lo_u = m * (1.0 - d)
    hi_u = m * (1.0 + d)
    lo_b = center_j * (1.0 - delta_j)
    hi_b = center_j * (1.0 + delta_j)
    dsafe = np.where(d > 0.0, d, 1.0)
    mj = center_j

    inside = m * p + 0.0 * d
    below = lo_b * p + 0.0 * d
    above = (p - q) * hi_b + q * m + 0.0 * d
    covers = (
        q * m * m * d
        + ((-4.0 * delta_j * p + q * (1.0 + delta_j) ** 2) * mj * mj
           - 2.0 * (q * (1.0 + delta_j) - 2.0 * delta_j * p) * m * mj
           + q * m * m) / dsafe
        + 2.0 * q * m * m
        + 2.0 * (-q * (1.0 + delta_j) + 2.0 * p) * m * mj
    ) / (4.0 * m)
    lower_straddle = (p / (4.0 * m)) * (
        m * m * d + (m - lo_b) ** 2 / dsafe + 2.0 * m * m + 2.0 * m * lo_b
    )
    upper_straddle = (
        (q - p) * m * m * d
        + (q - p) * (hi_b - m) ** 2 / dsafe
        + 2.0 * q * m * m
        + 2.0 * p * m * m
        + 2.0 * (p - q) * m * hi_b
    ) / (4.0 * m)

    return np.select(
        _cross_cases(lo_u, hi_u, lo_b, hi_b),
        [inside, below, above, covers, lower_straddle],
        default=upper_straddle,
    )


def _cross_cases(lo_u, hi_u, lo_b, hi_b):
    """Conditions of the first five cross-cost cases, in priority order (inside,
    below, above, covers, lower straddle); the upper straddle is the rest."""
    return [
        (lo_u >= lo_b) & (hi_u <= hi_b),
        hi_u < lo_b,
        lo_u > hi_b,
        (lo_u <= lo_b) & (hi_u >= hi_b),
        hi_u <= hi_b,
    ]


# ----------------------------------------------------------------------------
# coefficient table: every curve piece as A*d + B/d + C
# ----------------------------------------------------------------------------


def own_cost_table(m, p, delta, p_bar, k):
    """Coefficients (A, B, C) of own_cost_curve == A*d + B/d + C, shape (..., 2, 3).

    Row 0 holds for d <= delta (flat), row 1 beyond the band width; the
    arguments broadcast against each other.
    """
    out = np.zeros(np.broadcast_shapes(*map(np.shape, (m, p, delta, p_bar, k))) + (2, 3))
    a = m * np.where(p_bar > k, k, p_bar) / 4.0
    out[..., 0, 2] = m * p
    out[..., 1, 0] = a
    out[..., 1, 1] = a * delta * delta
    out[..., 1, 2] = m * p - 2.0 * a * delta
    return out


def own_cost_piece(deltas, delta):
    """Row of own_cost_table that holds at each variation value."""
    return (np.asarray(deltas) > delta).astype(np.intp)


def cross_cost_table(m, p, delta_j, p_bar, center_j, k):
    """Coefficients (A, B, C) of cross_cost_curve == A*d + B/d + C, shape (..., 6, 3).

    One row per demand-range/band case, in the order of cross_cost_case; with
    q the effective penalty, [lo_b, hi_b] the band and mj its centre:

    - inside: A = 0, B = 0, C = m p
    - below:  A = 0, B = 0, C = lo_b p
    - above:  A = 0, B = 0, C = (p - q) hi_b + q m
    - covers: A = q m / 4, C = (q m + (2 p - q (1 + dj)) mj) / 2,
      B = ((q (1 + dj)^2 - 4 dj p) mj^2 - 2 (q (1 + dj) - 2 dj p) m mj + q m^2) / (4 m)
    - lower straddle: A = p m / 4, B = p (m - lo_b)^2 / (4 m), C = p (m + lo_b) / 2
    - upper straddle: A = (q - p) m / 4, B = (q - p) (hi_b - m)^2 / (4 m),
      C = (q m + p m + (p - q) hi_b) / 2

    The arguments broadcast against each other.
    """
    dj, mj = delta_j, center_j
    out = np.zeros(np.broadcast_shapes(*map(np.shape, (m, p, dj, p_bar, mj, k))) + (6, 3))
    q = np.where(p_bar > k, k, p_bar)
    lo_b = mj * (1.0 - dj)
    hi_b = mj * (1.0 + dj)
    out[..., 0, 2] = m * p
    out[..., 1, 2] = lo_b * p
    out[..., 2, 2] = (p - q) * hi_b + q * m
    out[..., 3, 0] = q * m / 4.0
    out[..., 3, 1] = (
        (-4.0 * dj * p + q * (1.0 + dj) ** 2) * mj * mj
        - 2.0 * (q * (1.0 + dj) - 2.0 * dj * p) * m * mj
        + q * m * m
    ) / (4.0 * m)
    out[..., 3, 2] = (q * m + (2.0 * p - q * (1.0 + dj)) * mj) / 2.0
    out[..., 4, 0] = p * m / 4.0
    out[..., 4, 1] = p * (m - lo_b) ** 2 / (4.0 * m)
    out[..., 4, 2] = p * (m + lo_b) / 2.0
    out[..., 5, 0] = (q - p) * m / 4.0
    out[..., 5, 1] = (q - p) * (hi_b - m) ** 2 / (4.0 * m)
    out[..., 5, 2] = (q * m + p * m + (p - q) * hi_b) / 2.0
    return out


def cross_cost_case(deltas, m, delta_j, center_j):
    """Row of cross_cost_table that cross_cost_curve uses at each variation value."""
    d = np.asarray(deltas, dtype=np.float64)
    cases = _cross_cases(m * (1.0 - d), m * (1.0 + d), center_j * (1.0 - delta_j),
                         center_j * (1.0 + delta_j))
    # the first case that holds; the upper straddle when none does
    return np.argmax(np.stack([*cases, np.ones_like(cases[0])]), axis=0)


# ----------------------------------------------------------------------------
# numba backend (same math, explicit loops)
# ----------------------------------------------------------------------------

_WANT_NUMBA = os.environ.get("FLEXCON_NO_NUMBA", "") not in ("1", "true", "yes")

if _WANT_NUMBA:
    try:
        import numba
    except ImportError:  # pragma: no cover - environment without numba
        _WANT_NUMBA = False

if _WANT_NUMBA:

    @numba.njit(cache=True)
    def customer_cost_numba(x, p, delta, p_bar, center, k):
        lo = center * (1.0 - delta)
        hi = center * (1.0 + delta)
        out = np.empty(x.shape[0], dtype=np.float64)
        for t in range(x.shape[0]):
            xp = x[t]
            if xp < lo:
                xp = lo
            elif xp > hi and k < p_bar:
                xp = hi
            if xp > hi:
                billed = xp * p_bar + hi * (p - p_bar)
            else:
                billed = xp * p
            shed = x[t] - xp
            if shed < 0.0:
                shed = 0.0
            out[t] = billed + k * shed
        return out

    @numba.njit(cache=True)
    def payment_energy_numba(x, p, delta, p_bar, center, k):
        lo = center * (1.0 - delta)
        hi = center * (1.0 + delta)
        pay = np.empty(x.shape[0], dtype=np.float64)
        energy = np.empty(x.shape[0], dtype=np.float64)
        for t in range(x.shape[0]):
            xp = x[t]
            if xp < lo:
                xp = lo
            elif xp > hi and k < p_bar:
                xp = hi
            if xp > hi:
                pay[t] = xp * p_bar + hi * (p - p_bar)
            else:
                pay[t] = xp * p
            energy[t] = xp
        return pay, energy

    @numba.njit(cache=True)
    def own_cost_curve_numba(deltas, m, p, delta, p_bar, k):
        q = k if p_bar > k else p_bar
        out = np.empty(deltas.shape[0], dtype=np.float64)
        for t in range(deltas.shape[0]):
            d = deltas[t]
            if d <= delta:
                out[t] = m * p
            else:
                out[t] = m * p + (m * q / (4.0 * d)) * (d - delta) ** 2
        return out

    @numba.njit(cache=True)
    def cross_cost_curve_numba(deltas, m, p, delta_j, p_bar, center_j, k):
        q = k if p_bar > k else p_bar
        mj = center_j
        lo_b = mj * (1.0 - delta_j)
        hi_b = mj * (1.0 + delta_j)
        out = np.empty(deltas.shape[0], dtype=np.float64)
        for t in range(deltas.shape[0]):
            d = deltas[t]
            lo_u = m * (1.0 - d)
            hi_u = m * (1.0 + d)
            if lo_u >= lo_b and hi_u <= hi_b:
                out[t] = m * p
            elif hi_u < lo_b:
                out[t] = lo_b * p
            elif lo_u > hi_b:
                out[t] = (p - q) * hi_b + q * m
            elif lo_u <= lo_b and hi_u >= hi_b:
                out[t] = (
                    q * m * m * d
                    + ((-4.0 * delta_j * p + q * (1.0 + delta_j) ** 2) * mj * mj
                       - 2.0 * (q * (1.0 + delta_j) - 2.0 * delta_j * p) * m * mj
                       + q * m * m) / d
                    + 2.0 * q * m * m
                    + 2.0 * (-q * (1.0 + delta_j) + 2.0 * p) * m * mj
                ) / (4.0 * m)
            elif hi_u <= hi_b:
                out[t] = (p / (4.0 * m)) * (
                    m * m * d + (m - lo_b) ** 2 / d + 2.0 * m * m + 2.0 * m * lo_b
                )
            else:
                out[t] = (
                    (q - p) * m * m * d
                    + (q - p) * (hi_b - m) ** 2 / d
                    + 2.0 * q * m * m
                    + 2.0 * p * m * m
                    + 2.0 * (p - q) * m * hi_b
                ) / (4.0 * m)
        return out

    BACKEND = "numba"
    customer_cost = customer_cost_numba
    payment_energy = payment_energy_numba
    own_cost_curve = own_cost_curve_numba
    cross_cost_curve = cross_cost_curve_numba
else:
    BACKEND = "numpy"
    customer_cost = customer_cost_numpy
    payment_energy = payment_energy_numpy
    own_cost_curve = own_cost_curve_numpy
    cross_cost_curve = cross_cost_curve_numpy
