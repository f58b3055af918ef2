"""Hot numeric kernels: element-wise numpy math over Monte Carlo draws and
variation grids, and the expected-cost formulas behind them.

The Monte Carlo cost transform and the expected-cost curves over variation
grids dominate runtime in the oracle. Each expected-cost formula is written
once, with only + - * / **: ``cost`` evaluates it on Python floats, the curve
kernels on arrays. In the formulas q is the effective penalty and [lo_b, hi_b]
the band of an option of width dj centred at mj.

The coefficient tables write each piece of the two expected-cost curves as
A*d + B/d + C; the exact incentive check in ``design`` works on them.
"""

from __future__ import annotations

import numpy as np

#: the only backend; kept as a name for tools that report it
BACKEND = "numpy"


def payment_energy(x, p, delta, p_bar, center, k):
    """Per-draw payment to the supplier and adjusted energy drawn."""
    lo = center * (1.0 - delta)
    hi = center * (1.0 + delta)
    xp = np.maximum(x, lo)
    if k < p_bar:
        xp = np.minimum(xp, hi)
    billed = np.where(xp > hi, xp * p_bar + hi * (p - p_bar), xp * p)
    return billed, xp


def customer_cost(x, p, delta, p_bar, center, k):
    """Total per-draw customer cost: billed amount plus elasticity penalty."""
    billed, xp = payment_energy(x, p, delta, p_bar, center, k)
    return billed + k * np.maximum(x - xp, 0.0)


def own_cost_beyond_band(d, m, p, q, delta):
    """Expected cost of a type-m customer on its own option when d > delta."""
    return m * p + (m * q / (4.0 * d)) * (d - delta) ** 2


def _cross_inside(d, m, p, q, dj, mj, lo_b, hi_b):
    return m * p


def _cross_below(d, m, p, q, dj, mj, lo_b, hi_b):
    return lo_b * p


def _cross_above(d, m, p, q, dj, mj, lo_b, hi_b):
    return (p - q) * hi_b + q * m


def _cross_covers(d, m, p, q, dj, mj, lo_b, hi_b):
    return (
        q * m * m * d
        + ((-4.0 * dj * p + q * (1.0 + dj) ** 2) * mj * mj
           - 2.0 * (q * (1.0 + dj) - 2.0 * dj * p) * m * mj
           + q * m * m) / d
        + 2.0 * q * m * m
        + 2.0 * (-q * (1.0 + dj) + 2.0 * p) * m * mj
    ) / (4.0 * m)


def _cross_lower_straddle(d, m, p, q, dj, mj, lo_b, hi_b):
    return (p / (4.0 * m)) * (m * m * d + (m - lo_b) ** 2 / d + 2.0 * m * m + 2.0 * m * lo_b)


def _cross_upper_straddle(d, m, p, q, dj, mj, lo_b, hi_b):
    return (
        (q - p) * m * m * d
        + (q - p) * (hi_b - m) ** 2 / d
        + 2.0 * q * m * m
        + 2.0 * p * m * m
        + 2.0 * (p - q) * m * hi_b
    ) / (4.0 * m)


#: the six cross-cost formulas in case order; see _cross_cases
CROSS_COST_FORMULAS = (_cross_inside, _cross_below, _cross_above,
                       _cross_covers, _cross_lower_straddle, _cross_upper_straddle)


def _cross_cases(lo_u, hi_u, lo_b, hi_b):
    """Conditions of the first five cross-cost cases, in priority order (inside,
    below, above, covers, lower straddle); the upper straddle is the rest.

    Works on arrays and on Python floats (where & combines bools). Boundary
    points resolve to the formula approached from inside the band; all
    formulas are continuous where they meet.
    """
    return [
        (lo_u >= lo_b) & (hi_u <= hi_b),
        hi_u < lo_b,
        lo_u > hi_b,
        (lo_u <= lo_b) & (hi_u >= hi_b),
        hi_u <= hi_b,
    ]


def own_cost_curve(deltas, m, p, delta, p_bar, k):
    """Expected cost of a type-m customer on its own option, per variation value."""
    q = k if p_bar > k else p_bar
    d = np.asarray(deltas, dtype=np.float64)
    flat = d.reshape(-1)
    out = np.full(flat.shape, m * p)
    over = np.flatnonzero(~(flat <= delta))  # a NaN variation gets the formula: NaN
    if over.size:
        out[over] = own_cost_beyond_band(flat[over], m, p, q, delta)
    return out.reshape(d.shape)


def cross_cost_curve(deltas, m, p, delta_j, p_bar, center_j, k):
    """Expected cost of a type-m customer on another type's option, per variation value.

    Piecewise in the relation of the demand range [m(1-D), m(1+D)] to the
    option band (_cross_cases). Each value is computed only by the formula of
    its own case; a NaN variation falls to the upper straddle and gives NaN.
    """
    q = k if p_bar > k else p_bar
    d = np.asarray(deltas, dtype=np.float64)
    lo_b = center_j * (1.0 - delta_j)
    hi_b = center_j * (1.0 + delta_j)
    flat = d.reshape(-1)
    out = np.empty(flat.shape)
    rest = np.ones(flat.shape, dtype=bool)
    cases = _cross_cases(m * (1.0 - flat), m * (1.0 + flat), lo_b, hi_b)
    for cond, formula in zip([*cases, np.True_], CROSS_COST_FORMULAS):
        sel = rest & cond
        if sel.any():
            pos = np.flatnonzero(sel)
            out[pos] = formula(flat[pos], m, p, q, delta_j, center_j, lo_b, hi_b)
            rest &= ~cond  # a case that holds nowhere leaves rest as it is
            if not rest.any():
                break
    return out.reshape(d.shape)


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
