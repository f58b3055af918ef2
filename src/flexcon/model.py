"""Domain types for the flexible-contract market model and their validation.

Everything here is an immutable value record; all invariants shared by the
analytic, design, and simulation layers are enforced in one place through
``validate``, which diagnoses rather than raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

PROB_SUM_TOL = 1e-12

UNIFORM = "uniform"
TRUNCATED_NORMAL = "truncated_normal"

OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"

#: choose_option sentinel for the flat-price baseline scheme.
BASELINE = -1


# Only truncated-normal variation needs scipy.special. Each stub below imports
# its ufunc on the first call and rebinds the module global to it, so later
# calls look up the ufunc itself and uniform-variation runs never load scipy.
def ndtr(x):
    global ndtr
    from scipy.special import ndtr

    return ndtr(x)


def ndtri(x):
    global ndtri
    from scipy.special import ndtri

    return ndtri(x)


@dataclass(frozen=True)
class MarketParams:
    """Global economic parameters.

    p0     -- baseline electricity price (money / energy unit)
    k      -- customer elasticity penalty per curtailed unit (money / energy unit)
    c0     -- supplier generation cost (money / energy unit)
    c_hat  -- linear capacity cost (money / energy unit of capacity)
    N      -- number of customers
    """

    p0: float
    k: float
    c0: float
    c_hat: float
    N: int


@dataclass(frozen=True)
class TypeDistribution:
    """Discrete customer-type support: mean usages with probabilities."""

    means: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "probs", tuple(float(h) for h in self.probs))

    @property
    def n(self) -> int:
        return len(self.means)

    @property
    def m_max(self) -> float:
        """Largest mean usage; drives worst-case baseline capacity 2*m_max."""
        return self.means[-1]


@dataclass(frozen=True)
class VariationModel:
    """Distribution family of the demand-variation degree on [0, 1]."""

    family: str = UNIFORM
    mu: float = 0.0
    sigma: float = 1.0

    @classmethod
    def uniform(cls) -> "VariationModel":
        return cls(UNIFORM)

    @classmethod
    def truncated_normal(cls, mu: float, sigma: float) -> "VariationModel":
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        return cls(TRUNCATED_NORMAL, mu, sigma)

    @cached_property
    def _edges(self) -> tuple[float, float]:
        """CDF of the untruncated normal at 0 and at 1: Phi(-mu/sigma), Phi((1-mu)/sigma).

        Computed once per instance; the frozen dataclass still has a __dict__."""
        return ndtr((0.0 - self.mu) / self.sigma), ndtr((1.0 - self.mu) / self.sigma)

    def normaliser(self) -> float:
        """Probability mass of the untruncated family on [0, 1]."""
        if self.family == UNIFORM:
            return 1.0
        lo, hi = self._edges
        return float(hi - lo)

    def cdf(self, x: float) -> float:
        """P(variation <= x); clipped to [0, 1] outside the support."""
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        if self.family == UNIFORM:
            return x
        lo, hi = self._edges
        return float((ndtr((x - self.mu) / self.sigma) - lo) / (hi - lo))

    def mass(self, lo: float, hi: float) -> float:
        """Probability mass on [lo, hi]."""
        return self.cdf(hi) - self.cdf(lo)

    def ppf(self, u):
        """Inverse CDF; exact and rejection-free, so sample streams are stable."""
        if self.family == UNIFORM:
            return u
        a, b = self._edges
        return self.mu + self.sigma * ndtri(a + u * (b - a))


@dataclass(frozen=True)
class ContractOption:
    """One contract option: discounted price inside a committed demand band.

    The band for a customer anchored at mean ``center`` is
    [center*(1-delta), center*(1+delta)]; demand above it is billed at p_bar.
    """

    p: float
    delta: float
    p_bar: float
    center: float

    @property
    def band_lo(self) -> float:
        return self.center * (1.0 - self.delta)

    @property
    def band_hi(self) -> float:
        return self.center * (1.0 + self.delta)


@dataclass(frozen=True)
class ContractMenu:
    """One option per customer type, index-aligned with TypeDistribution.means."""

    options: tuple[ContractOption, ...]

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))

    def __len__(self) -> int:
        return len(self.options)

    def __iter__(self):
        return iter(self.options)

    def __getitem__(self, i: int) -> ContractOption:
        return self.options[i]


@dataclass(frozen=True)
class BehaviorMode:
    """Tie-breaking stance plus the absolute cost tolerance that defines a tie."""

    mode: str
    tie_tol: float

    @classmethod
    def optimistic(cls, params: MarketParams) -> "BehaviorMode":
        return cls(OPTIMISTIC, 1e-9 * params.p0)

    @classmethod
    def pessimistic(cls, params: MarketParams) -> "BehaviorMode":
        return cls(PESSIMISTIC, 1e-9 * params.p0)


@dataclass(frozen=True)
class PerCustomerAccount:
    """Supplier-side view of one customer: expected payment, energy, capacity."""

    revenue: float
    energy: float
    capacity: float


@dataclass(frozen=True)
class EvaluationReport:
    """Profit summary for one menu under one behavior mode.

    gain_ratio is (menu - baseline) / (super_optimal - baseline), or None when
    the super-optimal gain is degenerate (<= 0).
    """

    baseline_profit: float
    menu_profit: float
    super_optimal_profit: float
    gain_ratio: float | None
    per_type_capacity: tuple[float, ...]
    mode: BehaviorMode


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def _finite(*values) -> bool:
    """True when no value is NaN or infinite (a Python int always is finite)."""
    return all(isinstance(v, int) or math.isfinite(v) for v in values)


def validate(
    params: MarketParams,
    dist: TypeDistribution,
    menu: ContractMenu | None = None,
) -> ValidationResult:
    """Check every standing model invariant; returns the full list of violations.

    Pure and non-raising: identical inputs always produce the identical report,
    and downstream preconditions hold exactly when the result is ok.
    """
    bad: list[str] = []

    if not _finite(params.p0, params.k, params.c0, params.c_hat, params.N):
        bad.append("params finite")
    if not params.p0 > 0.0:
        bad.append("p0 > 0")
    if not params.c0 >= 0.0:
        bad.append("c0 >= 0")
    if not params.N >= 1:
        bad.append("N >= 1")
    if not params.c0 < params.p0:
        bad.append("c0 < p0")
    if not params.k > params.p0:
        bad.append("k > p0")
    if not params.c_hat <= params.p0 / 2.0:
        bad.append("c_hat <= p0/2")

    if len(dist.means) != len(dist.probs):
        bad.append("len(means) == len(probs)")
    if not _finite(*dist.means, *dist.probs):
        bad.append("means and probs finite")
    if any(m <= 0.0 for m in dist.means):
        bad.append("means > 0")
    if any(b <= a for a, b in zip(dist.means, dist.means[1:])):
        bad.append("means strictly increasing")
    if any(h < 0.0 for h in dist.probs):
        bad.append("probs >= 0")
    if dist.probs and not math.isclose(sum(dist.probs), 1.0, rel_tol=0.0, abs_tol=PROB_SUM_TOL):
        bad.append("sum(probs) == 1")

    if menu is not None:
        if len(menu) != dist.n:
            bad.append("menu length == number of types")
        for i, opt in enumerate(menu):
            tag = f"option {i}"
            if not _finite(opt.p, opt.delta, opt.p_bar, opt.center):
                bad.append(f"{tag}: fields finite")
            if not 0.0 <= opt.delta <= 1.0:
                bad.append(f"{tag}: 0 <= delta <= 1")
            if not opt.p <= params.p0:
                bad.append(f"{tag}: p <= p0")
            if not opt.p_bar > 0.0:
                bad.append(f"{tag}: p_bar > 0")
            if i < dist.n and not math.isclose(
                opt.center, dist.means[i], rel_tol=1e-12, abs_tol=0.0
            ):
                bad.append(f"{tag}: center aligned with type mean")

    return ValidationResult(ok=not bad, violations=tuple(bad))
