import numpy as np
import pytest
from hypothesis import given, strategies as st

from flexcon.model import (
    ContractMenu,
    ContractOption,
    MarketParams,
    TypeDistribution,
    VariationModel,
    validate,
)


def test_capacity_cost_cap_violation():
    params = MarketParams(p0=10.0, k=12.0, c0=2.0, c_hat=6.0, N=5)
    dist = TypeDistribution((1.0,), (1.0,))
    result = validate(params, dist)
    assert not result.ok
    assert "c_hat <= p0/2" in result.violations


def test_two_type_instance_is_valid():
    params = MarketParams(p0=10.0, k=12.0, c0=2.0, c_hat=4.0, N=5)
    dist = TypeDistribution((1.0, 3.0), (0.9, 0.1))
    assert validate(params, dist).ok


def test_prob_sum_violation():
    params = MarketParams(p0=10.0, k=12.0, c0=2.0, c_hat=4.0, N=5)
    dist = TypeDistribution((1.0, 3.0), (0.5, 0.6))
    result = validate(params, dist)
    assert not result.ok
    assert "sum(probs) == 1" in result.violations


def test_validate_is_pure():
    params = MarketParams(p0=10.0, k=9.0, c0=11.0, c_hat=6.0, N=0)
    dist = TypeDistribution((2.0, 1.0), (0.5, 0.5))
    first = validate(params, dist)
    second = validate(params, dist)
    assert first == second
    assert set(first.violations) >= {"k > p0", "c0 < p0", "N >= 1", "means strictly increasing"}


def test_menu_checks():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((1.0, 2.0), (0.5, 0.5))
    menu = ContractMenu(
        (
            ContractOption(p=11.0, delta=1.5, p_bar=-1.0, center=1.0),
            ContractOption(p=9.0, delta=0.5, p_bar=30.0, center=2.5),
        )
    )
    result = validate(params, dist, menu)
    assert not result.ok
    joined = " | ".join(result.violations)
    assert "option 0: p <= p0" in joined
    assert "option 0: 0 <= delta <= 1" in joined
    assert "option 0: p_bar > 0" in joined
    assert "option 1: center aligned with type mean" in joined


def test_menu_length_mismatch():
    params = MarketParams(p0=10.0, k=20.0, c0=1.0, c_hat=2.0, N=1)
    dist = TypeDistribution((1.0, 2.0), (0.5, 0.5))
    menu = ContractMenu((ContractOption(p=9.0, delta=0.5, p_bar=30.0, center=1.0),))
    result = validate(params, dist, menu)
    assert "menu length == number of types" in result.violations


def test_uniform_variation_cdf_is_identity():
    v = VariationModel.uniform()
    assert v.cdf(0.25) == 0.25
    assert v.cdf(-1.0) == 0.0
    assert v.cdf(2.0) == 1.0
    assert v.ppf(0.7) == 0.7


@given(
    mu=st.floats(0.0, 1.0),
    sigma=st.floats(0.05, 10.0),
    u=st.floats(1e-9, 1.0 - 1e-9),
)
def test_truncated_normal_ppf_cdf_roundtrip(mu, sigma, u):
    v = VariationModel.truncated_normal(mu, sigma)
    x = float(v.ppf(u))
    assert 0.0 <= x <= 1.0
    assert v.cdf(x) == pytest.approx(u, abs=1e-9)


def test_truncated_normal_rejects_bad_sigma():
    with pytest.raises(ValueError):
        VariationModel.truncated_normal(0.5, 0.0)


def test_variation_mass_matches_cdf_difference():
    v = VariationModel.truncated_normal(0.3, 0.7)
    assert v.mass(0.2, 0.8) == v.cdf(0.8) - v.cdf(0.2)


def test_ppf_vectorizes():
    v = VariationModel.truncated_normal(0.5, 0.5)
    u = np.linspace(0.01, 0.99, 11)
    x = v.ppf(u)
    assert x.shape == u.shape
    assert np.all(np.diff(x) > 0)


def test_truncated_normal_matches_scipy_expressions():
    # the edge CDFs are computed once per instance and scipy is bound on first
    # use; every value must keep the bits of the direct scipy expressions
    from scipy.special import ndtr, ndtri

    for mu in (-0.3, 0.0, 0.3, 0.5, 1.0, 1.3):
        for sigma in (0.1, 0.2, 0.5, 1.0, 3.0):
            v = VariationModel.truncated_normal(mu, sigma)
            lo, hi = ndtr((0.0 - mu) / sigma), ndtr((1.0 - mu) / sigma)
            assert repr(v.normaliser()) == repr(float(hi - lo))
            for x in np.linspace(0.0, 1.0, 41)[1:-1].tolist():
                expected = float((ndtr((x - mu) / sigma) - lo) / (hi - lo))
                assert repr(v.cdf(x)) == repr(expected)
                assert repr(v.ppf(x)) == repr(mu + sigma * ndtri(lo + x * (hi - lo)))
            u = np.linspace(0.0, 1.0, 41)
            assert np.array_equal(v.ppf(u), mu + sigma * ndtri(lo + u * (hi - lo)))
