"""Unit conversions, link budget, and parameter validation."""

import math

import numpy as np
import pytest

from fdwpc.units import (
    LinkParams,
    PathLossParams,
    RecycleOverUnityError,
    db_to_linear,
    dbm_to_watt,
    linear_to_db,
    omega_from_path_loss,
    watt_to_dbm,
)

# (c / (4 pi f_c))^2 * d^-3 at f_c = 2.4 GHz, d = 10 m; high-precision direct
# evaluation of the path-loss product.
OMEGA_24GHZ_10M_G3 = 9.880961210318490e-08


def test_dbm_to_watt_definition():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1.0e-3, rel=1e-12)
    assert dbm_to_watt(-10.0) == pytest.approx(1.0e-4, rel=1e-12)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    # A 100 dB suppression factor maps to a residual gain variance of 1e-10.
    assert 1.0 / db_to_linear(100.0) == pytest.approx(1e-10, rel=1e-12)


def test_dbm_watt_round_trip():
    for x_dbm in np.linspace(-120.0, 60.0, 181):
        back = watt_to_dbm(dbm_to_watt(x_dbm))
        assert abs(back - x_dbm) <= 1e-12 * max(1.0, abs(x_dbm))
    for x_w in np.logspace(-15, 3, 50):
        assert watt_to_dbm(dbm_to_watt(watt_to_dbm(x_w))) == pytest.approx(
            watt_to_dbm(x_w), rel=1e-12
        )


def test_linear_db_round_trip():
    for x in np.logspace(-12, 12, 49):
        assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)


def test_omega_from_path_loss_value():
    p = PathLossParams(f_c=2.4e9, d=10.0, gamma=3.0)
    assert omega_from_path_loss(p) == pytest.approx(OMEGA_24GHZ_10M_G3, rel=1e-12)


def test_omega_distance_scaling():
    p10 = PathLossParams(f_c=2.4e9, d=10.0, gamma=3.0)
    p20 = PathLossParams(f_c=2.4e9, d=20.0, gamma=3.0)
    assert omega_from_path_loss(p20) == pytest.approx(
        omega_from_path_loss(p10) / 8.0, rel=1e-12
    )


def test_omega_unit_distance():
    p = PathLossParams(f_c=2.4e9, d=1.0, gamma=3.0)
    expected = (299792458.0 / (4.0 * math.pi * 2.4e9)) ** 2
    assert omega_from_path_loss(p) == pytest.approx(expected, rel=1e-12)


def test_omega_monotone_in_distance_and_exponent():
    ds = np.linspace(1.5, 100.0, 40)
    oms = [omega_from_path_loss(PathLossParams(2.4e9, d, 3.0)) for d in ds]
    assert all(a > b for a, b in zip(oms, oms[1:]))
    gammas = np.linspace(2.0, 6.0, 17)
    oms_g = [omega_from_path_loss(PathLossParams(2.4e9, 10.0, g)) for g in gammas]
    assert all(a > b for a, b in zip(oms_g, oms_g[1:]))


def test_link_params_basic_validation():
    with pytest.raises(ValueError):
        LinkParams(eta=0.0, p_proc=0.0, p_et=1.0, sigma2_sq=0.1)
    with pytest.raises(ValueError):
        LinkParams(eta=1.0, p_proc=0.0, p_et=1.0, sigma2_sq=0.1)
    with pytest.raises(ValueError):
        LinkParams(eta=0.8, p_proc=-0.1, p_et=1.0, sigma2_sq=0.1)
    with pytest.raises(ValueError):
        LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=-1.0)


@pytest.mark.parametrize("name", ["p_proc", "p_et", "sigma2_sq", "alpha1", "alpha2"])
def test_link_params_store_negative_zero_as_zero(name):
    # -0.0 == 0.0 passes validation, but -0.0/h^2 and log1p(P/-0.0) differ
    # from their +0.0 values.
    kw = dict(eta=0.8, p_proc=0.1, p_et=1.0, sigma2_sq=0.1, alpha1=0.1, alpha2=0.1)
    kw[name] = -0.0
    lp = LinkParams(**kw)
    assert math.copysign(1.0, getattr(lp, name)) == 1.0
    assert lp == LinkParams(**{**kw, name: 0.0})


def test_recycle_over_unity_is_distinct_error():
    # eta*(g1_mean^2 + alpha1) = 0.8*1.5 >= 1 must be rejected specifically.
    with pytest.raises(RecycleOverUnityError):
        LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.1, alpha1=1.5)
    with pytest.raises(RecycleOverUnityError):
        LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.1, g1_mean=1.2)
    # Just below one is accepted and cached.
    lp = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.1, alpha1=1.2)
    assert lp.rho == pytest.approx(0.96, rel=1e-12)


@pytest.mark.parametrize("g1_mean", [1e200, -1e200, 1.2e154, 1e308])
def test_a_gain_whose_square_overflows_is_over_unity(g1_mean):
    # g1_mean**2 raised OverflowError, which named no field.
    with pytest.raises(RecycleOverUnityError, match="= inf >= 1"):
        LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.1, g1_mean=g1_mean)


def test_recycle_coefficient_keeps_the_bits_of_the_square():
    # x*x and x**2 differ in the last bit at 0.0397.
    lp = LinkParams(eta=0.8, p_proc=0.0, p_et=1.0, sigma2_sq=0.1, g1_mean=0.0397)
    assert lp.rho == 0.8 * (0.0397**2 + 0.0)


def test_path_loss_params_validation():
    with pytest.raises(ValueError):
        PathLossParams(f_c=0.0, d=10.0, gamma=3.0)
    with pytest.raises(ValueError):
        PathLossParams(f_c=2.4e9, d=0.0, gamma=3.0)
    with pytest.raises(ValueError):
        PathLossParams(f_c=2.4e9, d=10.0, gamma=1.5)
