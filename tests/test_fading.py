"""Fading distributions: constructors, quantization quality, sampling."""

import math

import numpy as np
import pytest

from fdwpc import fading

# Inverse-CDF midpoints of the two-state unit-power Rayleigh quantization:
# sqrt(-ln(3/4)) and sqrt(-ln(1/4)).
RAY2_LO = 0.5363600213026516
RAY2_HI = 1.1774100225154747


def test_deterministic():
    d = fading.deterministic(1.0)
    assert d.n_states == 1
    assert d.h[0] == 1.0 and d.p[0] == 1.0
    assert d.mean_square == 1.0
    assert fading.deterministic(0.0).mean_square == 0.0
    assert fading.deterministic(2.0).mean_square == 4.0
    with pytest.raises(ValueError):
        fading.deterministic(-0.5)


def test_rayleigh_two_state_values():
    d = fading.rayleigh(1.0, 2)
    assert d.h[0] == pytest.approx(RAY2_LO, rel=1e-12)
    assert d.h[1] == pytest.approx(RAY2_HI, rel=1e-12)
    assert np.all(d.p == 0.5)


def test_rayleigh_scale_family():
    d1 = fading.rayleigh(1.0, 16)
    d4 = fading.rayleigh(4.0, 16)
    assert np.allclose(d4.h, 2.0 * d1.h, rtol=1e-12)


def test_rayleigh_moment_convergence():
    for omega in [0.5, 1.0, 9.88e-8]:
        d = fading.rayleigh(omega, 1000)
        assert abs(d.mean_square - omega) / omega < 1e-3
    # Bias shrinks roughly linearly in the state count.
    errs = [
        abs(fading.rayleigh(1.0, n).mean_square - 1.0) for n in (500, 1000, 2000)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_rayleigh_validation():
    with pytest.raises(ValueError):
        fading.rayleigh(0.0, 100)
    with pytest.raises(ValueError):
        fading.rayleigh(1.0, 1)


def test_quantization_refinement_of_capacity_integrand():
    # The ergodic integrands downstream are log(1 + c*h^2); doubling the
    # state count moves the sum by less than 1e-3 relative at 1000 states.
    for c in [0.1, 10.0, 1e4]:
        vals = []
        for n in (1000, 2000):
            d = fading.rayleigh(1.0, n)
            vals.append(float(np.log1p(c * d.h**2) @ d.p))
        assert abs(vals[1] - vals[0]) <= 1e-3 * abs(vals[1])


def test_sampling_reproducible_and_correct():
    d = fading.deterministic(1.0)
    assert np.all(d.sample_indices(123, 50) == 0)
    r = fading.rayleigh(1.0, 50)
    a = r.sample_indices(7, 1000)
    b = r.sample_indices(7, 1000)
    assert np.array_equal(a, b)
    c = r.sample_indices(8, 1000)
    assert not np.array_equal(a, c)


def test_sampling_law_of_large_numbers():
    r = fading.rayleigh(1.0, 1000)
    draws = r.h[r.sample_indices(2024, 1_000_000)]
    assert abs(np.mean(draws**2) - 1.0) < 0.01


def test_custom_sorts_states():
    d = fading.custom([1.5, 0.5], [0.25, 0.75])
    assert np.all(np.diff(d.h) > 0)
    assert d.p[0] == 0.75
    assert d.mean_square == pytest.approx(0.75 * 0.25 + 0.25 * 2.25, rel=1e-12)


@pytest.mark.parametrize(
    "d",
    [fading.deterministic(0.0), fading.rayleigh(1.0, 16), fading.custom([1.5, 1e-200], [0.25, 0.75])],
    ids=["dead", "rayleigh", "underflow"],
)
def test_squared_gains_are_stored_once(d):
    assert np.array_equal(d.h2, d.h * d.h)
    assert d.mean_square == float(np.dot(d.h2, d.p))
    with pytest.raises(ValueError):
        d.h2[0] = 1.0


def test_distributions_compare_and_hash_by_identity():
    # Equal contents compare False rather than raising on array truth, and
    # the hash is the identity's, so a distribution can key a cache.
    a, b = fading.rayleigh(1.0, 16), fading.rayleigh(1.0, 16)
    assert a == a and (a == b) is False and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert np.array_equal(a.h, b.h) and np.array_equal(a.p, b.p)


def test_custom_validation():
    with pytest.raises(ValueError):
        fading.custom([-0.1, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        fading.custom([0.1, 1.0], [0.5, 0.0])
    with pytest.raises(ValueError):
        fading.custom([0.1, 1.0], [0.7, 0.6])
    with pytest.raises(ValueError):
        fading.custom([], [])


def test_from_file(tmp_path):
    path = tmp_path / "fading.txt"
    path.write_text(
        "# gain probability\n"
        "1.0 0.25\n"
        "0.5 0.50   # weak state\n"
        "\n"
        "2.0 0.25\n"
    )
    d = fading.from_file(path)
    assert d.n_states == 3
    assert np.all(d.h == np.array([0.5, 1.0, 2.0]))
    assert d.p[0] == pytest.approx(0.5, rel=1e-12)

    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 0.5 extra\n")
    with pytest.raises(ValueError):
        fading.from_file(bad)
    nonnum = tmp_path / "nonnum.txt"
    nonnum.write_text("a b\n")
    with pytest.raises(ValueError):
        fading.from_file(nonnum)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        fading.from_file(empty)
