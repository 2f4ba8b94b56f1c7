"""Special functions against the scipy oracle and classical identities."""

import math

import numpy as np
import pytest
import scipy.special as sc

from statgeom.expr import eval_points, parse_expression
from statgeom.special import digamma, log_gamma, polygamma, trigamma

GRID = np.concatenate([
    np.linspace(0.05, 2.0, 79),
    np.linspace(2.0, 12.0, 97),
    np.linspace(12.0, 80.0, 53),
])


def test_log_gamma_matches_scipy():
    for x in GRID:
        assert log_gamma(x) == pytest.approx(sc.gammaln(x), abs=1e-12, rel=1e-13)


@pytest.mark.parametrize("order", range(6))
def test_polygamma_matches_scipy(order):
    for x in GRID:
        reference = float(sc.polygamma(order, x))
        assert abs(polygamma(order, x) - reference) <= 1e-10 * (1.0 + abs(reference))


def test_digamma_recurrence():
    for x in (0.2, 0.7, 1.3, 4.5):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-13)


def test_trigamma_recurrence():
    # psi_1(x + 1) = psi_1(x) - 1/x², hence trigamma(1) - trigamma(2) = 1
    assert trigamma(1.0) - trigamma(2.0) == pytest.approx(1.0, abs=1e-12)
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-12)


def test_log_gamma_is_exactly_zero_where_gamma_is_one():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert eval_points(parse_expression("lgamma(2) + x", ("x",)), [[1.0]])[0] == 1.0


def test_positive_domain_required():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        polygamma(1, -0.5)
    with pytest.raises(ValueError):
        polygamma(-1, 1.0)


PINNED_X = (0.3, 1.0, 2.5, 7.25, 12.0, 31.5)

# float.hex of the values computed before the series coefficients were
# precomputed per order; the precomputation must not move a bit.
PINNED_POLYGAMMA = {
    0: ("-0x1.c052b6b5e6118p+1", "-0x1.2788cfc6fb618p-1", "0x1.680425af12b5cp-1",
        "0x1.e9137b7a7e562p+0", "0x1.38a9234f5821dp+1", "0x1.b78e502de4a36p+1"),
    1: ("0x1.87da06bfa42dcp+3", "0x1.a51a6625307d4p+0", "0x1.f62057f7296cap-2",
        "0x1.2edb4eb166c0fp-3", "0x1.63f337df20565p-4", "0x1.083c334ace1c6p-5"),
    2: ("-0x1.2d1713d4de2acp+6", "-0x1.33ba004f00621p+1", "-0x1.e3bef327df0e8p-3",
        "-0x1.65a5430daf34cp-6", "-0x1.ee9d183c6d820p-8", "-0x1.10b62b4a0cdeep-10"),
    3: ("0x1.739225581e957p+9", "0x1.9f9cb402bc46dp+2", "0x1.ca8f26506cfd9p-3",
        "0x1.a5987618db03ep-8", "0x1.576ede5421cd6p-10", "0x1.196f825aed064p-14"),
    4: ("-0x1.34dbbf9a063f6p+13", "-0x1.8e2e2562fbb35p+4", "-0x1.414940b338876p-2",
        "-0x1.7414e93a7306dp-9", "-0x1.6578584c58540p-12", "-0x1.b39ec9f56dfe7p-18"),
}
PINNED_LOG_GAMMA = ("0x1.188637a6c4190p+0", "0x0.0p+0", "0x1.2383e809a67e0p-2",
                    "0x1.c35701a50ff03p+2", "0x1.180973f3a8d74p+4", "0x1.317c1b4b39e34p+6")


@pytest.mark.parametrize("order", sorted(PINNED_POLYGAMMA))
def test_polygamma_bits_are_pinned(order):
    assert tuple(polygamma(order, x).hex() for x in PINNED_X) == PINNED_POLYGAMMA[order]


def test_log_gamma_bits_are_pinned():
    assert tuple(log_gamma(x).hex() for x in PINNED_X) == PINNED_LOG_GAMMA
