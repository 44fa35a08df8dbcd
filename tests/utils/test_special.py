"""The numpy special functions against scipy, their test oracle.

scipy is a development dependency only: the runtime uses the Cephes ports
in :mod:`repro.utils.special`.  ``erfc`` runs on numpy's vectorized
``exp``, which can differ from the C library's by an ulp, so it is held to
4 ulp; ``erfcinv`` uses the C library's ``log`` as Cephes does.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.utils.special import erfc, erfcinv, j0

special = pytest.importorskip("scipy.special")

MAX_ULP = 4


def _arrays(elements):
    return st.lists(elements, min_size=1, max_size=64).map(np.array)


#: erfcinv's arguments: uniform on (0, 2), log-uniform down to 1e-300, and
#: log-uniformly close to 2 (ndtri's reflected tail)
_erfcinv_args = st.one_of(
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    st.floats(-300.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-16.0, 0.0).map(lambda e: 2.0 - 10.0**e).filter(lambda y: 0.0 < y < 2.0),
)


class TestErfc:
    @given(x=_arrays(st.floats(-3.0, 40.0)))
    @example(x=np.array([-1.0, 1.0, -8.0, 8.0, 26.5, 26.7, 27.3]))
    @example(x=np.nextafter([1.0, 1.0, 8.0, 8.0], [0.0, 2.0, 0.0, 9.0]))
    @settings(max_examples=200, deadline=None)
    def test_within_4_ulp_of_scipy(self, x):
        np.testing.assert_array_max_ulp(erfc(x), special.erfc(x), maxulp=MAX_ULP)

    def test_dense_grid_over_every_branch(self):
        x = np.concatenate(
            [np.linspace(-3.0, 40.0, 200_001), np.linspace(-1.0, 1.0, 20_001)]
        )
        np.testing.assert_array_max_ulp(erfc(x), special.erfc(x), maxulp=MAX_ULP)

    def test_edge_cases_match_scipy(self):
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0, -2.0, 1e-300, 5e-324])
        np.testing.assert_array_equal(erfc(x), special.erfc(x))

    def test_shapes_and_scalars(self):
        assert erfc(0.5).shape == ()
        assert erfc(np.zeros((3, 4, 5))).shape == (3, 4, 5)
        assert float(erfc(0.0)) == 1.0


class TestErfcinv:
    @given(y=_arrays(_erfcinv_args))
    @example(y=np.array([2.0 * np.exp(-2.0), 2.0 - 2.0 * np.exp(-2.0), 2.5e-14, 1e-300]))
    @example(y=np.array([5e-324, 1e-310, 1.0, np.nextafter(2.0, 0.0)]))
    @settings(max_examples=200, deadline=None)
    def test_within_4_ulp_of_scipy(self, y):
        np.testing.assert_array_max_ulp(erfcinv(y), special.erfcinv(y), maxulp=MAX_ULP)

    def test_dense_grid_over_every_branch(self):
        y = np.concatenate(
            [np.linspace(0.0, 2.0, 10_001)[1:-1], np.logspace(-300.0, 0.0, 10_001)]
        )
        np.testing.assert_array_max_ulp(erfcinv(y), special.erfcinv(y), maxulp=MAX_ULP)

    def test_edge_cases_match_scipy(self):
        y = np.array([np.nan, 0.0, -0.0, 2.0, -1.0, 3.0, np.inf, -np.inf, 5e-324, 1.0])
        np.testing.assert_array_equal(erfcinv(y), special.erfcinv(y))

    def test_inverts_erfc(self):
        x = np.linspace(-2.5, 20.0, 1001)
        np.testing.assert_allclose(erfcinv(erfc(x)), x, rtol=1e-9)

    def test_shapes_and_scalars(self):
        assert erfcinv(0.5).shape == ()
        assert erfcinv(np.full((2, 3), 0.5)).shape == (2, 3)


class TestJ0:
    @given(x=_arrays(st.floats(0.0, 200.0)))
    @example(x=np.array([0.0, 1.52, 2.404825557695773, 150.0, 200.0]))
    @settings(max_examples=100, deadline=None)
    def test_within_1e13_of_scipy(self, x):
        np.testing.assert_allclose(j0(x), special.j0(x), rtol=0.0, atol=1e-13)

    def test_even_and_far_arguments(self):
        x = np.concatenate([np.linspace(-250.0, 250.0, 20_001), np.logspace(2.3, 8.0, 2001)])
        np.testing.assert_allclose(j0(x), special.j0(x), rtol=0.0, atol=1e-13)

    def test_nan_propagates(self):
        assert np.isnan(j0(np.nan))
