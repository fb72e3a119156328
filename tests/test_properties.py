"""Property tests (hypothesis) of the rho geometry of power weights."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from focklattice import mu_disc_many, power_weight, rho  # noqa: E402

_gammas = st.sampled_from([0.3, 0.5, 1.0, 1.5, 3.0, 5.0])


class TestWeightProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gamma=_gammas, a=st.floats(0.0, 300.0), k=st.floats(0.1, 10.0))
    def test_rho_scale_covariance(self, gamma, a, k):
        # phi_k(z) = phi(z / k) has rho_k(k z) = k rho(z)
        c = 0.3
        w, wk = power_weight(gamma, c_gamma=c), power_weight(gamma, c_gamma=c * k ** -gamma)
        assert rho(wk, k * a) == pytest.approx(k * rho(w, a), rel=1e-10)

    # Centres and radii start at 1e-3: below that mu ~ r^gamma can fall
    # out of double range (r = 1e-198, gamma = 3 gives 1e-594).
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gamma=_gammas, a=st.one_of(st.just(0.0), st.floats(1e-3, 300.0)),
           r0=st.one_of(st.none(), st.floats(1e-3, 300.0)),
           steps=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=6))
    def test_mu_strictly_increasing_in_radius(self, gamma, a, r0, steps):
        w = power_weight(gamma, rho_origin=2.0)
        if r0 is None:                      # edge through the origin
            r0 = a if a > 0.0 else 1.0
        radii = r0 * np.cumprod([1.0] + [1.0 + s for s in steps])
        assert np.all(np.diff(mu_disc_many(w, a, radii)) > 0.0)
