"""Property tests (hypothesis) of the rho geometry of power weights, of
the shell-ordered p.v. engine, of the classifier and of reconstruction."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from focklattice import (Interpolant, TraceData, batch_higher,  # noqa: E402
                         classify, mu_disc_many, power_weight, rho_many,
                         shells_for)

_gammas = st.sampled_from([0.3, 0.5, 1.0, 1.5, 3.0, 5.0])


class TestWeightProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(gamma=_gammas, a=st.floats(0.0, 1e6), k=st.floats(0.1, 10.0))
    def test_rho_table_scale_covariance(self, gamma, a, k):
        # phi_k(z) = phi(z / k) has rho_k(k z) = k rho(z); both weights read
        # one table per gamma
        c = 0.3
        w, wk = power_weight(gamma, c_gamma=c), power_weight(gamma, c_gamma=c * k ** -gamma)
        assert float(rho_many(wk, k * a)) == pytest.approx(k * float(rho_many(w, a)), rel=1e-12)

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


_seeds = st.integers(0, 2 ** 32 - 1)


def _rotation_index(lat):
    """perm with points[perm[j]] = -i points[j] on the square lattice."""
    mn = np.rint(np.column_stack([lat.points.real, lat.points.imag]) / lat.scale)
    where = {(int(m), int(n)): j for j, (m, n) in enumerate(mn)}
    return np.array([where[(int(n), -int(m))] for m, n in mn])


class TestPvEngineProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(a=st.integers(0, 4), b=st.integers(0, 4), extra=st.integers(0, 3),
           seed=_seeds)
    def test_odd_kernel_vanishes_per_shell(self, lat16, a, b, extra, seed):
        # lambda^a conj(lambda)^b / |lambda|^(a+b+extra+1) with a + b odd is
        # odd under lambda -> -lambda, and every shell is symmetric: each
        # shell partial vanishes, and so does the engine's order-1 sum at
        # the origin of d = lambda * terms
        if (a + b) % 2 == 0:
            b += 1
        rng = np.random.default_rng(seed)
        c = complex(*rng.normal(size=2))
        lam = lat16.points[1:]
        terms = np.zeros(len(lat16), dtype=complex)
        terms[1:] = c * lam ** a * np.conj(lam) ** b / np.abs(lam) ** (a + b + extra + 1)
        bound = 1e-12 * np.max(np.abs(terms))
        partials = np.cumsum(np.add.reduceat(terms, shells_for(lat16).starts))
        assert np.max(np.abs(partials)) <= bound
        value = batch_higher(lat16, terms * lat16.points, [0], 1)[0][0]
        assert abs(value) <= bound

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3), seed=_seeds)
    def test_rotation_by_i_covariance(self, lat16, n, seed):
        # T_n[d(-i .)](lambda') = i^(-n) T_n[d](-i lambda')
        rng = np.random.default_rng(seed)
        d = rng.normal(size=len(lat16)) + 1j * rng.normal(size=len(lat16))
        perm = _rotation_index(lat16)
        idx = np.nonzero(lat16.radii <= 0.5 * lat16.truncation_radius)[0]
        rotated = batch_higher(lat16, d[perm], idx, n)[0]
        direct = batch_higher(lat16, d, perm[idx], n)[0]
        assert np.max(np.abs(rotated - 1j ** (-n) * direct)) \
            <= 1e-13 * (1.0 + np.max(np.abs(direct)))


class TestClassifierProperties:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=st.sampled_from([1.0, 2.0, math.inf]),
           w=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           log_mod=st.floats(-3.0, 3.0), arg=st.floats(0.0, 2.0 * math.pi))
    def test_verdicts_invariant_under_complex_scaling(self, mult16,
                                                      p, w, log_mod, arg):
        # the conditions are homogeneous in c: trajectories scale by
        # |kappa|^p (|kappa| at p = inf), up to rounding noise where a sum
        # cancels, and the verdicts do not move
        kappa = 10.0 ** log_mod * complex(math.cos(arg), math.sin(arg))
        base = TraceData.gaussian(mult16, p, complex(*w))
        scaled = TraceData.from_weighted(mult16, p, kappa * base.c_weighted)
        vb, vs = classify(base), classify(scaled)
        assert vs.overall == vb.overall
        factor = abs(kappa) if math.isinf(p) else abs(kappa) ** p
        for rb, rs in zip(vb.reports, vs.reports):
            assert (rs.condition_id, rs.verdict) == (rb.condition_id, rb.verdict)
            tb = np.asarray(rb.partial_trajectory)
            ts = np.asarray(rs.partial_trajectory)
            assert np.array_equal(ts[:, 0], tb[:, 0])
            want = factor * tb[:, 1]
            assert np.allclose(ts[:, 1], want, rtol=1e-9, atol=1e-12 * want.max())


class TestReconstructionProperties:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(inf=st.booleans(), seed=_seeds)
    def test_linear_in_values(self, lat12, mult12, inf, seed):
        # points far from the lattice, 1e-4 rho from it, and on it
        rng = np.random.default_rng(seed)
        p = math.inf if inf else 2.0
        a, b, w01, w02 = rng.normal(size=4) + 1j * rng.normal(size=4)
        d1, d2 = (TraceData.gaussian(mult12, p, complex(*rng.uniform(-0.5, 0.5, 2)))
                  for _ in range(2))
        mix = TraceData.from_weighted(mult12, p,
                                      a * d1.c_weighted + b * d2.c_weighted)
        k = rng.integers(1, 40, size=6)
        near = lat12.points[k] + 1e-4 * lat12.rho_values[k] * np.exp(2j * math.pi * rng.uniform(size=6))
        z = np.concatenate([rng.uniform(-4, 4, 30) + 1j * rng.uniform(-4, 4, 30),
                            near, lat12.points[k[:2]]])

        def ev(data, w0):
            return Interpolant(data, w0 if inf else None).eval_weighted(z)

        lhs = ev(mix, a * w01 + b * w02)
        rhs = a * ev(d1, w01) + b * ev(d2, w02)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))
