"""Reference implementations that the tests check program code against.

Each is the plain dense form of what the program computes another way:

* `dense_section`: the weighted matrix of an operator section, which the
  program applies matrix-free by FFT convolution (`transforms._FftSection`);
* `levin_recovery`: Levin's recovery of the order-n transforms from samples
  of f/g at perturbed points, which the program computes as p.v. sums
  (`transforms.batch_higher`);
* `shell_batch`: the batch transforms by a compensated (Kahan) pass over
  every shell of whole term rows, with its own window test, where the
  program takes the total less the outer shells
  (`transforms._tail_partials`).

None of them shares computing code with the program; they take from it
only their inputs (the lattice, its shells, the multiplier and phi) and
the window test's constants.

(Not named oracle.py: perfbench's module of that name shares sys.path.)
"""

import math
from typing import NamedTuple

import numpy as np

from focklattice import phi, shells_for
from focklattice.transforms import CAUCHY_WINDOW, PV_ATOL, PV_RTOL


def dense_section(lat, kind, N=2):
    """The section of B, L or M(N) on the lattice as a dense matrix, from
    the kernel formulas (rows lambda, columns mu != lambda; diagonal 0):

        B:    rho(lambda) rho(mu) / (lambda - mu)^2
        L:    rho(lambda)^2 rho(mu) / |lambda - mu|^3
        M(N): rho(lambda)^N rho(mu) / |lambda - mu|^(N+1)
    """
    rho = lat.rho_values
    diffs = lat.points[:, None] - lat.points[None, :]
    np.fill_diagonal(diffs, 1.0)
    if kind == "B":
        K = rho[:, None] * rho[None, :] / diffs ** 2
    elif kind == "L":
        K = rho[:, None] ** 2 * rho[None, :] / np.abs(diffs) ** 3
    else:
        K = rho[:, None] ** N * rho[None, :] / np.abs(diffs) ** (N + 1)
    np.fill_diagonal(K, 0.0)
    return K


def _compensated_partials(shell_sums):
    """Kahan running totals of the rows of a (rows x shells) matrix."""
    partials = np.empty_like(shell_sums)
    total = np.zeros(shell_sums.shape[0], dtype=shell_sums.dtype)
    comp = np.zeros_like(total)
    for s in range(shell_sums.shape[1]):
        y = shell_sums[:, s] - comp
        t = total + y
        comp = (t - total) - y
        total = t
        partials[:, s] = total
    return partials


def shell_partials(lat, d, idx, n):
    """(centres x shells) partial sums of the order-n (or, for
    n = "modified", the modified Cauchy) p.v. sums at the centres
    points[idx]: the term rows written from the kernel formulas, summed
    per shell and run through the compensated shell pass, 64 rows at a
    time."""
    pts, vals, starts = lat.points, np.asarray(d, dtype=complex), shells_for(lat).starts
    sums = []
    for blk in np.array_split(np.asarray(idx), max(1, len(idx) // 64)):
        ctr = pts[blk, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            if n == "modified":
                terms = vals * (1.0 / (pts - ctr) - 1.0 / pts)
                terms[:, 0] = -vals[0] / ctr[:, 0]
            else:
                terms = vals / (pts - ctr) ** n
        terms[np.arange(len(blk)), blk] = 0.0
        sums.append(np.add.reduceat(terms, starts, axis=1))
    return _compensated_partials(np.concatenate(sums))


def shell_batch(lat, d, idx, n):
    """Values and convergence flags of `batch_higher` (order n) or, for
    n = "modified", `batch_modified_inf`, from `shell_partials`.  A row
    converged when its last CAUCHY_WINDOW partials lie within PV_RTOL
    times their largest modulus plus PV_ATOL of each other."""
    partials = shell_partials(lat, d, idx, n)
    tail = partials[:, -CAUCHY_WINDOW:]
    spread = np.max(np.abs(tail[:, :, None] - tail[:, None, :]), axis=(1, 2))
    conv = spread <= PV_RTOL * np.max(np.abs(tail), axis=1) + PV_ATOL
    return partials[:, -1], conv


class Recovery(NamedTuple):
    indices: np.ndarray     # the centres lambda', |lambda'| <= R/2
    d: np.ndarray           # the trace data f|Lambda / g' over all indices
    samples: np.ndarray     # f/g at z_k over the centres, one row per k
    recovered: dict         # n -> S_n over the centres


def levin_recovery(lat, m, f, delta, N):
    """Levin's recovery of the order-n transforms S_n, n = 1..N, from the
    samples of f/g at z_k = lambda' + zeta_k, zeta_k = delta w_k rho(lambda'),
    w_k the N-th roots of unity.  For f in the space,

        sum_{n=1..N} zeta_k^(n-1) S_n(lambda')
            = d_lambda'/zeta_k + R_k(lambda') - f(z_k)/g(z_k),

    with the absolutely convergent remainder R_k(lambda') = sum over
    lambda != lambda' of d_lambda zeta_k^N / ((lambda - lambda')^N
    (z_k - lambda)); averaging against w_k^-(n-1) isolates S_n.  Every
    remainder is a plain dense sum, one centre at a time.  f must accept
    arrays."""
    pts, rho = lat.points, lat.rho_values
    idx = np.nonzero(lat.radii <= 0.5 * lat.truncation_radius)[0]
    d = f(pts) * np.exp(-phi(m.weight, pts)) / m.g_prime_weighted()
    omega = np.exp(2j * math.pi * np.arange(N) / N)
    samples = np.empty((N, len(idx)), dtype=complex)
    A = np.empty((N, len(idx)), dtype=complex)
    for k in range(N):
        zk = pts[idx] + delta * omega[k] * rho[idx]
        samples[k] = f(zk) * np.exp(-m.log_g(zk))
        for j, i in enumerate(idx):
            zeta = delta * omega[k] * rho[i]
            mask = np.arange(len(lat)) != i
            rem = np.sum(d[mask] * zeta ** N
                         / ((pts[mask] - pts[i]) ** N * (zk[j] - pts[mask])))
            A[k, j] = d[i] / zeta + rem - samples[k, j]
    recovered = {n: np.mean(A * omega[:, None] ** (-(n - 1)), axis=0)
                 / (delta * rho[idx]) ** (n - 1) for n in range(1, N + 1)}
    return Recovery(indices=idx, d=d, samples=samples, recovered=recovered)
