"""Reference implementations that the tests check program code against.

Each is the plain dense form of what the program computes another way:

* `dense_section`: the weighted matrix of an operator section, which the
  program applies matrix-free by FFT convolution of index-order vectors
  on the square lattice's own grid (`transforms._FftSection`,
  `Lattice.grid`);
* `levin_recovery`: Levin's recovery of the order-n transforms from samples
  of f/g at perturbed points, which the program computes as p.v. sums
  (`transforms.batch_higher`);
* `shell_batch`: the batch transforms by a compensated (Kahan) pass over
  every shell of whole term rows, with its own window test, where the
  program takes the total less the outer shells
  (`transforms._tail_partials`);
* `rho_bisection`: rho as the root of mu(D(z, r)) = 1 by bisection on
  the disc masses, which the program reads from a spline table
  (`weights.rho_many`);
* `density_at`: the counting density at given lattice points, one disc
  at a time, which the program forms for its own centres in one batch
  (`lattice.upper_density`);
* `richardson_w0`: the free parameter w0 = f'(0)/g'(0) of a p = inf
  interpolant, from a Richardson-extrapolated central difference, which
  the program takes for the Gaussian in closed form (acceptance
  criterion 9).

Two more are closed forms of whole-lattice quantities on the classical
weight's lattice s(Z + iZ), s = sqrt(pi/2):

* `b_norm_closed_form`: the l^2 norm of the whole-lattice B, the sup of
  its symbol, which bounds every section the program probes
  (`transforms.operator_norm_estimate`), and `b_symbol`, that symbol at
  any frequency, row-summed by partial fractions;
* `gaussian_higher` and `gaussian_modified_inf`: the order-n and the
  modified p = inf transforms of the Gaussian trace, from the Laurent
  expansion of f/g, which the program sums over the lattice
  (`transforms.batch_higher`, `transforms.batch_modified_inf`).

None of them shares computing code with the program; they take from it
only their inputs (the lattice, its shells and rho values, the multiplier,
phi and the disc masses) and the window test's constants.

(Not named oracle.py: perfbench's module of that name shares sys.path.)
"""

import math
from typing import NamedTuple

import numpy as np

from focklattice import mu_disc_many, phi, shells_for
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
    d = f(pts) * np.exp(-phi(m.weight, pts)) / m.g_prime_weighted(np.arange(len(lat)))
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


def rho_bisection(w, z):
    """rho at the points z: the root in r of mu_disc_many(w, z, r) = 1, by
    bisection in log r to 1e-13 relative, over a bracket found from the
    weight alone.

    rho is 1-Lipschitz, as D(0, rho(0)) lies in D(z, rho(0) + |z|), so
    rho(0) + |z| bounds it from above.  The lower end starts at rho(0)
    and halves while mu there is at least 1, the upper end taking each
    value it leaves."""
    a = np.abs(np.asarray(z, dtype=complex)).ravel()
    lo, hi = np.full(a.shape, w.rho_origin), w.rho_origin + a
    over = np.ones(a.shape, dtype=bool)
    while over.any():
        over[over] = mu_disc_many(w, a[over], lo[over]) >= 1.0
        hi[over], lo[over] = lo[over], 0.5 * lo[over]
    while np.max(np.log(hi / lo)) > 1e-13:
        mid = lo * np.sqrt(hi / lo)
        below = mu_disc_many(w, a, mid) < 1.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return (lo * np.sqrt(hi / lo)).reshape(np.shape(z))


def density_at(lat, r, idx):
    """The largest #(points on the closed disc D(c, r rho(c))) /
    mu(D(c, r rho(c))) over the centres c = points[idx], one count and
    one `mu_disc_many` call per disc."""
    best = 0.0
    for c, rc in zip(lat.points[idx], lat.rho_values[idx]):
        rad = r * rc
        count = int(np.sum(np.abs(lat.points - c) <= rad + 1e-12))
        best = max(best, count / float(mu_disc_many(lat.weight, c, rad)))
    return best


def richardson_w0(f, m):
    """w0 = f'(0)/g'(0) - g''(0)/(2 g'(0)) for the builtin sigma m, whose
    oddness makes g''(0) = 0.  f'(0) is the Richardson extrapolation of
    central differences, at the steps h and h/2, h = 1e-5 rho(0); the two
    must agree to 1e-5 relative."""
    h = 1e-5 * float(m.lattice.rho_values[0])

    def central(hh):
        return (complex(f(hh)) - complex(f(-hh))) / (2.0 * hh)

    def richardson(hh):
        return (4.0 * central(hh / 2.0) - central(hh)) / 3.0

    r1, r2 = richardson(h), richardson(h / 2.0)
    assert abs(r1 - r2) <= 1e-5 * max(abs(r1), abs(r2), 1e-12), "unstable derivative"
    g0 = m.g_prime_weighted([0])[0] * np.exp(phi(m.weight, m.lattice.points[0]))
    return r2 / g0


def b_norm_closed_form() -> float:
    """||B||_2 on the whole classical lattice, the sup of the symbol
    S(xi) = rho^2 sum' e^(i xi.lambda)/lambda^2, reached at xi = (pi/s, 0)
    and (0, pi/s): summed row by row there, by the partial fractions
    sum_m (-1)^m/(m + z)^2 = pi^2 cos(pi z)/sin^2(pi z), the rows n != 0
    give -pi^2 cosh(pi n)/sinh^2(pi n) and the row n = 0 gives
    -2 eta(2) = -pi^2/6, so

        ||B||_2 = (rho^2/s^2) (pi^2/6 + 2 pi^2 sum_{n >= 1} cosh(pi n)/sinh^2(pi n))

    with rho = (4 pi)^(-1/2), in mpmath at 30 digits: 0.1741504912."""
    import mpmath
    with mpmath.workdps(30):
        pi = mpmath.pi
        rows = mpmath.nsum(lambda n: mpmath.cosh(pi * n) / mpmath.sinh(pi * n) ** 2,
                           [1, mpmath.inf])
        rho2, s2 = 1 / (4 * pi), pi / 2
        return float(rho2 / s2 * (pi ** 2 / 6 + 2 * pi ** 2 * rows))


def b_symbol(a, b) -> np.ndarray:
    """The symbol S(xi) = rho^2 sum' e^(i xi.lambda)/lambda^2 of the
    whole-lattice B on the classical lattice s(Z + iZ), s = sqrt(pi/2),
    rho = (4 pi)^(-1/2), at the phases (a, b) = s xi (arrays, not both 0
    mod 2 pi).  The sum runs row by row: with t = a/(2 pi) mod 1, row 0 is
    2 sum_{m >= 1} cos(2 pi t m)/m^2 = pi^2/3 - pi x + x^2/2, x = 2 pi t,
    and row n != 0 is e^(ibn) F_n, where the partial fractions
    sum_m e^(2 pi i m t)/(m + z) = pi e^(i pi z (1 - 2t))/sin(pi z),
    differentiated in z at z = in, give, with c = sign(n) (1 - 2t) and
    u = e^(-2 pi |n|),

        F_n = -2 pi^2 e^(-pi |n| (1 + c)) ((1 + u)/(1 - u)^2 + c/(1 - u)).

    Row n decays like e^(-2 pi |n| min(t, 1 - t)), so where b lies farther
    from 0 mod 2 pi than a the sum runs by columns instead: S(a, b) =
    -S(b, -a), by lambda -> i lambda."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    dist = lambda x: np.abs((x + math.pi) % (2.0 * math.pi) - math.pi)
    swap = dist(b) > dist(a)
    a, b, sign = np.where(swap, b, a), np.where(swap, -a, b), np.where(swap, -1.0, 1.0)
    t = (a / (2.0 * math.pi)) % 1.0
    x = 2.0 * math.pi * t
    total = math.pi ** 2 / 3.0 - math.pi * x + x ** 2 / 2.0
    # the rows beyond k hold less than e^(-k dist(a)) < 1e-18
    k = np.arange(1, int(42.0 / max(dist(a).min(), 1e-3)) + 2)
    u = np.exp(-2.0 * math.pi * k)
    for sgn in (1.0, -1.0):
        c = sgn * (1.0 - 2.0 * t[..., None])
        F = -2.0 * math.pi ** 2 * np.exp(-math.pi * k * (1.0 + c)) * (
            (1.0 + u) / (1.0 - u) ** 2 + c / (1.0 - u))
        total = total + np.sum(np.exp(1j * sgn * b[..., None] * k) * F, axis=-1)
    rho2, s2 = 1.0 / (4.0 * math.pi), math.pi / 2.0
    return sign * rho2 / s2 * total


def gaussian_higher(lat, d, idx, w, n):
    """S_n(lambda') = sum over lambda != lambda' of d_lambda/(lambda -
    lambda')^n, on the whole square lattice of `lat`, for the trace
    d = f/g' of f_w(z) = exp(2 conj(w) z - |w|^2), at lambda' =
    points[idx], n = 1..4.

    S_n is minus the coefficient of h^(n-1) in f/g at lambda' + h.  There
    f(lambda' + h) = f(lambda') e^(2 conj(w) h) and g(lambda' + h) = g'(lambda')
    e^(2 conj(lambda') h) sigma(h), sigma(h) = h - (g2/240) h^5 + ..., so
    f/g = d_lambda' e^(2uh) (1/h + (g2/240) h^3 + ...), u = conj(w - lambda'):
    S_n = -d_lambda' (2u)^n/n!, less d_lambda' g2/240 at n = 4."""
    if not 1 <= n <= 4:
        raise ValueError("the expansion is carried to n = 4")
    u = np.conj(w - lat.points[idx])
    out = -d[idx] * (2.0 * u) ** n / math.factorial(n)
    # g2 = 60 sum' lambda^-4, with sum' (m + in)^-4 = Gamma(1/4)^8/(960 pi^2),
    # the lemniscatic case (DLMF 23.5(iii))
    g2 = math.gamma(0.25) ** 8 / (16.0 * math.pi ** 2 * lat.scale ** 4)
    return out - d[idx] * g2 / 240.0 if n == 4 else out


def gaussian_modified_inf(lat, d, idx, w):
    """-d_0/lambda' + sum over lambda not in {0, lambda'} of d_lambda
    (1/(lambda - lambda') - 1/lambda), on the whole lattice, for the trace
    of `gaussian_higher`, at the nonzero lambda' = points[idx]: it is
    S_1(lambda') - S_1(0) + d_lambda'/lambda', that is -2 d_lambda' u +
    2 d_0 conj(w) + d_lambda'/lambda'.  The lattice lists the origin
    first."""
    lam = lat.points[idx]
    return -2.0 * d[idx] * np.conj(w - lam) + 2.0 * d[0] * np.conj(w) + d[idx] / lam
