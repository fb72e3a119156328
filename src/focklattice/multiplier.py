"""The Weierstrass sigma function of the critical square lattice, and
wrappers for user-supplied multiplier data.

On Lambda = s(Z + iZ) with s = sqrt(pi/2) the Legendre relation gives
eta_1 / (2 omega_1) = 1, and sigma has the closed form (DLMF 20.2, 23.6(i))

    sigma(z) = (s/pi) e^{z^2} theta_1(pi z/s, q) / theta_1'(0, q),  q = e^{-pi},

with the quasi-periodicity, for lambda = s(m + in),

    sigma(z + lambda) = (-1)^{m+n+mn} e^{2 conj(lambda) z + |lambda|^2} sigma(z).

Every evaluation rounds z to its nearest lattice point lambda and evaluates
theta_1 at z0 = z - lambda, inside the fundamental cell |Re z0|, |Im z0| <=
s/2.  There theta_1(v)/v is the sinc series

    sum_{n=0..3} 2 (-1)^n q^{(n+1/2)^2} (2n+1) sinc((2n+1) v),

which is regular at v = 0; the fifth term is below 1e-21.  So

    log sigma(z)         = log z0 + log(sigma(z0)/z0) + 2 conj(lambda) z0
                           + |lambda|^2 + i pi ((m+n+mn) mod 2),
    |sigma(z)| e^{-|z|^2} = |z0| exp(Re log(sigma(z0)/z0) - |z0|^2),
    sigma'(lambda) e^{-|lambda|^2} = (-1)^{m+n+mn}   exactly.

Weighted quantities are O(1) at any radius; raw values overflow doubles
once |z|^2 exceeds ~700, so large-|z| work stays in weighted or log form.

A multiplier holds no weight of its own: weighting is by the weight of its
lattice, `lattice.weight`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import NumericalError, SchemaError
from .lattice import SQUARE_SCALE, Lattice, grid_coords, scatter_indexed
from .weights import WeightProfile, phi

__all__ = ["Multiplier", "sigma_log", "sigma_weighted_mag",
           "builtin_sigma_multiplier", "user_multiplier"]

_S = SQUARE_SCALE
_Q = math.exp(-math.pi)
# theta_1(v) / (v theta_1'(0)) = sum_k c_k np.sinc(k v/pi) over k = 2n+1, with
# np.sinc(x) = sin(pi x)/(pi x); normalised to 1 at v = 0
_THETA_K = np.array([1.0, 3.0, 5.0, 7.0])
_THETA_C = np.array([(-1) ** n * _Q ** ((n + 0.5) ** 2) * (2 * n + 1)
                     for n in range(4)])
_THETA_C = _THETA_C / _THETA_C.sum()

_ON_LATTICE_RTOL = 1e-8


def _nearest(z: np.ndarray):
    """Split z = z0 + lambda at the nearest lambda = s(m+in); returns z0,
    lambda, |lambda|^2 and the parity (m + n + mn) mod 2."""
    m, n = grid_coords(z, _S)
    lam = _S * (m + 1j * n)
    return z - lam, lam, 0.5 * math.pi * (m * m + n * n), (m + n + m * n) % 2


def _log_ratio(z0: np.ndarray) -> np.ndarray:
    """log(sigma(z0)/z0) for z0 in the fundamental cell; regular at 0."""
    t = np.sinc(np.multiply.outer(z0 / _S, _THETA_K)) @ _THETA_C
    return z0 * z0 + np.log(t)


def _require_sigma_lattice(lat: Lattice):
    if lat.kind != "square":
        raise SchemaError("builtin sigma requires the square critical lattice")
    if not lat.weight.is_classical_like:
        raise SchemaError("builtin sigma is tied to the classical weight")


def sigma_log(lat: Lattice, z):
    """log sigma(z) for z off the lattice by 1e-8*scale (NumericalError
    otherwise).  Only exp and Re are consumed downstream, so the branch of
    the imaginary part is immaterial."""
    _require_sigma_lattice(lat)
    z0, lam, abs2, parity = _nearest(np.asarray(z, dtype=complex))
    if np.any(np.abs(z0) <= _ON_LATTICE_RTOL * _S):
        raise NumericalError("evaluation point lies on (or too near) the lattice")
    val = (np.log(z0) + _log_ratio(z0) + 2.0 * np.conj(lam) * z0
           + abs2 + 1j * math.pi * parity)
    return complex(val) if np.ndim(z) == 0 else val


def sigma_weighted_mag(lat: Lattice, z):
    """|sigma(z)| e^{-|z|^2}, exactly 0 within 1e-8*scale of the lattice."""
    _require_sigma_lattice(lat)
    zarr = np.asarray(z, dtype=complex)
    z0 = _nearest(zarr)[0]
    a = np.abs(z0)
    out = np.where(a <= _ON_LATTICE_RTOL * _S, 0.0,
                   a * np.exp(_log_ratio(z0).real - a * a))
    return float(out) if zarr.ndim == 0 else out


class Multiplier:
    """Evaluator bundle for a multiplier g with zero set = the lattice.

    g' values are held in weighted form g'(lambda) e^{-phi(lambda)}, phi the
    lattice's weight (O(1/rho) sized); raw values are exposed but overflow
    once phi(lambda) > ~700.  log_g is available for the builtin sigma only;
    user tables support the trace-side operations, which consume g only
    through g'(lambda).
    """

    def __init__(self, lattice: Lattice, source: str, _gw: np.ndarray,
                 g_double_prime0: Optional[complex] = None):
        self.lattice = lattice
        self.source = source                     # "builtin_sigma" | "user_table"
        self._gw = _gw                           # weighted g' per index
        self.g_double_prime0 = g_double_prime0

    @property
    def weight(self) -> WeightProfile:
        return self.lattice.weight

    # -- g'(lambda) ---------------------------------------------------------

    def g_prime_weighted(self, indices=None) -> np.ndarray:
        """g'(lambda) e^{-phi(lambda)} at the indices (all by default)."""
        if indices is None:
            return self._gw.copy()
        return self._gw[np.asarray(indices, dtype=int)]

    def g_prime(self, index: int) -> complex:
        """Raw g'(lambda); valid while phi(lambda) fits in a double."""
        gw = self._gw[index]
        return complex(gw * np.exp(phi(self.weight, self.lattice.points[index])))

    # -- g(z) ----------------------------------------------------------------

    def _require_builtin(self):
        if self.source != "builtin_sigma":
            raise NumericalError("user-table multiplier carries no log_g")

    def log_g(self, z) -> np.ndarray:
        self._require_builtin()
        return sigma_log(self.lattice, z)

    def log_g_deflated(self, z, index) -> np.ndarray:
        """log of g(z)/(z - lambda_index), stable arbitrarily close to the
        deflated lattice point (index: one index, or one per z): with
        w = z - lambda_k,
        2 conj(lambda_k) w + |lambda_k|^2 + i pi parity_k + log(sigma(w)/w)."""
        self._require_builtin()
        _, lam, abs2, parity = _nearest(np.asarray(self.lattice.points[index]))
        w = np.asarray(z, dtype=complex) - lam
        w0, mu, mu2, mu_par = _nearest(w)
        # log(sigma(w)/w) through w0 = w - mu; w0/w is 1 when mu = 0
        shift = np.log(np.divide(w0, w, out=np.ones_like(w), where=w0 != w))
        log_ratio = (shift + _log_ratio(w0) + 2.0 * np.conj(mu) * w0 + mu2
                     + 1j * math.pi * mu_par)
        return 2.0 * np.conj(lam) * w + abs2 + 1j * math.pi * parity + log_ratio


def builtin_sigma_multiplier(lat: Lattice) -> Multiplier:
    """Multiplier backed by the built-in sigma of the critical square
    lattice under the classical weight; its weighted derivatives are the
    signs (-1)^{m+n+mn}."""
    _require_sigma_lattice(lat)
    parity = _nearest(lat.points)[3]
    return Multiplier(lattice=lat, source="builtin_sigma",
                      _gw=(1.0 - 2.0 * parity).astype(complex),
                      g_double_prime0=0.0)


def user_multiplier(lat: Lattice, g_prime_table,
                    g_double_prime0: Optional[complex] = None,
                    weighted: bool = False, indices=None) -> Multiplier:
    """Wrap externally supplied multiplier data.

    g_prime_table gives g'(lambda) for every lattice index (raw, or already
    multiplied by e^{-phi}, phi the lattice's weight, when weighted=True):
    the values in index order, or the values at `indices`, where a repeated
    index keeps its last value (`scatter_indexed`).  Out-of-range, missing
    and zero entries are rejected.
    """
    values = np.asarray(g_prime_table, dtype=complex)
    if indices is None:
        indices = np.arange(len(values))
    vals, seen = scatter_indexed(len(lat), indices, values, "g' table")
    if not seen.all():
        raise SchemaError(f"g' table misses {int((~seen).sum())} lattice indices")
    if np.any(vals == 0.0):
        raise SchemaError("g' table contains zero entries (zeros must be simple)")
    if not weighted:
        vals = vals * np.exp(-phi(lat.weight, lat.points))
    return Multiplier(lattice=lat, source="user_table", _gw=vals,
                      g_double_prime0=g_double_prime0)
