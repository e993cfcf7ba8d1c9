"""The beta distribution's CDF, numpy only.

``beta_cdf`` is the regularised incomplete beta function I_x(a, b), after
DiDonato & Morris, "Algorithm 708", ACM TOMS 18 (1992).  Where
min(a, b) < _QUAD_MIN, one tail is P / F or P / a * S and the other its
complement, with the prefactor P = x**a (1 - x)**b / B(a, b), F Boost's
form of their continued fraction BFRAC and S the series of DLMF 8.17.8.
Where both parameters are larger, the density is integrated around its
mode.  Against 50-digit references the absolute error stays below 1e-13
for a, b in [1e-3, 1e12]; scipy's betainc, the test oracle, is off by
up to 6e-11 where both parameters are near 1e12.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Relative size of the last term at which an expansion has converged.
_CDF_EPS = 1e-15
#: More terms than any input needs (at most about 190 for the continued
#: fraction and 30 for the series); reaching it is a fault, and raises.
_CDF_MAX_TERMS = 1000
#: min(a, b) from which quadrature replaces the continued fraction, whose
#: term count near the mean grows as sqrt(min(a, b)).
_QUAD_MIN = 1e4
#: Half-width of the quadrature interval in standard deviations; beyond
#: it lies less than 1e-20 of the mass where min(a, b) >= _QUAD_MIN.
_QUAD_SPAN = 10.0
#: log(6e-19): a tail that ``_log_tail_bound`` puts below it counts as 0.
_LOG_NEGLIGIBLE = -42.0
#: Stands in for a zero in the Lentz recurrences.
_TINY = 1e-300


def beta_cdf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """I_x(a, b) elementwise, for 1-D arrays of a, b > 0 and x in [0, 1].

    Exactly 0 at x = 0 and 1 at x = 1.  Raises ArithmeticError if an
    expansion has not converged in _CDF_MAX_TERMS terms.
    """
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    out = np.where(x >= 1.0, 1.0, 0.0)
    inner = (x > 0.0) & (x < 1.0)
    quad = inner & (np.minimum(a, b) >= _QUAD_MIN)
    expand = inner & ~quad
    if np.count_nonzero(quad):
        out[quad] = _beta_cdf_quadrature(a[quad], b[quad], x[quad])
    if np.count_nonzero(expand):
        out[expand] = _beta_cdf_expansion(a[expand], b[expand], x[expand])
    return out


def _beta_cdf_expansion(a: np.ndarray, b: np.ndarray, x: np.ndarray
                        ) -> np.ndarray:
    """I_x(a, b) for min(a, b) < _QUAD_MIN, from P and F or S.

    Let p be the smaller parameter and xi its variable (x for a, 1 - x
    for b).  Where p < 1 and xi lies in the far corner (xi <= 0.1 and
    q xi <= 3), S runs on xi's lower tail: there F needs up to 4e4 terms
    and S at most 30.  Elsewhere F runs on the tail below the mean
    a / (a + b), and is skipped where a bound on that tail is below 6e-19.
    """
    y = 1.0 - x
    log_p = _log_prefactor(a, b, x)
    swap = b < a
    xi = np.where(swap, y, x)
    series = ((np.minimum(a, b) < 1.0) & (xi <= 0.1)
              & (np.maximum(a, b) * xi <= 3.0))
    # The evaluated tail is I_ex(ea, eb); the upper one is 1 - I_x(a, b).
    upper = np.where(series, swap, a * y < b * x)
    ea, eb = np.where(upper, b, a), np.where(upper, a, b)
    ex, ey = np.where(upper, y, x), np.where(upper, x, y)
    tail = np.zeros_like(x)
    if np.count_nonzero(series):
        ones = np.ones(np.count_nonzero(series))
        tail[series] = np.exp(log_p[series]) / ea[series] * _converge(
            _series_step, (ones, ones), (ea[series], eb[series], ex[series]))
    cf = ~series & (_log_tail_bound(log_p, ea, eb) > _LOG_NEGLIGIBLE)
    if np.count_nonzero(cf):
        ca, cb, cx, cy = ea[cf], eb[cf], ex[cf], ey[cf]
        f0 = ca * (ca * cy - cb * cx + 1.0) / (ca + 1.0)
        tail[cf] = np.exp(log_p[cf]) / _converge(
            _cf_step, (f0, f0, np.zeros_like(f0)), (ca, cb, cx, cy))
    return np.where(upper, 1.0 - tail, tail)


def _log_tail_bound(log_p: np.ndarray, a: np.ndarray, b: np.ndarray
                    ) -> np.ndarray:
    """log of a bound on I_x(a, b) for x at or below the mean: the terms of
    S fall at least geometrically there, so S <= max(a + 1, (a + b) / b)."""
    return log_p - np.log(a) + np.log(np.maximum(a + 1.0, (a + b) / b))


def _log_prefactor(a: np.ndarray, b: np.ndarray, x: np.ndarray
                   ) -> np.ndarray:
    """log(x**a (1 - x)**b / B(a, b)) for x in (0, 1).

    With p <= q the parameters and xi p's variable: where p >= 10 by
    ``_log_prefactor_stirling``; else lgamma(p), and lgamma(q) and
    lgamma(p + q) for q < 10, come from ``math.lgamma``, and
    lgamma(q) - lgamma(p + q) for q >= 10 from ``_lgamma_ratio``.
    """
    swap = b < a
    p, q = np.where(swap, b, a), np.where(swap, a, b)
    out = np.empty_like(x)
    big = p >= 10.0
    if np.count_nonzero(big):
        out[big] = _log_prefactor_stirling(
            p[big], q[big], np.where(swap[big], 1.0 - x[big], x[big]))
    small = ~big
    if np.count_nonzero(small):
        ps, qs, xs, sw = p[small], q[small], x[small], swap[small]
        lx, ly = np.log(xs), np.log1p(-xs)
        ratio = np.empty_like(ps)
        hi = qs >= 10.0
        ratio[hi] = _lgamma_ratio(ps[hi], qs[hi])
        ratio[~hi] = _lgamma(qs[~hi]) - _lgamma(ps[~hi] + qs[~hi])
        out[small] = (ps * np.where(sw, ly, lx) + qs * np.where(sw, lx, ly)
                      - _lgamma(ps) - ratio)
    return out


def _log_prefactor_stirling(p: np.ndarray, q: np.ndarray, xi: np.ndarray
                            ) -> np.ndarray:
    """log(xi**p (1 - xi)**q / B(p, q)) for 10 <= p <= q.

    Stirling's series for the three log-gammas leaves p log(xi / xi0)
    + q log((1 - xi) / (1 - xi0)) + log(p q / (2 pi (p + q))) / 2 and the
    series' tails, with xi0 = p / (p + q): no large terms cancel.  xi0 is
    formed from p, the smaller side, as its rounding then shifts it least
    relative to itself; xi is exact where it lies near xi0.
    """
    xi0 = p / (p + q)
    d = xi - xi0
    return (p * np.log1p(d / xi0) + q * np.log1p(-d / (1.0 - xi0))
            + 0.5 * np.log(p * q / ((p + q) * 2.0 * np.pi))
            - _stirling_tail(p) - _stirling_tail(q) + _stirling_tail(p + q))


def _lgamma_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """lgamma(q) - lgamma(p + q) for q >= 10 by Stirling's series, with
    no large terms to cancel."""
    return (-(q - 0.5) * np.log1p(p / q) - p * np.log(p + q) + p
            + _stirling_tail(q) - _stirling_tail(p + q))


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) for z >= 10,
    where the series' next term is below 1e-15."""
    r = 1.0 / z
    r2 = r * r
    return r * (1 / 12 + r2 * (-1 / 360 + r2 * (1 / 1260 + r2 * (
        -1 / 1680 + r2 * (1 / 1188 + r2 * (-691 / 360360))))))


def _lgamma(z: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v) for v in z.tolist()])


def _cf_step(m: int, f: np.ndarray, c: np.ndarray, d: np.ndarray,
             a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Term m of F = b0 + a1 / (b1 + a2 / (b2 + ...)) by the modified
    Lentz method, with
    a_m = (a + m - 1)(a + b + m - 1) m (b - m) x^2 / (a + 2m - 1)^2,
    b_m = m + m (b - m) x / (a + 2m - 1)
          + (a + m)(a y - b x + 1 + m (2 - x)) / (a + 2m + 1)."""
    den = a + 2 * m - 1
    am = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x / (den * den)
    bm = (m + m * (b - m) * x / den
          + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (den + 2))
    d = bm + am * d
    d = 1.0 / (d + (d == 0) * _TINY)
    c = bm + am / c
    c = c + (c == 0) * _TINY
    delta = c * d
    return (f * delta, c, d), np.abs(delta - 1.0) < _CDF_EPS


def _series_step(n: int, s: np.ndarray, term: np.ndarray, p: np.ndarray,
                 q: np.ndarray, xi: np.ndarray):
    """Term n of S = sum_n (p + q)_n / (p + 1)_n xi^n, whose terms are
    all positive."""
    term = term * (p + q + n - 1) * xi / (p + n)
    return (s + term, term), term < _CDF_EPS * s


def _converge(step, state: tuple, params: tuple) -> np.ndarray:
    """``state[0]`` per record once ``state, done = step(m, *state,
    *params)`` for m = 1, 2, ... reports it done; only the records not
    done keep iterating.  Raises ArithmeticError after _CDF_MAX_TERMS."""
    out = np.empty(state[0].size)
    idx = np.arange(out.size)
    for m in range(1, _CDF_MAX_TERMS + 1):
        state, done = step(m, *state, *params)
        if np.count_nonzero(done):
            out[idx[done]] = state[0][done]
            keep = ~done
            if not np.count_nonzero(keep):
                return out
            idx = idx[keep]
            state = tuple(v[keep] for v in state)
            params = tuple(v[keep] for v in params)
    raise ArithmeticError(
        f"beta CDF did not converge in {_CDF_MAX_TERMS} terms")


def _beta_cdf_quadrature(a: np.ndarray, b: np.ndarray, x: np.ndarray
                         ) -> np.ndarray:
    """I_x(a, b) for min(a, b) >= _QUAD_MIN, by ``_quadrature``."""
    dx, half, mode, mode_b = _mode_offset(a, b, x)
    out = np.where(dx > 0.0, 1.0, 0.0)
    inner = np.abs(dx) < half
    if np.count_nonzero(inner):
        out[inner] = _quadrature(*(v[inner] for v in (
            a - 1.0, b - 1.0, mode, mode_b, dx, half)))
    return out


def _mode_offset(a: np.ndarray, b: np.ndarray, x: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """x - m, _QUAD_SPAN standard deviations, m and 1 - m, for the mode
    m = (a - 1)/(a + b - 2) with a, b > 1.

    One ulp of m would move I_x(a, b) by up to 1e-10 where a + b = 2e12,
    so x - m is formed from m to twice double precision, and 1 - m as
    (b - 1)/(a + b - 2).
    """
    s = a + b
    bv = s - a
    s_err = (a - (s - bv)) + (b - bv)   # a + b = s + s_err exactly
    den = s - 2.0                       # exact for s <= 2**53
    mode = (a - 1.0) / den
    prod = mode * den
    # a - 1 - mode (a + b - 2), in which a - 1 - prod is exact
    rem = (a - 1.0 - prod) - _two_product_error(mode, den, prod) - mode * s_err
    half = _QUAD_SPAN * np.sqrt(a * b / (s * s * (s + 1.0)))
    return (x - mode) - rem / den, half, mode, (b - 1.0) / den


def _quadrature(a1: np.ndarray, b1: np.ndarray, mode: np.ndarray,
                mode_b: np.ndarray, dx: np.ndarray, half: np.ndarray
                ) -> np.ndarray:
    """I_x(a, b) from ``_mode_offset``'s dx = x - m, |dx| < half, with
    a1 = a - 1 and b1 = b - 1, by Gauss-Legendre quadrature.

    At offset d from the mode the density over its value there is
    exp(a1 log1pmx(d / m) + b1 log1pmx(-d / (1 - m))), with
    log1pmx(u) = log(1 + u) - u: the linear terms cancel exactly at the
    mode, so no large logarithms cancel.  I_x(a, b) is its integral over
    [-half, dx] divided by that over [-half, half].
    """
    a1, b1, mode, mode_b = (v[:, None, None] for v in (a1, b1, mode, mode_b))
    lo = -half[:, None, None]
    hi = np.stack([dx, half], axis=-1)[..., None]
    nodes, weights = _gauss_legendre()
    d = (hi + lo) / 2 + (hi - lo) / 2 * nodes
    g = np.exp(a1 * _log1pmx(d / mode) + b1 * _log1pmx(-d / mode_b))
    area = (hi - lo)[..., 0] * (g @ weights)
    return area[:, 0] / area[:, 1]


def _log1pmx(u: np.ndarray) -> np.ndarray:
    """log(1 + u) - u for |u| <= 0.1, to full precision: with
    s = u / (2 + u), log(1 + u) = 2 (s + s^3/3 + s^5/5 + ...)."""
    s = u / (2.0 + u)
    s2 = s * s
    poly = 1.0 / 15.0
    for k in (13.0, 11.0, 9.0, 7.0, 5.0, 3.0):
        poly = 1.0 / k + s2 * poly
    return s * (2.0 * s2 * poly - u)


def _two_product_error(x: np.ndarray, y: np.ndarray, p: np.ndarray
                       ) -> np.ndarray:
    """x y - p exactly, for p = fl(x y) (Dekker's product)."""
    def split(v):
        t = 134217729.0 * v             # 2**27 + 1
        hi = t - (t - v)
        return hi, v - hi

    xh, xl = split(x)
    yh, yl = split(y)
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 64-point Gauss-Legendre quadrature on [-1, 1]
    (Golub-Welsch), which integrates the density over its 2 _QUAD_SPAN
    standard deviations to within 3e-15."""
    k = np.arange(1.0, 64.0)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2
