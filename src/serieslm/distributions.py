"""Reference distributions: standard normal and chi-square.

The normal quantile is Wichura's PPND16 rational approximation (Algorithm
AS 241), kept in-package because it defines the simulation DGP's normal
variates: ``scipy.special.ndtri`` agrees with it to ~1e-15 but is not bitwise
equal, so swapping it would move every Monte Carlo stream.  The normal upper
tail and the chi-square cdf, upper tail and quantile come from
``scipy.special``.
P-values use the upper-tail forms, which keep full relative accuracy far in
the tail, where ``1 - cdf`` cancels to zero.
"""

from __future__ import annotations

import numpy as np
import scipy.special

__all__ = [
    "normal_sf",
    "normal_quantile",
    "chisq_cdf",
    "chisq_sf",
    "chisq_quantile",
]

# AS 241 PPND16 coefficients (Wichura, 1988).
_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
    5.3941960214247511077e3, 2.1213794301586595867e4, 3.9307895800092710610e4,
    2.8729085735721942674e4, 5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0,
    5.76949722146069140550e0, 3.64784832476320460504e0,
    1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
    6.89767334985100004550e-1, 1.48103976427480074590e-1,
    1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0,
    1.78482653991729133580e0, 2.96560571828504891230e-1,
    2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
    1.48753612908506148525e-2, 7.86869131145613259100e-4,
    1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, r):
    out = np.full_like(r, coeffs[-1], dtype=float)
    for c in reversed(coeffs[:-1]):
        out = out * r + c
    return out


def normal_quantile(p):
    """Inverse standard normal cdf for p in (0, 1); scalar or array."""
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal_quantile requires 0 < p < 1")
    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _poly(_A, r) / _poly(_B, r)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        r = np.where(qt < 0.0, arr[tail], 1.0 - arr[tail])
        r = np.sqrt(-np.log(r))
        near = r <= 5.0
        vals = np.empty_like(r)
        if np.any(near):
            rn = r[near] - 1.6
            vals[near] = _poly(_C, rn) / _poly(_D, rn)
        if np.any(~near):
            rf = r[~near] - 5.0
            vals[~near] = _poly(_E, rf) / _poly(_F, rf)
        out[tail] = np.sign(qt) * vals

    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def normal_sf(x):
    """Standard normal upper tail 1 - cdf, without cancellation; scalar or array."""
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)):
        raise ValueError("normal_sf requires finite x")
    return _scalar_or_array(scipy.special.ndtr(-arr))


def _chisq_args(x, df, what):
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError(f"{what} requires finite x >= 0")
    return arr


def chisq_cdf(x, df):
    """Chi-square cdf with df >= 1 degrees of freedom; scalar or array x."""
    return _scalar_or_array(scipy.special.chdtr(df, _chisq_args(x, df, "chisq_cdf")))


def chisq_sf(x, df):
    """Chi-square upper tail 1 - cdf, without cancellation; scalar or array x."""
    return _scalar_or_array(scipy.special.chdtrc(df, _chisq_args(x, df, "chisq_sf")))


def chisq_quantile(p: float, df) -> float:
    """Inverse chi-square cdf for 0 < p < 1 and df >= 1."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError("chisq_quantile requires 0 < p < 1")
    # chdtri inverts the upper tail
    return float(scipy.special.chdtri(df, 1.0 - p))
