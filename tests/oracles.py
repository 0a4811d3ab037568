"""Independent computations that tests check the package against."""

import numpy as np


def lm_statistic_nr2(residuals, z_resid) -> float:
    """The LM statistic computed as n R^2 of 1 on the score columns Zt_i * r_i.

    An independent route (least squares instead of an explicit quadratic
    form); agrees with ``lmtest.lm_statistic`` under residual weights.
    """
    r = np.asarray(residuals, dtype=float).ravel()
    zt = np.asarray(z_resid, dtype=float)
    scores = zt * r[:, None]
    ones = np.ones(r.shape[0])
    coef, *_ = np.linalg.lstsq(scores, ones, rcond=None)
    return float(ones @ (scores @ coef))
