"""Numerical kernels: packed Sellmeier evaluation and the HOM curve.

``index_n`` and ``index_dn_dlam`` are numpy expressions that take a scalar
or an array of wavelengths and return a value of the same shape; array and
elementwise scalar calls agree bit for bit. ``homi_curve`` and ``homi_jac``
loop over the delays.

Refractive index sets arrive as a packed coefficient vector (float64[13])::

    [form, a1, a2, a3, a4, a5, a6, b1, b2, b3, b4, t0, t1]

form codes: 0 = constant n, 1 = linear n(lam), 2 = quadratic n(lam),
3 = temperature-dependent two-pole Sellmeier

    n^2 = a1 + b1*f + (a2 + b2*f)/(lam^2 - (a3 + b3*f)^2)
             + (a4 + b4*f)/(lam^2 - a5^2) - a6*lam^2,
    f = (T - t0)*(T + t1),   lam in um, T in deg C.
"""
import numpy as np

FORM_CONSTANT = 0
FORM_LINEAR = 1
FORM_QUADRATIC = 2
FORM_SELLMEIER_T = 3


def index_n(lam_um, t_c, pack):
    """n(lam, T) for a scalar or array ``lam_um``."""
    form = int(pack[0])
    if form == FORM_CONSTANT:
        return np.full(np.shape(lam_um), pack[1])[()]
    if form == FORM_LINEAR:
        return pack[1] + pack[2] * lam_um
    if form == FORM_QUADRATIC:
        d = lam_um - pack[3]
        return pack[1] + pack[2] * d * d
    f = (t_c - pack[11]) * (t_c + pack[12])
    lam2 = lam_um * lam_um
    pole1 = pack[3] + pack[9] * f
    n2 = (pack[1] + pack[7] * f
          + (pack[2] + pack[8] * f) / (lam2 - pole1 * pole1)
          + (pack[4] + pack[10] * f) / (lam2 - pack[5] * pack[5])
          - pack[6] * lam2)
    return np.sqrt(n2)


def index_dn_dlam(lam_um, t_c, pack):
    """Analytic d n / d lam (per um) for a scalar or array ``lam_um``."""
    form = int(pack[0])
    if form == FORM_CONSTANT:
        return np.zeros(np.shape(lam_um))[()]
    if form == FORM_LINEAR:
        return np.full(np.shape(lam_um), pack[2])[()]
    if form == FORM_QUADRATIC:
        return 2.0 * pack[2] * (lam_um - pack[3])
    f = (t_c - pack[11]) * (t_c + pack[12])
    lam2 = lam_um * lam_um
    pole1 = pack[3] + pack[9] * f
    den1 = lam2 - pole1 * pole1
    den2 = lam2 - pack[5] * pack[5]
    dn2 = (-2.0 * lam_um * (pack[2] + pack[8] * f) / (den1 * den1)
           - 2.0 * lam_um * (pack[4] + pack[10] * f) / (den2 * den2)
           - 2.0 * pack[6] * lam_um)
    n2 = (pack[1] + pack[7] * f + (pack[2] + pack[8] * f) / den1
          + (pack[4] + pack[10] * f) / den2 - pack[6] * lam2)
    return dn2 / (2.0 * np.sqrt(n2))


def homi_curve(tau, n_rate, vis, dw, tau_c, tau0):
    """Coincidence rate vs delay: beat under a triangular envelope.

    I(tau) = (N/2) * (1 - V*cos(dw*u)*(1 - |u|/tau_c)) for |u| <= tau_c,
    N/2 outside, with u = tau - tau0.
    """
    out = np.empty(tau.shape[0])
    for i in range(tau.shape[0]):
        u = tau[i] - tau0
        au = abs(u)
        if au <= tau_c:
            env = 1.0 - au / tau_c
            out[i] = 0.5 * n_rate * (1.0 - vis * np.cos(dw * u) * env)
        else:
            out[i] = 0.5 * n_rate
    return out


def homi_jac(tau, n_rate, vis, dw, tau_c, tau0):
    """d I / d (N, V, dw, tau_c, tau0); (npts, 5). Kinks use inner-branch slopes."""
    m = tau.shape[0]
    jac = np.zeros((m, 5))
    for i in range(m):
        u = tau[i] - tau0
        au = abs(u)
        if au <= tau_c:
            c = np.cos(dw * u)
            s = np.sin(dw * u)
            env = 1.0 - au / tau_c
            sgn = 0.0
            if u > 0.0:
                sgn = 1.0
            elif u < 0.0:
                sgn = -1.0
            jac[i, 0] = 0.5 * (1.0 - vis * c * env)
            jac[i, 1] = -0.5 * n_rate * c * env
            jac[i, 2] = 0.5 * n_rate * vis * u * s * env
            jac[i, 3] = -0.5 * n_rate * vis * c * au / (tau_c * tau_c)
            jac[i, 4] = -0.5 * n_rate * vis * (dw * s * env
                                               + c * sgn / tau_c)
        else:
            jac[i, 0] = 0.5
    return jac
