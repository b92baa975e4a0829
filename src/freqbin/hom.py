"""Hong-Ou-Mandel interference: forward model, noisy synthesis, fitting.

The coincidence rate for a nondegenerate frequency-bin pair beats at the bin
splitting under a triangular envelope:

    I(tau) = (N/2) * {1 - V cos(delta_omega * u) (1 - |u|/tau_c)},  |u| <= tau_c
           =  N/2                                                  otherwise,

with u = tau - tau_offset. ``homi_curve`` and ``homi_jac`` evaluate it and
its analytic Jacobian, looping over the delays. The fitter maximizes the
Poisson likelihood of the counts over all five parameters by damped Fisher
scoring (Levenberg-Marquardt), the noise model of ``mle_tomography`` too.
Its start needs no prior: a spectral peak, two moments and one linear solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispersion import _number
from .errors import FitConvergenceError

_PARAM_NAMES = ("N", "V", "delta_omega", "tau_c", "tau_offset")
_REL_STEP_TOL = 1e-8    # fit_homi's stop: largest step / parameter scale
_MAX_ITER = 200         # fit_homi's Levenberg-Marquardt iteration limit


@dataclass(frozen=True)
class HomParams:
    """Forward-model parameters. Rates in counts/unit-time, times in s,
    delta_omega in rad/s."""

    N: float
    V: float
    delta_omega: float
    tau_c: float
    tau_offset: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.V <= 1.0:
            raise ValueError("V must be in [0, 1]")
        for name in ("N", "delta_omega", "tau_c"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be > 0 and finite, not "
                                 f"{value:g}")

    def as_array(self):
        return np.array([self.N, self.V, self.delta_omega, self.tau_c,
                         self.tau_offset])


@dataclass(frozen=True)
class HomScan:
    """A sampled delay scan: delays [s], counts, and uncertainties that the
    fit does not read (by default the Poisson sqrt(max(count, 1)))."""

    delays: np.ndarray
    counts: np.ndarray
    uncertainties: np.ndarray | None = None
    acquisition: dict = field(default_factory=dict)

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        s = (np.sqrt(np.maximum(c, 1.0)) if self.uncertainties is None
             else np.asarray(self.uncertainties, dtype=float))
        if not (len(d) == len(c) == len(s)):
            raise ValueError("delays/counts/uncertainties length mismatch")
        for name, a in (("delays", d), ("counts", c), ("uncertainties", s)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        if np.any(np.diff(d) <= 0.0):
            raise ValueError("delays must be strictly increasing")
        if np.any(c < 0.0):
            raise ValueError("counts must be nonnegative")
        if np.any(s[c > 0] <= 0.0):
            raise ValueError("uncertainties must be positive where counts > 0")
        object.__setattr__(self, "delays", d)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "uncertainties", s)


@dataclass(frozen=True)
class HomFit:
    """Fit result: parameters, 5x5 covariance (the inverse Fisher
    information) and ``residual_norm``, the root of the Poisson deviance."""

    N: float
    V: float
    delta_omega: float
    tau_c: float
    tau_offset: float
    covariance: np.ndarray
    residual_norm: float
    n_iter: int
    flags: tuple = ()
    init: dict = field(default_factory=dict)

    @property
    def stderr(self) -> dict:
        se = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return dict(zip(_PARAM_NAMES, se))

    def params(self) -> HomParams:
        return HomParams(self.N, self.V, self.delta_omega, self.tau_c,
                         self.tau_offset)


def homi_curve(tau, n_rate, vis, dw, tau_c, tau0):
    """Coincidence rate vs delay: beat under a triangular envelope.

    I(tau) = (N/2) * (1 - V*cos(dw*u)*(1 - |u|/tau_c)) for |u| <= tau_c,
    N/2 outside, with u = tau - tau0.
    """
    out = np.full(tau.shape[0], 0.5 * n_rate)
    for i in range(tau.shape[0]):
        u = tau[i] - tau0
        au = abs(u)
        if au <= tau_c:
            env = 1.0 - au / tau_c
            out[i] = 0.5 * n_rate * (1.0 - vis * np.cos(dw * u) * env)
    return out


def homi_jac(tau, n_rate, vis, dw, tau_c, tau0):
    """d I / d (N, V, dw, tau_c, tau0); (npts, 5). Kinks use inner-branch slopes."""
    m = tau.shape[0]
    jac = np.zeros((m, 5))
    jac[:, 0] = 0.5
    for i in range(m):
        u = tau[i] - tau0
        au = abs(u)
        if au <= tau_c:
            c = np.cos(dw * u)
            s = np.sin(dw * u)
            env = 1.0 - au / tau_c
            sgn = 1.0 if u > 0.0 else -1.0 if u < 0.0 else 0.0
            jac[i, 0] = 0.5 * (1.0 - vis * c * env)
            jac[i, 1] = -0.5 * n_rate * c * env
            jac[i, 2] = 0.5 * n_rate * vis * u * s * env
            jac[i, 3] = -0.5 * n_rate * vis * c * au / (tau_c * tau_c)
            jac[i, 4] = -0.5 * n_rate * vis * (dw * s * env
                                               + c * sgn / tau_c)
    return jac


def homi_rate(params: HomParams, tau):
    """Coincidence rate at delay(s) tau [s]."""
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    out = homi_curve(t, params.N, params.V, params.delta_omega,
                     params.tau_c, params.tau_offset)
    return float(out[0]) if np.ndim(tau) == 0 else out


def synthesize_scan(params: HomParams, delays, pairs_per_point: float,
                    rng_seed: int) -> HomScan:
    """Poisson-sampled scan with baseline expectation ``pairs_per_point``.

    The expected count at each delay is pairs_per_point * I(tau)/(N/2), so
    far outside the envelope the mean is exactly pairs_per_point.
    """
    if not pairs_per_point > 0.0:
        raise ValueError("pairs_per_point must be > 0")
    rng = np.random.default_rng(rng_seed)
    mean = homi_rate(params, delays) / (0.5 * params.N) * pairs_per_point
    counts = rng.poisson(mean).astype(float)
    return HomScan(delays=delays, counts=counts,
                   acquisition={"pairs_per_point": float(pairs_per_point),
                                "rng_seed": int(rng_seed)})


def _initial_guess(d, c) -> dict:
    t = np.linspace(d[0], d[-1], len(d))
    spec = np.abs(np.fft.rfft(np.interp(t, d, c) - c.mean()))
    dw0 = 2.0 * np.pi * np.fft.rfftfreq(len(t), t[1] - t[0])[
        1 + np.argmax(spec[1:])]
    p = np.clip((c - c.mean()) ** 2 - np.maximum(c, 1.0), 0.0, None)
    if np.count_nonzero(p) < 2:
        raise FitConvergenceError("beat power above the Poisson noise at "
                                  "fewer than two delays: nothing to fit")
    centre = p @ d / p.sum()
    # a triangle of half-base tau_c has env^2 variance tau_c^2 / 10
    tau_c0 = np.sqrt(10.0 * (p @ (d - centre) ** 2) / p.sum())
    # counts = N/2 - (N V / 2) cos(dw0 u - phase) env(u - shift) is linear
    # in five coefficients to first order in the shift of the envelope
    u = d - centre
    env = np.clip(1.0 - np.abs(u) / tau_c0, 0.0, None)
    slope = np.sign(u) * (env > 0.0) / tau_c0   # d env(u - shift) / d shift
    cos, sin = np.cos(dw0 * u), np.sin(dw0 * u)
    basis = np.stack([np.ones_like(u), cos * env, sin * env, cos * slope,
                      sin * slope], axis=1)
    a0, a1, a2, b1, b2 = np.linalg.lstsq(basis, c)[0]
    # the fringe dip of that phase nearest the shifted envelope centre
    shift = (a1 * b1 + a2 * b2) / (a1 * a1 + a2 * a2)
    phase = np.arctan2(-a2, -a1)
    phase += 2.0 * np.pi * np.round((dw0 * shift - phase) / (2.0 * np.pi))
    return {"N": float(2.0 * a0), "V": float(np.hypot(a1, a2) / a0),
            "delta_omega": float(dw0), "tau_c": float(tau_c0),
            "tau_offset": float(centre + phase / dw0)}


def fit_homi(scan: HomScan, init: dict | None = None) -> HomFit:
    """Poisson maximum-likelihood fit of the five-parameter beat model.

    Levenberg-Marquardt with Fisher scoring minimizes the deviance
    D = 2 sum(mu - c + c log(c/mu)) of the counts c at the model means mu:
    a step solves with the gradient J^T (1 - c/mu) and the Fisher matrix
    J^T diag(1/mu) J, and a trial that puts mu at or below zero at a delay
    is rejected. Only the scan's delays and counts enter. The start:
    delta_omega is the spectral peak of the counts resampled onto a uniform
    delay grid, the envelope's centre and tau_c are moments of the beat
    power above the Poisson noise, and one linear fit gives N, V, the
    fringe phase and a first-order shift of that centre; tau_offset is the
    dip of that phase nearest the shifted centre. A dict ``init``
    overrides it entry by entry. The model is even in delta_omega and
    tau_c, so both are reported as magnitudes.

    Flags: ``V_clipped`` when V left [0, 1]; ``delta_omega_unidentifiable``
    and ``envelope_unidentifiable`` (tau_c and tau_offset) when V lies
    within two standard errors of 0 or below 0.02.

    Raises FitConvergenceError (carrying the last iterate) after
    ``_MAX_ITER`` iterations without convergence, when the start puts mu
    at or below zero or the Fisher information at the optimum is singular,
    and up front for a scan of no more points than parameters or with beat
    power above the noise at fewer than two delays; without an iterate,
    when an overflow or an invalid operation interrupts it (a start far
    off the scan's scale, such as N = 1e300).
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _fit_homi(scan, init)
    except FloatingPointError as exc:
        raise FitConvergenceError(
            f"the fit's arithmetic failed: {exc}") from exc


def _fit_homi(scan: HomScan, init: dict | None) -> HomFit:
    """``fit_homi`` with its floating-point errors raised."""
    if len(scan.delays) <= len(_PARAM_NAMES):
        raise FitConvergenceError(
            f"{len(scan.delays)} scan points cannot determine the "
            f"{len(_PARAM_NAMES)} model parameters; need at least "
            f"{len(_PARAM_NAMES) + 1}")
    d, c = scan.delays, scan.counts
    guess = _initial_guess(d, c)
    if init is not None:
        if not isinstance(init, dict):
            raise ValueError("'init' must be a dict of starting values, "
                             f"not {type(init).__name__}")
        unknown = set(init) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown init parameters: {sorted(unknown)}")
        guess.update({k: float(_number(v, f"'init' value of '{k}'"))
                      for k, v in init.items()})
    theta = np.array([guess[k] for k in _PARAM_NAMES])

    def at(th):   # the model's arguments at th, tau_c folded to |tau_c|
        return d, th[0], th[1], th[2], abs(th[3]), th[4]

    def deviance(mu):
        if not np.all(mu > 0.0):
            return np.inf
        # nonnegative term by term; the clip drops rounding at D ~ 0
        return max(2.0 * float(np.sum(mu - c) + c @ np.log(
            np.where(c > 0.0, c / mu, 1.0))), 0.0)

    mu = homi_curve(*at(theta))
    cost = deviance(mu)
    if cost == np.inf:
        raise FitConvergenceError(
            "the start puts the model rate at or below zero at a delay",
            last_iterate=dict(zip(_PARAM_NAMES, theta)), residual=np.inf)
    lam = 1e-3
    scale = np.maximum(np.abs(theta), [1.0, 0.1, 1e11, 1e-13, 1e-14])
    for it in range(1, _MAX_ITER + 1):
        j = homi_jac(*at(theta))
        g = j.T @ (1.0 - c / mu)
        h = j.T @ (j / mu[:, None])
        gained = 0.0   # kept when the step is negligible
        for _ in range(25):
            try:
                delta = np.linalg.solve(h + lam * np.diag(np.diag(h).clip(
                    min=1e-30)), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.max(np.abs(delta) / scale) < _REL_STEP_TOL:
                break
            mu_new = homi_curve(*at(theta + delta))
            new_cost = deviance(mu_new)
            gained = cost - new_cost
            if gained >= 0.0:
                theta, mu, cost = theta + delta, mu_new, new_cost
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 8.0
        # a (local) minimum: a negligible step or decrease (a flat valley,
        # as at V ~ 0, never settles the step), or damping exhausted
        if gained <= 1e-12 * max(cost, 1e-30):
            break

    theta[2:4] = np.abs(theta[2:4])
    last = {"last_iterate": dict(zip(_PARAM_NAMES, theta)),
            "residual": np.sqrt(cost)}
    if gained > 1e-12 * max(cost, 1e-30):
        raise FitConvergenceError(
            f"no convergence in {_MAX_ITER} iterations "
            f"(last rel step {np.max(np.abs(delta)/scale):.3g})", **last)

    flags = [] if 0.0 <= theta[1] <= 1.0 else ["V_clipped"]
    theta[1] = min(max(theta[1], 0.0), 1.0)

    j = homi_jac(*at(theta))
    try:
        cov = np.linalg.inv(j.T @ (j / mu[:, None]))
    except np.linalg.LinAlgError:
        cov = np.full((5, 5), np.inf)
    if not np.all(np.isfinite(cov)):
        raise FitConvergenceError("the Fisher information is singular at "
                                  "the optimum: the scan does not "
                                  "determine all five parameters", **last)
    if theta[1] < max(2.0 * np.sqrt(abs(cov[1, 1])), 0.02):
        # no resolved beat: its envelope is as unidentified as its frequency
        flags += ["delta_omega_unidentifiable", "envelope_unidentifiable"]

    return HomFit(N=float(theta[0]), V=float(theta[1]),
                  delta_omega=float(theta[2]), tau_c=float(theta[3]),
                  tau_offset=float(theta[4]), covariance=cov,
                  residual_norm=float(np.sqrt(cost)), n_iter=it,
                  flags=tuple(flags), init=guess)
