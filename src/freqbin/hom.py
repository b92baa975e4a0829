"""Hong-Ou-Mandel interference: forward model, noisy synthesis, fitting.

The coincidence rate for a nondegenerate frequency-bin pair beats at the bin
splitting under a triangular envelope:

    I(tau) = (N/2) * {1 - V cos(delta_omega * u) (1 - |u|/tau_c)},  |u| <= tau_c
           =  N/2                                                  otherwise,

with u = tau - tau_offset. The fitter is a damped Gauss-Newton
(Levenberg-Marquardt) weighted least-squares over all five parameters with
an analytic Jacobian; weights are Poisson, sigma = sqrt(max(count, 1)).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import FitConvergenceError

_PARAM_NAMES = ("N", "V", "delta_omega", "tau_c", "tau_offset")


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
        if not self.tau_c > 0.0:
            raise ValueError("tau_c must be > 0")

    def as_array(self):
        return np.array([self.N, self.V, self.delta_omega, self.tau_c,
                         self.tau_offset])


@dataclass(frozen=True)
class HomScan:
    """A sampled delay scan: delays [s], counts, Poisson uncertainties."""

    delays: np.ndarray
    counts: np.ndarray
    uncertainties: np.ndarray
    acquisition: dict = field(default_factory=dict)

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        s = np.asarray(self.uncertainties, dtype=float)
        if not (len(d) == len(c) == len(s)):
            raise ValueError("delays/counts/uncertainties length mismatch")
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
    """Fit result: parameters, 5x5 covariance, weighted residual norm."""

    N: float
    V: float
    delta_omega: float
    tau_c: float
    tau_offset: float
    covariance: np.ndarray
    residual_norm: float
    n_iter: int
    converged: bool
    flags: tuple = ()
    init: dict = field(default_factory=dict)

    @property
    def stderr(self) -> dict:
        se = np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return dict(zip(_PARAM_NAMES, se))

    def params(self) -> HomParams:
        return HomParams(self.N, self.V, self.delta_omega, self.tau_c,
                         self.tau_offset)


def homi_rate(params: HomParams, tau):
    """Coincidence rate at delay(s) tau [s]."""
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    out = _kernels.homi_curve(t, params.N, params.V, params.delta_omega,
                              params.tau_c, params.tau_offset)
    return float(out[0]) if np.ndim(tau) == 0 else out


def homi_from_state(state, tau):
    """Normalized coincidence probability for a BiphotonState.

    (1/2){1 - V cos(delta_omega*tau + phi) max(0, 1 - |tau|/tau_c)}; the
    state's phi shifts the fringe, so phi = 0 dips at tau = 0 and phi = pi
    anti-bunches there.
    """
    t = np.asarray(tau, dtype=float)
    env = np.clip(1.0 - np.abs(t) / state.tau_c, 0.0, None)
    out = 0.5 * (1.0 - state.V
                 * np.cos(state.delta_omega * t + state.phi) * env)
    return float(out) if np.ndim(tau) == 0 else out


def synthesize_scan(params: HomParams, delays, pairs_per_point: float,
                    rng_seed: int) -> HomScan:
    """Poisson-sampled scan with baseline expectation ``pairs_per_point``.

    The expected count at each delay is pairs_per_point * I(tau)/(N/2), so
    far outside the envelope the mean is exactly pairs_per_point.
    """
    if not pairs_per_point > 0.0:
        raise ValueError("pairs_per_point must be > 0")
    delays = np.asarray(delays, dtype=float)
    rng = np.random.default_rng(rng_seed)
    mean = homi_rate(params, delays) / (0.5 * params.N) * pairs_per_point
    counts = rng.poisson(mean).astype(float)
    sigma = np.sqrt(np.maximum(counts, 1.0))
    return HomScan(delays=delays, counts=counts, uncertainties=sigma,
                   acquisition={"pairs_per_point": float(pairs_per_point),
                                "rng_seed": int(rng_seed)})


def _initial_guess(scan: HomScan) -> dict:
    d, c = scan.delays, scan.counts
    n = len(d)
    # baseline from the outer 20% of points on each side; N = 2 * baseline
    k = max(n // 10, 1)
    baseline = float(np.mean(np.concatenate([c[:k], c[-k:]])))
    if baseline <= 0.0:
        baseline = max(float(c.mean()), 1e-12)
    n0 = 2.0 * baseline

    # dominant non-DC frequency of the mean-subtracted record
    dt = float(np.mean(np.diff(d)))
    spec = np.abs(np.fft.rfft(c - c.mean()))
    freqs = np.fft.rfftfreq(n, dt)
    if len(spec) > 1:
        j = 1 + int(np.argmax(spec[1:]))
        dw0 = 2.0 * np.pi * freqs[j]
    else:
        dw0 = 0.0

    tau00 = float(d[int(np.argmin(c))])

    # envelope of |counts - baseline| decays linearly to 0 at |u| = tau_c
    u = np.abs(d - tau00)
    dev = np.abs(c - baseline)
    big = dev > 0.25 * dev.max()
    if big.sum() >= 2:
        a, b = np.polyfit(u[big], dev[big], 1)
        tau_c0 = -b / a if a < 0.0 else u.max()
    else:
        tau_c0 = u.max()
    tau_c0 = float(np.clip(tau_c0, 0.1 * u.max(), 2.0 * u.max()))

    v0 = float(np.clip((c.max() - c.min()) / max(n0, 1e-12), 0.05, 1.0))
    return {"N": n0, "V": v0, "delta_omega": max(dw0, np.pi / (n * dt)),
            "tau_c": tau_c0, "tau_offset": tau00}


def fit_homi(scan: HomScan, init: dict | HomParams | None = None,
             max_iter: int = 200, rel_step_tol: float = 1e-8) -> HomFit:
    """Weighted Levenberg-Marquardt fit of the five-parameter beat model.

    Initialization follows a fixed heuristic chain (baseline, DFT beat
    frequency, minimum-count offset, linear envelope fit) unless ``init``
    supplies starting values; partial dicts override individual entries.
    Raises FitConvergenceError (carrying the last iterate) if the loop
    exhausts ``max_iter`` without the relative step dropping below tolerance,
    or up front if the scan has no more points than the five parameters.
    """
    if len(scan.delays) <= len(_PARAM_NAMES):
        raise FitConvergenceError(
            f"{len(scan.delays)} scan points cannot determine the "
            f"{len(_PARAM_NAMES)} model parameters; need at least "
            f"{len(_PARAM_NAMES) + 1}")
    guess = _initial_guess(scan)
    flags = []
    if isinstance(init, HomParams):
        guess = {k: getattr(init, k) for k in _PARAM_NAMES}
    elif init:
        unknown = set(init) - set(_PARAM_NAMES)
        if unknown:
            raise ValueError(f"unknown init parameters: {sorted(unknown)}")
        guess.update({k: float(v) for k, v in init.items()})
    theta = np.array([guess[k] for k in _PARAM_NAMES])

    d = scan.delays
    c = scan.counts
    w = 1.0 / np.maximum(scan.uncertainties, 1e-12)

    def model(th):
        return _kernels.homi_curve(d, th[0], th[1], th[2], abs(th[3]), th[4])

    def jac(th):
        return _kernels.homi_jac(d, th[0], th[1], th[2], abs(th[3]), th[4])

    def chi2(th):
        r = (model(th) - c) * w
        return float(r @ r)

    cost = chi2(theta)
    lam = 1e-3
    scale = np.maximum(np.abs(theta), [1.0, 0.1, 1e11, 1e-13, 1e-14])
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        j = jac(theta) * w[:, None]
        r = (model(theta) - c) * w
        g = j.T @ r
        h = j.T @ j
        stepped = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(h + lam * np.diag(np.diag(h).clip(
                    min=1e-30)), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            new_cost = chi2(theta + delta)
            if new_cost <= cost:
                gained = cost - new_cost
                theta = theta + delta
                cost = new_cost
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                break
            lam *= 8.0
        if not stepped:
            # damping exhausted: we are at a (local) minimum
            converged = True
            delta = np.zeros_like(theta)
            break
        # stop on a negligible cost decrease too: in a flat chi^2 valley
        # (e.g. V ~ 0 making delta_omega unidentifiable) the step size
        # alone never settles
        if gained <= 1e-12 * max(cost, 1e-30):
            converged = True
            break
        if np.max(np.abs(delta) / scale) < rel_step_tol:
            converged = True
            break

    theta[3] = abs(theta[3])
    if not converged:
        raise FitConvergenceError(
            f"no convergence in {max_iter} iterations "
            f"(last rel step {np.max(np.abs(delta)/scale):.3g})",
            last_iterate=dict(zip(_PARAM_NAMES, theta)),
            residual=np.sqrt(cost))

    if theta[1] < 0.0 or theta[1] > 1.0:
        flags.append("V_clipped")
        theta[1] = float(np.clip(theta[1], 0.0, 1.0))

    j = jac(theta) * w[:, None]
    h = j.T @ j
    try:
        cov = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        cov = np.full((5, 5), np.nan)
        flags.append("singular_covariance")
    se_v = np.sqrt(abs(cov[1, 1])) if np.isfinite(cov[1, 1]) else np.inf
    if theta[1] < max(2.0 * se_v, 0.02):
        flags.append("delta_omega_unidentifiable")

    return HomFit(N=float(theta[0]), V=float(theta[1]),
                  delta_omega=float(theta[2]), tau_c=float(theta[3]),
                  tau_offset=float(theta[4]), covariance=cov,
                  residual_norm=float(np.sqrt(cost)), n_iter=it,
                  converged=True, flags=tuple(flags), init=guess)
