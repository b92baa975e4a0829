"""Two-qubit state toolkit: X-parametrized density matrices, fidelity,
concurrence, frequency->polarization mode conversion, projective-count
simulation, and maximum-likelihood tomography.

Basis ordering is fixed as (|x1 x1>, |x1 x2>, |x2 x1>, |x2 x2>) with
x = w (frequency bin) or H/V (polarization); w1 is the higher-frequency
bin and maps to H under mode conversion. All serialization uses this order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dispersion import _read_json
from .errors import (BasisMismatchError, FitConvergenceError,
                     PhysicalityError, TomographyDataError)

FREQ_BASIS = ("w1w1", "w1w2", "w2w1", "w2w2")
POL_BASIS = ("HH", "HV", "VH", "VV")

_SY2 = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]),
               np.array([[0.0, -1.0], [1.0, 0.0]]))   # real form of sy x sy
_MLE_MAX_ITER = 500
_MLE_GAP_TOL = 1e-6       # certified log-likelihood gap [nats] to stop at
_MLE_FRAME_FLOOR = 1e-2   # smallest eigenvalue the MLE's step metric resolves


class Domain(str, Enum):
    FREQUENCY = "frequency"
    POLARIZATION = "polarization"


def _basis_for(domain) -> tuple:
    return FREQ_BASIS if Domain(domain) is Domain.FREQUENCY else POL_BASIS


@dataclass(frozen=True)
class DensityMatrix:
    """Validated 4x4 two-qubit density matrix.

    Hermitian to 1e-12, unit trace to 1e-12, eigenvalues >= -1e-10; raises
    PhysicalityError otherwise.
    """

    elements: np.ndarray
    basis_labels: tuple

    def __post_init__(self):
        m = np.array(self.elements, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix elements must be finite")
        labels = tuple(self.basis_labels)
        if len(labels) != 4:
            raise ValueError("need exactly 4 basis labels")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > 1e-12:
            raise PhysicalityError(f"matrix not Hermitian (deviation {herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise PhysicalityError(f"trace {tr} differs from 1 beyond 1e-12")
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if lo < -1e-10:
            raise PhysicalityError(f"negative eigenvalue {lo:.3e} below -1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "elements", m)
        object.__setattr__(self, "basis_labels", labels)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(0.5 * (self.elements + self.elements.conj().T))

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.elements @ self.elements)))

    def to_json_dict(self) -> dict:
        return {"basis": list(self.basis_labels),
                "re": np.real(self.elements).tolist(),
                "im": np.imag(self.elements).tolist()}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        m = np.asarray(payload["re"], dtype=float) \
            + 1j * np.asarray(payload["im"], dtype=float)
        return cls(elements=m, basis_labels=tuple(payload["basis"]))


@dataclass(frozen=True)
class StateVector:
    """Normalized pure two-qubit state."""

    amplitudes: np.ndarray
    basis_labels: tuple

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if v.shape != (4,):
            raise ValueError("state vector must have 4 amplitudes")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized (|psi| = {norm})")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    def projector(self) -> DensityMatrix:
        v = self.amplitudes
        return DensityMatrix(np.outer(v, v.conj()), self.basis_labels)


def rho_freq(p: float, V: float, phi: float) -> DensityMatrix:
    """X-structured frequency-bin density matrix.

    Populations p and 1-p on |w1 w2> and |w2 w1>, exchange coherence
    (V/2) e^{i phi} on <w2 w1| rho |w1 w2>, zero amplitude in the
    energy-forbidden corners |w1 w1>, |w2 w2>.
    """
    if not 0.0 <= p <= 1.0:
        raise PhysicalityError(f"p = {p} outside [0, 1]")
    bound = 2.0 * np.sqrt(p * (1.0 - p))
    if not 0.0 <= V <= bound + 1e-12:
        raise PhysicalityError(
            f"V = {V} violates 0 <= V <= 2 sqrt(p(1-p)) = {bound:.6f}")
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = p
    m[2, 2] = 1.0 - p
    m[2, 1] = 0.5 * min(V, bound) * np.exp(1j * phi)
    m[1, 2] = np.conj(m[2, 1])
    return DensityMatrix(m, FREQ_BASIS)


def ideal_state(phi: float, domain=Domain.FREQUENCY) -> StateVector:
    """(|x1 x2> + e^{i phi} |x2 x1>)/sqrt(2) in the requested domain."""
    amp = np.array([0.0, 1.0, np.exp(1j * phi), 0.0]) / np.sqrt(2.0)
    return StateVector(amp, _basis_for(domain))


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """<psi| rho |psi> against a pure target in the same basis."""
    if tuple(rho.basis_labels) != tuple(target.basis_labels):
        raise BasisMismatchError(
            f"density matrix basis {rho.basis_labels} does not match "
            f"target basis {target.basis_labels}")
    v = target.amplitudes
    f = float(np.real(v.conj() @ rho.elements @ v))
    return float(np.clip(f, 0.0, 1.0))


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    The l_i are the singular values of W^T (sy x sy) W with W = U sqrt(w)
    from rho = U diag(w) U^dagger (Wootters, PRL 80, 2245 (1998)). Unlike
    square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy), this
    stays exact to rounding when some of those vanish, as on pure states.
    """
    w, u = np.linalg.eigh(rho.elements)
    wm = u * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(wm.T @ _SY2 @ wm, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) ||a - b||_1."""
    if tuple(a.basis_labels) != tuple(b.basis_labels):
        raise BasisMismatchError("trace distance requires matching bases")
    return float(0.5 * np.sum(np.abs(
        np.linalg.eigvalsh(a.elements - b.elements))))


def mode_convert(obj, tau: float, delta_omega: float):
    """Frequency-bin -> polarization transfer with delay-imprinted phase.

    Applies the local unitary diag(1, e^{i delta_omega tau}) on the first
    qubit and relabels w1 -> H, w2 -> V, so a state with phase phi0 comes
    out with phi0 + delta_omega * tau. Local and unitary, hence spectrum-
    and concurrence-preserving.
    """
    phase = np.exp(1j * delta_omega * tau)
    u = np.diag([1.0 + 0j, 1.0 + 0j, phase, phase])
    if isinstance(obj, StateVector):
        if tuple(obj.basis_labels) != FREQ_BASIS:
            raise BasisMismatchError(
                "mode_convert expects frequency-bin labels "
                f"{FREQ_BASIS}, got {obj.basis_labels}")
        return StateVector(u @ obj.amplitudes, POL_BASIS)
    if isinstance(obj, DensityMatrix):
        if tuple(obj.basis_labels) != FREQ_BASIS:
            raise BasisMismatchError(
                "mode_convert expects frequency-bin labels "
                f"{FREQ_BASIS}, got {obj.basis_labels}")
        return DensityMatrix(u @ obj.elements @ u.conj().T, POL_BASIS)
    raise TypeError("mode_convert handles StateVector or DensityMatrix")


# --- projective measurement settings -------------------------------------

@dataclass(frozen=True)
class ProjectorSetting:
    """One two-qubit product projection |a>|b><a|<b|."""

    setting_id: str
    proj_a: str
    proj_b: str
    ket_a: np.ndarray
    ket_b: np.ndarray

    def __post_init__(self):
        for name in ("ket_a", "ket_b"):
            k = np.array(getattr(self, name), dtype=complex).reshape(-1)
            if k.shape != (2,) or not np.isclose(np.linalg.norm(k), 1.0,
                                                 atol=1e-9):
                raise ValueError(f"{name} must be a normalized 2-vector")
            k.flags.writeable = False
            object.__setattr__(self, name, k)

    @property
    def projector(self) -> np.ndarray:
        ket = np.kron(self.ket_a, self.ket_b)
        return np.outer(ket, ket.conj())


def _completeness_rank(settings) -> int:
    m = np.stack([s.projector.reshape(-1) for s in settings])
    return int(np.linalg.matrix_rank(m, tol=1e-9))


def load_projectors(name_or_path: str = "james16") -> tuple:
    """Projection settings from a bundled name or a JSON file path.

    The file lists named single-qubit kets ([re, im] pairs) and ordered
    (a, b) label pairs. The resulting set must span the 16-dimensional
    operator space (informational completeness) or TomographyDataError
    is raised.
    """
    payload = _read_json("tomography", name_or_path)
    states = payload["states"]   # a label it lacks is a ValueError

    def ket(label):
        arr = np.array([complex(re, im) for re, im in states[label]])
        return arr / np.linalg.norm(arr)

    settings = tuple(
        ProjectorSetting(setting_id=f"{k + 1:02d}", proj_a=a, proj_b=b,
                         ket_a=ket(a), ket_b=ket(b))
        for k, (a, b) in enumerate(payload["settings"]))
    rank = _completeness_rank(settings)
    if rank < 16:
        raise TomographyDataError(
            f"projector set spans only {rank}/16 operator dimensions; "
            "not informationally complete")
    return settings


@dataclass(frozen=True)
class TomographyDataset:
    """Measured (or simulated) counts for a complete projection set.

    ``counts`` may be non-integer in the noiseless synthetic limit;
    measured data are integers.
    """

    settings: tuple
    counts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        c = np.array(self.counts, dtype=float).reshape(-1)
        if len(c) != len(self.settings):
            raise TomographyDataError(
                f"{len(c)} counts for {len(self.settings)} settings")
        if len(self.settings) < 16:
            raise TomographyDataError("need at least 16 settings")
        if np.any(~np.isfinite(c)) or np.any(c < 0.0):
            raise TomographyDataError("counts must be finite and nonnegative")
        if _completeness_rank(self.settings) < 16:
            raise TomographyDataError("settings not informationally complete")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "settings", tuple(self.settings))


def simulate_counts(rho: DensityMatrix, settings, expected_total: float,
                    rng_seed: int | None) -> TomographyDataset:
    """Poisson projective counts with means expected_total * Tr(rho Pi).

    ``rng_seed=None`` returns the exact (non-integer) means — the noiseless
    limit used for closed-loop reconstruction checks.
    """
    if expected_total <= 0.0:
        raise ValueError("expected_total must be > 0")
    probs = np.array([
        max(float(np.real(np.trace(rho.elements @ s.projector))), 0.0)
        for s in settings])
    means = expected_total * probs
    if rng_seed is None:
        counts = means
    else:
        counts = np.random.default_rng(rng_seed).poisson(means).astype(float)
    return TomographyDataset(
        settings=tuple(settings), counts=counts,
        meta={"expected_total": float(expected_total),
              "rng_seed": rng_seed, "source_basis": list(rho.basis_labels)})


# --- maximum-likelihood reconstruction -----------------------------------

def _linear_inversion(pi_stack: np.ndarray, counts: np.ndarray) -> np.ndarray:
    m = pi_stack.reshape(len(pi_stack), 16)
    x, *_ = np.linalg.lstsq(m, counts, rcond=None)
    s = x.reshape(4, 4).T          # rows of m act as Tr(Pi rho) = vec(Pi).vec(rho^T)
    s = 0.5 * (s + s.conj().T)
    scale = float(np.real(np.trace(s)))
    if scale <= 0.0:
        return np.eye(4, dtype=complex) / 4.0
    s = s / scale
    w, v = np.linalg.eigh(s)
    w = np.clip(w, 1e-6, None)
    s = (v * w) @ v.conj().T
    return s / np.real(np.trace(s))


@dataclass(frozen=True)
class TomographyResult:
    """Reconstruction plus diagnostics; log-likelihoods are referenced to
    the saturated model, so 0 is the ceiling and exact data reach it.
    ``certified_gap`` bounds how far the log-likelihood lies below its
    maximum [nats]."""

    rho: DensityMatrix
    log_likelihood: float
    ll_history: tuple
    n_iter: int
    converged: bool
    certified_gap: float


def mle_tomography(data: TomographyDataset, full_output: bool = False):
    """Poisson maximum-likelihood reconstruction by accelerated projected
    gradient (Shang, Zhang & Ng, PRA 95, 062336 (2017)). The state is
    labelled ``POL_BASIS``, the basis the projector settings act in.

    The log-likelihood sum_k c_k log mu_k - tr(G s), mu_k = tr(Pi_k s) and
    G = sum_k Pi_k, is concave in the unnormalized state s >= 0, with
    gradient R - G, R = sum_k (c_k / mu_k) Pi_k. A step adds
    (2/L) S^2 (R - G) S^2, L = sum_k c_k tr(Pi_k S^2)^2 / mu_k^2 >= the
    curvature in that metric, sets the negative eigenvalues of S^-1 s S^-1
    to zero and rescales s to tr(G s) = n, the observed total, which
    profiles out the flux. The frame S = (s / tr s)^(1/4), eigenvalues
    floored at ``_MLE_FRAME_FLOOR``, is taken from the iterate at the start
    and at each momentum restart; it shrinks the curvature spread of a
    near-pure state from lambda_max / lambda_min to about its square root.
    Nesterov momentum restarts when a step loses likelihood.

    At tr(G s) = n the log-likelihood lies at most
    n (lambda_max(G^-1/2 R G^-1/2) - 1) nats below its maximum, by
    concavity; the loop stops once that certificate is at most
    ``_MLE_GAP_TOL``, or when a step from the iterate itself loses
    (stationary to rounding). Near a rank-deficient maximum the last gains
    fall below the log-likelihood's rounding while the certificate is still
    a few 1e-6 nats, so there a step that loses only rounding is taken,
    and recorded as no gain, if it tightens the certificate.
    FitConvergenceError after ``_MLE_MAX_ITER`` steps; the log-likelihood
    is referenced to the saturated model.
    """
    counts = data.counts
    n = float(counts.sum())
    if n <= 0.0:
        raise TomographyDataError("all counts are zero; nothing to fit")
    pi_stack = np.stack([s.projector for s in data.settings])
    rows = pi_stack.reshape(len(pi_stack), 16).conj()
    g = pi_stack.sum(axis=0)
    w, v = np.linalg.eigh(g)
    g_isqrt = (v / np.sqrt(w)) @ v.conj().T
    pos = counts > 0.0
    c = counts[pos]
    counted = pi_stack[pos].reshape(len(c), 16)

    def mu_of(s):
        return np.real(rows @ s.ravel())

    def frame(s):
        # S, S^-1 and S^2 for S = (s / tr s)^(1/4), eigenvalues floored
        w, v = np.linalg.eigh(s / np.real(np.trace(s)))
        w = np.clip(w, _MLE_FRAME_FLOOR, None) ** 0.25
        return ((v * w) @ v.conj().T, (v / w) @ v.conj().T,
                (v * w ** 2) @ v.conj().T)

    def project(s):
        w, v = np.linalg.eigh(s_inv @ s @ s_inv)
        s = s_half @ ((v * np.clip(w, 0.0, None)) @ v.conj().T) @ s_half
        return s * (n / np.real(np.vdot(g, s)))

    def r_of(mu):
        return ((c / mu[pos]) @ counted).reshape(4, 4)

    def gap_of(mu):
        r = g_isqrt @ r_of(mu) @ g_isqrt
        return n * (float(np.linalg.eigvalsh(r)[-1]) - 1.0)

    def step_from(s, mu_s):
        # the step from s, its change of mu and its exact log-likelihood
        # gain, both against the current iterate sigma
        lip = float(c @ (mu_of(s2)[pos] / mu_s[pos]) ** 2)
        cand = project(s + 2.0 / lip * s2 @ (r_of(mu_s) - g) @ s2)
        d_mu = mu_of(cand - sigma)
        rel = d_mu[pos] / mu[pos]
        if np.any(rel <= -1.0):
            return cand, d_mu, -np.inf
        return cand, d_mu, float(c @ np.log1p(rel) - d_mu.sum())

    def lost(gain, d_mu):
        # a loss that shows in the recorded log-likelihood, except one
        # within a few units of its last place that tightens the certificate
        return ll + gain < ll and (gain < -8.0 * np.spacing(abs(ll))
                                   or gap_of(mu + d_mu) >= gap_of(mu))

    sigma = _linear_inversion(pi_stack, counts)
    s_half, s_inv, s2 = frame(sigma)
    sigma = project(sigma)
    mu = mu_of(sigma)
    ll = float(c @ np.log(mu[pos] / c) + (n - mu.sum()))
    history = [ll]
    z, mu_z, prev, k = sigma, mu, sigma, 1.0
    for it in range(1, _MLE_MAX_ITER + 1):
        cand, d_mu, gain = step_from(z, mu_z)
        if lost(gain, d_mu) and z is not sigma:   # restart the momentum
            z, mu_z, k = sigma, mu, 1.0
            s_half, s_inv, s2 = frame(sigma)
            cand, d_mu, gain = step_from(sigma, mu)
        if lost(gain, d_mu):
            break                                 # stationary to rounding
        gain = max(gain, 0.0)
        prev, sigma, mu, ll = sigma, cand, mu + d_mu, ll + gain
        history.append(ll)
        if gain < _MLE_GAP_TOL and gap_of(mu) <= _MLE_GAP_TOL:
            break
        k_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * k * k))
        z = sigma + (k - 1.0) / k_next * (sigma - prev)
        k, mu_z = k_next, mu_of(z)
        if np.any(mu_z[pos] <= 0.0):
            z, mu_z, k = sigma, mu, 1.0
    else:
        raise FitConvergenceError(
            f"tomography did not converge in {_MLE_MAX_ITER} iterations",
            last_iterate=sigma / np.real(np.trace(sigma)), residual=-ll)

    rho = 0.5 * (sigma + sigma.conj().T)
    rho = rho / np.real(np.trace(rho))
    dm = DensityMatrix(rho, POL_BASIS)
    if full_output:
        return TomographyResult(rho=dm, log_likelihood=ll,
                                ll_history=tuple(history), n_iter=it,
                                converged=True, certified_gap=gap_of(mu))
    return dm
