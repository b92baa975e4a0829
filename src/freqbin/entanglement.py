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
_OFFDIAG = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))


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
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4)."""
    m = rho.elements
    r = m @ _SY2 @ m.conj() @ _SY2
    lam = np.sort(np.sqrt(np.clip(np.real(np.linalg.eigvals(r)), 0.0, None)))
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


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


def p_from_counts(counts_high: float, counts_low: float) -> tuple:
    """Population estimate from bin-resolved coincidence totals.

    Returns (p_hat, sigma) with p_hat = n_hi/(n_hi + n_lo) and the binomial
    standard error sqrt(p(1-p)/n).
    """
    if counts_high < 0 or counts_low < 0:
        raise ValueError("counts must be nonnegative")
    n = counts_high + counts_low
    if n <= 0:
        raise ValueError("need at least one count")
    p = counts_high / n
    return float(p), float(np.sqrt(p * (1.0 - p) / n))


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
    kets = {}
    for label, pairs in payload["states"].items():
        arr = np.array([complex(re, im) for re, im in pairs])
        kets[label] = arr / np.linalg.norm(arr)
    settings = tuple(
        ProjectorSetting(setting_id=f"{k + 1:02d}", proj_a=a, proj_b=b,
                         ket_a=kets[a], ket_b=kets[b])
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
    measured data are integers. ``total_normalization`` records how the
    overall flux is treated downstream ("profiled": the likelihood scale is
    maximized analytically at each step).
    """

    settings: tuple
    counts: np.ndarray
    total_normalization: str = "profiled"
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

def _t_from_theta(theta: np.ndarray) -> np.ndarray:
    t = np.zeros((4, 4), dtype=complex)
    t[np.diag_indices(4)] = theta[:4]
    for m, (i, j) in enumerate(_OFFDIAG):
        t[i, j] = theta[4 + 2 * m] + 1j * theta[5 + 2 * m]
    return t


def _theta_from_t(t: np.ndarray) -> np.ndarray:
    theta = np.empty(16)
    theta[:4] = np.real(np.diag(t))
    for m, (i, j) in enumerate(_OFFDIAG):
        theta[4 + 2 * m] = t[i, j].real
        theta[5 + 2 * m] = t[i, j].imag
    return theta


def _rho_from_theta(theta: np.ndarray) -> np.ndarray:
    t = _t_from_theta(theta)
    g = t.conj().T @ t
    return g / np.real(np.trace(g))


def _lower_factor(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dag T = rho, via a QL split of sqrt(rho)."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    q, r = np.linalg.qr(root[::-1, ::-1])
    t = r[::-1, ::-1]
    # rotate row phases so the diagonal is real nonnegative
    ph = np.exp(-1j * np.angle(np.diag(t)))
    return ph[:, None] * t


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
    the saturated model, so 0 is the ceiling and exact data reach it."""

    rho: DensityMatrix
    log_likelihood: float
    ll_history: tuple
    n_iter: int
    converged: bool


def mle_tomography(data: TomographyDataset, basis=POL_BASIS,
                   max_iter: int = 500, ll_tol: float = 1e-10,
                   full_output: bool = False):
    """Cholesky-parametrized Poisson maximum-likelihood reconstruction.

    rho = T^dag T / Tr(T^dag T) over 16 real parameters (real diagonal plus
    six complex sub-diagonal entries), so the output is physical by
    construction. The overall flux is profiled out of the likelihood each
    evaluation, and the log-likelihood is referenced to the saturated model
    (optimum 0 for exact data) so the convergence tolerance is resolvable
    in double precision. Iteration is Fisher-scored Gauss-Newton with a
    backtracking line search along the damped step; convergence when an
    accepted step improves the log-likelihood by less than ``ll_tol``.
    """
    counts = data.counts
    if float(counts.sum()) <= 0.0:
        raise TomographyDataError("all counts are zero; nothing to fit")
    pi_stack = np.stack([s.projector for s in data.settings])
    n_tot = float(counts.sum())
    floor = 1e-12 * n_tot
    pos = counts > 0.0

    def mu_of(theta):
        rho = _rho_from_theta(theta)
        p = np.maximum(np.real(np.einsum("kij,ji->k", pi_stack, rho)), 0.0)
        scale = n_tot / max(float(p.sum()), 1e-300)
        return np.maximum(scale * p, floor)

    def ll_of(theta):
        mu = mu_of(theta)
        return float(np.sum(counts[pos] * np.log(mu[pos] / counts[pos]))
                     + (n_tot - mu.sum()))

    theta = _theta_from_t(_lower_factor(_linear_inversion(pi_stack, counts)))
    theta = theta / np.linalg.norm(theta)
    ll = ll_of(theta)
    history = [ll]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        mu = mu_of(theta)
        jac = np.empty((len(mu), 16))
        for j in range(16):
            h = 1e-6 * max(abs(theta[j]), 0.05)
            up = theta.copy()
            dn = theta.copy()
            up[j] += h
            dn[j] -= h
            jac[:, j] = (mu_of(up) - mu_of(dn)) / (2.0 * h)
        w = 1.0 / mu
        grad = jac.T @ ((counts - mu) * w)
        fisher = (jac * w[:, None]).T @ jac
        diag = np.diag(np.maximum(np.diag(fisher), 1e-30))
        gain = None
        for lam in (1e-9, 1e-6, 1e-3, 1.0):
            try:
                step = np.linalg.solve(fisher + lam * diag, grad)
            except np.linalg.LinAlgError:
                continue
            alpha = 1.0
            while alpha > 1e-14:
                cand = theta + alpha * step
                cand = cand / np.linalg.norm(cand)
                new_ll = ll_of(cand)
                if new_ll >= ll:
                    gain = new_ll - ll
                    theta, ll = cand, new_ll
                    history.append(ll)
                    break
                alpha *= 0.5
            if gain is not None:
                break
        if gain is None:
            converged = True       # no ascent direction left: stationary
            break
        if gain < ll_tol:
            converged = True
            break

    rho = _rho_from_theta(theta)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.real(np.trace(rho))
    if not converged:
        raise FitConvergenceError(
            f"tomography did not converge in {max_iter} iterations",
            last_iterate=rho, residual=-ll)
    dm = DensityMatrix(rho, tuple(basis))
    if full_output:
        return TomographyResult(rho=dm, log_likelihood=ll,
                                ll_history=tuple(history), n_iter=it,
                                converged=True)
    return dm
