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
from functools import cache

import numpy as np

from ._conversion import conversion_phase
from .dispersion import _number, _read_json
from .errors import (BasisMismatchError, FitConvergenceError,
                     PhysicalityError, TomographyDataError)

FREQ_BASIS = ("w1w1", "w1w2", "w2w1", "w2w2")
POL_BASIS = ("HH", "HV", "VH", "VV")

_SY2 = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]),
               np.array([[0.0, -1.0], [1.0, 0.0]]))   # real form of sy x sy
_MLE_MAX_ITER = 500       # Newton steps, barrier path and face step together
_MLE_GAP_TOL = 1e-6       # certified log-likelihood gap [nats] to stop at
_MLE_T0 = 0.1             # t0 per count: the first centre lies near the start
_MLE_T_CUT = 100.0        # cut of t per outer step: a few steps per centring
# squared decrement per unit of t that ends a centring, and at the last t
# the face step: centred this well, L rises from centre to centre
_MLE_CENTERED = 1e-3
# the face keeps an eigenvector of s along which the data curve L (in the
# frame) more than this times t: on the support that stays finite as t
# falls, off it it falls as t^2, and a degenerate direction in between must
# stay for the certificate to come out tight
_MLE_FACE_CURVATURE = 1e-3


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
        """The matrix of a ``to_json_dict`` mapping; ValueError naming the
        key (and the file, for a parsed one) unless ``basis`` is a list of
        four strings and ``re`` and ``im`` are 4x4 arrays of numbers."""
        where = getattr(payload, "where", "density matrix")
        parts = {}
        for key, shape, kind, what in (
                ("basis", (4,), str, "a list of four strings"),
                ("re", (4, 4), (int, float), "a 4x4 array of numbers"),
                ("im", (4, 4), (int, float), "a 4x4 array of numbers")):
            a = np.array(payload[key], dtype=object)
            if a.shape != shape or not all(
                    isinstance(x, kind) and not isinstance(x, bool)
                    for x in a.flat):
                raise ValueError(f"{where}: '{key}' must be {what}, not "
                                 f"{payload[key]!r}")
            parts[key] = a
        return cls(elements=parts["re"].astype(float)
                   + 1j * parts["im"].astype(float),
                   basis_labels=tuple(parts["basis"]))


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
    out with phi0 + ``conversion_phase(tau, delta_omega)``, whose checks
    it shares. Local and unitary, hence spectrum- and
    concurrence-preserving.
    """
    conversion_phase(tau, delta_omega)
    phase = np.exp(1j * delta_omega * tau)
    u = np.diag([1.0 + 0j, 1.0 + 0j, phase, phase])
    if not isinstance(obj, (StateVector, DensityMatrix)):
        raise TypeError("mode_convert handles StateVector or DensityMatrix")
    if tuple(obj.basis_labels) != FREQ_BASIS:
        raise BasisMismatchError("mode_convert expects frequency-bin labels "
                                 f"{FREQ_BASIS}, got {obj.basis_labels}")
    if isinstance(obj, StateVector):
        return StateVector(u @ obj.amplitudes, POL_BASIS)
    return DensityMatrix(u @ obj.elements @ u.conj().T, POL_BASIS)


# --- projective measurement settings -------------------------------------

@dataclass(frozen=True)
class ProjectorSetting:
    """One two-qubit product projection |a>|b><a|<b|.

    ``projector``, the 4x4 matrix |ab><ab|, is built once at construction
    and read-only, like the kets.
    """

    setting_id: str
    proj_a: str
    proj_b: str
    ket_a: np.ndarray
    ket_b: np.ndarray
    projector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("ket_a", "ket_b"):
            k = np.array(getattr(self, name), dtype=complex).reshape(-1)
            if k.shape != (2,) or not np.isclose(np.linalg.norm(k), 1.0,
                                                 atol=1e-9):
                raise ValueError(f"{name} must be a normalized 2-vector")
            k.flags.writeable = False
            object.__setattr__(self, name, k)
        ket = np.kron(self.ket_a, self.ket_b)
        projector = np.outer(ket, ket.conj())
        projector.flags.writeable = False
        object.__setattr__(self, "projector", projector)


def _completeness_rank(settings) -> int:
    m = np.stack([s.projector.reshape(-1) for s in settings])
    return int(np.linalg.matrix_rank(m, tol=1e-9))


def load_projectors(name_or_path: str = "james16") -> tuple:
    """Projection settings from a bundled name or a JSON file path.

    The file lists named single-qubit kets ([re, im] pairs) and ordered
    (a, b) label pairs; a malformed entry is a ValueError naming the file
    and the entry (``settings[k]``, ``states.<label>``). The resulting set
    must span the 16-dimensional operator space (informational
    completeness) or TomographyDataError is raised.
    """
    payload = _read_json("tomography", name_or_path)
    states = payload.object("states")   # a label it lacks: ValueError

    def ket(label):
        name = f"states.{label}"
        what = f"{payload.where}: '{name}'"
        amplitudes = states.pairs(label, name)
        if len(amplitudes) != 2:
            raise ValueError(f"{what} must hold two [re, im] pairs")
        arr = np.array([complex(_number(re, what), _number(im, what))
                        for re, im in amplitudes])
        norm = np.linalg.norm(arr)
        if norm == 0.0:
            raise ValueError(f"{what} is the zero vector")
        return arr / norm

    settings = []
    for k, (a, b) in enumerate(payload.pairs("settings")):
        if not (isinstance(a, str) and isinstance(b, str)):
            raise ValueError(f"{payload.where}: 'settings[{k}]' must be an "
                             f"[a, b] pair of state labels, not {[a, b]!r}")
        settings.append(ProjectorSetting(
            setting_id=f"{k + 1:02d}", proj_a=a, proj_b=b, ket_a=ket(a),
            ket_b=ket(b)))
    settings = tuple(settings)
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
    pi_stack = np.stack([s.projector for s in settings])
    probs = np.real(np.trace(rho.elements @ pi_stack, axis1=1, axis2=2))
    means = expected_total * np.maximum(probs, 0.0)
    if rng_seed is None:
        counts = means
    else:
        counts = np.random.default_rng(rng_seed).poisson(means).astype(float)
    return TomographyDataset(
        settings=tuple(settings), counts=counts,
        meta={"expected_total": float(expected_total),
              "rng_seed": rng_seed, "source_basis": list(rho.basis_labels)})


# --- maximum-likelihood reconstruction -----------------------------------

@cache
def _hermitian_basis(r: int) -> np.ndarray:
    """Orthonormal basis of the r x r Hermitian matrices under tr(AB):
    e_ii, (e_ij + e_ji)/sqrt(2) for i < j, i(e_ij - e_ji)/sqrt(2) for i > j."""
    e = np.eye(r * r).reshape(r * r, r, r) + 0j
    i, j = np.divmod(np.arange(r * r), r)
    e[i < j] = (e[i < j] + e[i < j].transpose(0, 2, 1)) / np.sqrt(2.0)
    e[i > j] = 1j * (e[i > j] - e[i > j].transpose(0, 2, 1)) / np.sqrt(2.0)
    e.flags.writeable = False    # cached: every caller shares this array
    return e


@dataclass(frozen=True)
class TomographyResult:
    """Reconstruction plus diagnostics; log-likelihoods are referenced to
    the saturated model, so 0 is the ceiling and exact data reach it.
    ``certified_gap`` bounds how far that of ``rho`` lies below the maximum
    [nats]; ``ll_history`` holds it at the end of each barrier centring and
    of the face step; ``n_iter`` counts Newton steps."""

    rho: DensityMatrix
    log_likelihood: float
    ll_history: tuple
    n_iter: int
    certified_gap: float


def mle_tomography(data: TomographyDataset, full_output: bool = False):
    """Poisson maximum-likelihood reconstruction by a barrier Newton method
    (Boyd & Vandenberghe, *Convex Optimization*, ch. 11), labelled
    ``POL_BASIS``, the basis the projector settings act in.

    L(s) = sum_k c_k log mu_k - tr(G s), mu_k = tr(Pi_k s), G = sum_k Pi_k,
    is concave in the unnormalized state s >= 0 and peaks at tr(G s) = n,
    the observed total. From s = n/tr(G) I the path maximizes
    L + t log det s from t = ``_MLE_T0`` n, cut ``_MLE_T_CUT``-fold until its
    gap bound 4t is at most ``_MLE_GAP_TOL``. A Newton step solves for the
    16 real coordinates of Y in s' = W (I + Y) W^H, s = W W^H, where the
    barrier's Hessian is the identity; it is capped so that s' stays
    positive definite and backtracked on its exact gain (``log1p``). The
    face step takes the same steps with t = 0 on the eigenvectors that the
    data, not the barrier, hold up, so the state lies on the face of the
    maximum. A singular Newton system ends a phase.

    ``certified_gap``, n (lambda_max(G^-1/2 R G^-1/2) - 1) with R =
    sum_k (c_k / mu_k) Pi_k at tr(G s) = n, bounds by concavity how far the
    log-likelihood of the returned state lies below the maximum; it is
    tight on the face of the maximum. FitConvergenceError after
    ``_MLE_MAX_ITER`` Newton steps.
    """
    counts = data.counts
    n = float(counts.sum())
    if n <= 0.0:
        raise TomographyDataError("all counts are zero; nothing to fit")
    pi_stack = np.stack([s.projector for s in data.settings])
    rows = pi_stack.reshape(len(pi_stack), 16).conj()
    g = pi_stack.sum(axis=0)
    pos = counts > 0.0
    c = counts[pos]

    def mu_of(w):
        return np.real(rows @ (w @ w.conj().T).ravel())

    def ll_of(mu):   # flux profiled out: mu scaled to sum to n
        return float(c @ np.log(mu[pos] * (n / mu.sum()) / c))

    def gain_of(mu, d_mu):   # the exact change of L from mu to mu + d_mu
        rel = d_mu[pos] / mu[pos]
        if np.any(rel <= -1.0):
            return -np.inf
        return float(c @ np.log1p(rel) - d_mu.sum())

    def newton(w, t):
        # a damped Newton step on L + t log det s from s = W W^H: the new W,
        # the squared decrement and the gain of L; None if the system is
        # singular or no step along it gains
        r = w.shape[1]
        basis = _hermitian_basis(r)
        mu = mu_of(w)
        a = np.real(rows @ (w @ basis @ w.conj().T).reshape(r * r, 16).T)
        a_pos, wt = a[pos], c / mu[pos]
        # the barrier adds t I to the gradient, whose coordinates are t on
        # each e_ii (indices 0, r+1, 2(r+1), ...), and t to the Hessian's
        # diagonal
        grad = a_pos.T @ wt - a.sum(axis=0)
        grad[::r + 1] += t
        hess = (a_pos.T * (wt / mu[pos])) @ a_pos
        hess.flat[::r * r + 1] += t
        try:
            y = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return None
        dec = float(grad @ y)
        if not dec > 0.0:
            return None
        nu, u = np.linalg.eigh((y @ basis.reshape(r * r, r * r)).reshape(r, r))
        d_mu = a @ y
        alpha = 1.0 if nu[0] >= -0.99 else 0.99 / -nu[0]
        for _ in range(40):   # backtracking as in Boyd & Vandenberghe 9.2
            gain = gain_of(mu, alpha * d_mu)
            if gain + t * np.log1p(alpha * nu).sum() >= 0.25 * alpha * dec:
                return (w @ u) * np.sqrt(1.0 + alpha * nu), dec, gain
            alpha *= 0.5
        return None

    w = np.sqrt(n / np.real(np.trace(g))) * np.eye(4, dtype=complex)
    t, face, gained, marks = _MLE_T0 * n, False, 0.0, []
    for n_iter in range(1, _MLE_MAX_ITER + 1):
        if face:   # keep the eigenvectors that the data hold up
            u, s, _ = np.linalg.svd(w, full_matrices=False)
            mu = mu_of(w)
            along = np.real(np.einsum("kpq,pi,qi->ki", pi_stack[pos],
                                      u.conj(), u)) * s ** 2 / mu[pos, None]
            keep = c @ along ** 2 > _MLE_FACE_CURVATURE * t
            gained += gain_of(mu, -mu_of(u[:, ~keep] * s[~keep]))
            w = u[:, keep] * s[keep]
        step = newton(w, 0.0 if face else t)
        if step is not None:
            w, dec, gain = step
            gained += gain
        if step is None or dec <= _MLE_CENTERED * t:   # a phase ends
            marks.append(gained)
            if face:
                break
            face = 4.0 * t <= _MLE_GAP_TOL
            t = t if face else t / _MLE_T_CUT
    else:
        raise FitConvergenceError(
            f"tomography did not converge in {_MLE_MAX_ITER} Newton steps",
            last_iterate=w @ w.conj().T / np.vdot(w, w).real,
            residual=-ll_of(mu_of(w)))

    sigma = w @ w.conj().T
    rho = DensityMatrix(0.5 * (sigma + sigma.conj().T)
                        / np.real(np.trace(sigma)), POL_BASIS)
    if not full_output:
        return rho
    mu = np.real(rows @ rho.elements.ravel())
    ll, mu = ll_of(mu), mu * (n / mu.sum())
    w_g, v_g = np.linalg.eigh(g)
    g_isqrt = (v_g / np.sqrt(w_g)) @ v_g.conj().T
    r = g_isqrt @ np.einsum("k,kij->ij", c / mu[pos], pi_stack[pos]) @ g_isqrt
    return TomographyResult(
        rho=rho, log_likelihood=ll,
        ll_history=tuple(ll + m - gained for m in marks), n_iter=n_iter,
        certified_gap=n * (float(np.linalg.eigvalsh(r)[-1]) - 1.0))
