"""Two-photon spectral state of a multi-period crystal.

Monochromatic-pump picture: the pair amplitude is one-dimensional in the
signal (H-photon) angular frequency omega, with the partner slaved to
omega_p - omega. Each poling segment j contributes

    A_j(omega) = scale_j * L_j * sinc(dk_j L_j / 2)
                 * exp(i [kappa(omega) z_j + dk_j L_j / 2 + S(omega) L_tot]),

with kappa = k_p - k_s - k_i, S = k_s + k_i, z_j the segment start and
L_tot the crystal length: the grating of each segment starts fresh at its
own boundary, the pump phase is carried to the segment, and both daughter
fields propagate to the common exit face. sinc(x) = sin(x)/x.

At the two segments' phase-matched centers kappa = 2 pi / Lambda_j exactly,
so the relative phase between the processes collapses to the closed form

    2 pi L1/Lambda_2 + 2 pi (1/Lambda_1 - 1/Lambda_2) L_tot
        = 2 pi L1/Lambda_1 + 2 pi (1/Lambda_1 - 1/Lambda_2) L2   (mod 2 pi)

independently of the dispersion model; with L1 an integer number of poling
periods this is the textbook 2 pi (1/Lambda_1 - 1/Lambda_2) L2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dispersion
from .dispersion import Polarization
from .errors import (BinReductionError, GridResolutionError,
                     PhysicalityError)
from .qpm import (C_M_PER_S, CrystalSpec, TWO_PI, _bracketed_root,
                  _check_span, _mismatch, _solve_rows, _solved)


def _sinc(x):
    """sin(x)/x with sinc(0) = 1 (numpy's np.sinc is the normalized variant)."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class SpectralAmplitude:
    """Sampled biphoton amplitude on a signal-frequency grid.

    ``omega`` is the H-photon angular frequency [rad/s], symmetric about
    omega_p/2 so that the signal<->idler exchange omega -> omega_p - omega
    is exactly an array reversal. ``per_segment[j]`` holds segment j's
    complex amplitude; ``total`` their coherent sum, normalized so that
    sum(|total|^2) * d_omega = 1.
    """

    omega: np.ndarray
    per_segment: np.ndarray
    total: np.ndarray
    grid_meta: dict
    segment_points: tuple = field(repr=False)

    @property
    def d_omega(self) -> float:
        return float(self.omega[1] - self.omega[0])

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.total) ** 2


@dataclass(frozen=True)
class BiphotonState:
    """Reduced two-bin description {p, V, phi, delta_omega, tau_c}.

    p is the population of the process whose H photon sits in the
    high-frequency bin; V the magnitude of the exchange coherence scaled by
    2 sqrt(p(1-p)); phi the relative phase of the two processes at their
    phase-matched centers; delta_omega = omega_1 - omega_2 > 0 the bin
    splitting; tau_c the half-base of the triangular group-delay envelope.
    ``compensation_delay`` is the V-photon delay that maximizes the exchange
    overlap (the delay an interferometer must supply to erase the two
    processes' which-half-of-the-crystal timing).
    """

    p: float
    V: float
    phi: float
    delta_omega: float
    tau_c: float
    bin_centers: tuple
    compensation_delay: float | None = None
    spectrum: SpectralAmplitude | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise PhysicalityError(f"p = {self.p} outside [0, 1]")
        bound = min(1.0, 2.0 * np.sqrt(self.p * (1.0 - self.p)))
        if not -1e-12 <= self.V <= bound + 1e-9:
            raise PhysicalityError(
                f"V = {self.V} violates 0 <= V <= 2 sqrt(p(1-p)) = {bound:.6f}")
        if not self.delta_omega > 0.0:
            raise PhysicalityError("delta_omega must be > 0")
        if not self.tau_c > 0.0:
            raise PhysicalityError("tau_c must be > 0")


def segment_amplitude(spec: CrystalSpec, segment_index: int, omega_s):
    """Complex emission amplitude of one segment at H-photon frequency(ies).

    Follows the exit-face convention in the module docstring; magnitude is
    amplitude_scale * L * |sinc(dk L/2)| (meters), so at exact phase match
    |A| = scale * L.
    """
    seg = spec.segments[segment_index]
    sets = tuple(map(spec.sellmeier_for, (spec.pump_polarization,
                                          Polarization.H, Polarization.V)))
    omega = np.asarray(omega_s, dtype=float)
    lam_s_um = TWO_PI * C_M_PER_S * 1e6 / omega
    t_c, lam_p_um = spec.temperature, spec.pump_wavelength * 1e6
    _check_span(sets, t_c, lam_p_um, lam_s_um.min(), lam_s_um.max())

    # rad/m: kappa = k_p - k_s - k_i, big_s = k_s + k_i
    kappa, big_s = (1e6 * k for k in _mismatch(sets, t_c, lam_p_um,
                                                lam_s_um))
    dk = kappa - TWO_PI / seg.period

    amp = seg.amplitude_scale * seg.length * _sinc(0.5 * dk * seg.length)
    phase = (kappa * spec.segment_start(segment_index)
             + 0.5 * dk * seg.length + big_s * spec.total_length)
    out = amp * np.exp(1j * phase)
    return complex(out) if omega.ndim == 0 else out


def _group_index_mismatch(spec, point):
    """|n_g,i - n_g,s| of a solved pair: the daughters' group-velocity
    mismatch, which sets the sinc lobe width and the walk-off delay."""
    # looked up in dispersion at each call, so that a wrapper set there and
    # removed again (a span tracer's) is never kept in this module
    ng_s = dispersion.group_index(
        spec.field(point.signal_wavelength, point.signal_pol),
        spec.sellmeier_for(point.signal_pol))
    ng_i = dispersion.group_index(
        spec.field(point.idler_wavelength, point.idler_pol),
        spec.sellmeier_for(point.idler_pol))
    return abs(ng_i - ng_s)


def joint_spectrum(spec: CrystalSpec, n_points: int = 4097,
                   lobes: float = 6.0) -> SpectralAmplitude:
    """Coherent per-segment amplitudes on a shared exchange-symmetric grid.

    The grid is built symmetric about omega_p/2 (including the midpoint),
    spanning every segment's phase-matched peak plus ``lobes`` sinc lobes of
    margin, with at least 20 points per main lobe enforced. ``lobes``
    must be positive: a margin at or below zero would cut into the peaks.
    """
    if not lobes > 0.0:
        raise ValueError(f"lobes must be positive, not {lobes}")
    points = _solved(_solve_rows(spec, range(len(spec.segments)),
                                 spec.temperature, spec.pump_wavelength))
    omega_p = TWO_PI * C_M_PER_S / spec.pump_wavelength
    centers = [TWO_PI * C_M_PER_S / p.signal_wavelength for p in points]

    lobe_w = []
    for p, seg in zip(points, spec.segments):
        dng = _group_index_mismatch(spec, p)
        lobe_w.append(2.0 * TWO_PI * C_M_PER_S / (dng * seg.length))
    half_span = max(abs(c - 0.5 * omega_p) + lobes * lw
                    for c, lw in zip(centers, lobe_w))

    m = max(int(n_points) // 2, 8)
    dx = half_span / m
    min_lobe = min(lobe_w)
    if min_lobe / dx < 20.0:
        raise GridResolutionError(
            f"{2*m+1} points across {2*half_span:.3e} rad/s give "
            f"{min_lobe/dx:.1f} samples per sinc main lobe (< 20); "
            "increase n_points or decrease lobes")
    pos = np.arange(1, m + 1) * dx
    x = np.concatenate([-pos[::-1], [0.0], pos])
    omega = 0.5 * omega_p + x

    per = np.vstack([segment_amplitude(spec, j, omega)
                     for j in range(len(spec.segments))])
    total = per.sum(axis=0)
    norm = np.sqrt(np.sum(np.abs(total) ** 2) * dx)
    per = per / norm
    total = total / norm
    meta = {"span_rad_s": 2.0 * half_span, "resolution_rad_s": dx,
            "points": int(2 * m + 1), "lobes_margin": float(lobes),
            "points_per_lobe": float(min_lobe / dx)}
    return SpectralAmplitude(omega=omega, per_segment=per, total=total,
                             grid_meta=meta, segment_points=tuple(points))


def reduce_to_bins(sa: SpectralAmplitude, spec: CrystalSpec) -> BiphotonState:
    """Collapse a two-process spectrum to the bin-qubit parameters.

    Preconditions: exactly two segments, exchange-symmetric grid, and peaks
    separated by more than five bandwidths — otherwise BinReductionError.
    The exchange coherence is maximized over the V-photon compensation delay
    (the two processes emit from different crystal halves, so their raw
    temporal overlap is negligible; an interferometer removes that group
    delay before any interference is observed). The search scans the
    delays within a span set by the group-delay walk-off with one FFT,
    then refines the best one to the root of the overlap's slope by the
    pair solver's ``_bracketed_root``.
    """
    if sa.per_segment.shape[0] != 2:
        raise BinReductionError(
            "two-bin reduction requires exactly two emission processes "
            f"(got {sa.per_segment.shape[0]} segments)")
    omega = sa.omega
    omega_p = TWO_PI * C_M_PER_S / spec.pump_wavelength
    sym_err = np.max(np.abs((omega + omega[::-1]) - omega_p))
    if sym_err > 1e-6 * omega_p:
        raise BinReductionError(
            f"grid is not exchange-symmetric about omega_p/2 "
            f"(max asymmetry {sym_err:.3e} rad/s)")

    points = sa.segment_points
    centers = np.array([TWO_PI * C_M_PER_S / p.signal_wavelength
                        for p in points])
    hi = int(np.argmax(centers))        # process with H photon in bin 1
    lo = 1 - hi

    # bin centers: average the in-bin sub-peaks (identical at the crossing)
    w1 = 0.5 * (centers[hi] + (omega_p - centers[lo]))
    w2 = 0.5 * (centers[lo] + (omega_p - centers[hi]))
    delta_omega = w1 - w2

    dng = [_group_index_mismatch(spec, p) for p in points]
    widths = [dng[j] * spec.segments[j].length / C_M_PER_S for j in range(2)]
    fwhm = [2.0 * 2.783115 / w for w in widths]   # sinc^2 FWHM in rad/s
    if delta_omega <= 5.0 * max(fwhm):
        raise BinReductionError(
            f"bin separation {delta_omega:.3e} rad/s below 5x bandwidth "
            f"{max(fwhm):.3e} rad/s; peaks unresolved")

    d_om = sa.d_omega
    a_hi = sa.per_segment[hi]
    a_lo = sa.per_segment[lo]
    weight_hi = np.sum(np.abs(a_hi) ** 2) * d_om
    weight_lo = np.sum(np.abs(a_lo) ** 2) * d_om
    p = float(weight_hi / (weight_hi + weight_lo))

    # exchange overlap, maximized over the compensation delay
    cross = np.conj(a_hi) * a_lo[::-1] * d_om / np.sqrt(weight_hi * weight_lo)
    theta = 2.0 * omega - omega_p
    theta_cross = theta * cross

    def slope(tau):
        # d|O|^2/dtau = 2 Re(conj(S0) i S1) with S0 = sum(cross e^{i theta
        # tau}) the overlap O and S1 = sum(theta cross e^{i theta tau})
        e = np.exp(1j * tau * theta)
        return -2.0 * (np.conj(cross @ e) * (theta_cross @ e)).imag

    t_span = 1.2 * (sum(widths) + abs(spec.segment_start(hi)
                                      - spec.segment_start(lo))
                    * max(dng) / C_M_PER_S)
    # coarse scan: on the symmetric grid theta = 2 n d_om, so the overlap
    # on the delays tau_k = pi k / (size d_om) is |ifft(cross)| (times
    # size), size the power of two at or above the grid length. The
    # overlap repeats every pi / d_om in tau and the FFT's delays span one
    # such period, so they hold every value even when 2 t_span is longer.
    size = 1 << int(np.ceil(np.log2(len(cross))))
    taus = np.fft.fftshift(np.pi * np.fft.fftfreq(size, d=d_om))
    mags = np.fft.fftshift(np.abs(np.fft.ifft(cross, size)))
    keep = np.abs(taus) <= t_span
    taus, mags = taus[keep], mags[keep]
    k = int(np.argmax(mags))
    tau_star = taus[k]
    a, b = taus[max(k - 1, 0)], taus[min(k + 1, len(taus) - 1)]
    fa, fb = slope(a), slope(b)
    # a maximum lies between a and b only where the slope turns from
    # rising to falling; otherwise the overlap still rises toward the
    # +-t_span edge, and tau_k is kept
    if fa > 0.0 > fb:
        tau_star = _bracketed_root(slope, a, b, fa, fb,
                                   xtol=1e-12 * (b - a))[0]
    o_mag = float(abs(np.sum(cross * np.exp(1j * tau_star * theta))))

    vis = 2.0 * np.sqrt(p * (1.0 - p)) * o_mag

    # relative phase of the two processes at their phase-matched centers
    amp_hi = segment_amplitude(spec, hi, centers[hi])
    amp_lo = segment_amplitude(spec, lo, centers[lo])
    phi = float(np.mod(np.angle(amp_lo) - np.angle(amp_hi), TWO_PI))

    tau_c = 0.5 * sum(widths)
    return BiphotonState(p=p, V=float(min(vis, 1.0)), phi=phi,
                         delta_omega=float(delta_omega), tau_c=float(tau_c),
                         bin_centers=(float(w1), float(w2)),
                         compensation_delay=float(tau_star), spectrum=sa)
