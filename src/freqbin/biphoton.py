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
``reduce_to_bins`` takes phi = arg A_lo - arg A_hi from this form, as
2 pi [(z_lo - L_tot)/Lambda_lo - (z_hi - L_tot)/Lambda_hi] (mod 2 pi).

``joint_spectrum`` evaluates kappa and S on its grid once and builds
every segment's amplitude from them, as ``segment_amplitude`` does for
one segment. ``reduce_to_bins`` scans the compensation delay with one
FFT of the exchange overlap O(tau) = sum(cross e^{i theta tau}), then
finds the root of d|O|^2/dtau by Newton steps through
``qpm._bracketed_root``, the package's one root finder, which falls back
to Illinois steps inside the bracket. The curvature that Newton needs,
2 (|S1|^2 - Re(conj(S0) S2)), reuses the slope's exponential.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BinReductionError, GridResolutionError,
                     PhysicalityError)
from .qpm import (C_M_PER_S, CrystalSpec, TWO_PI, _bracketed_root,
                  _check_span, _mismatch, _pair_sets, _solve_rows, _solved)


@dataclass(frozen=True)
class SpectralAmplitude:
    """Sampled biphoton amplitude on a signal-frequency grid.

    ``omega`` is the H-photon angular frequency [rad/s], symmetric about
    omega_p/2 so that the signal<->idler exchange omega -> omega_p - omega
    is exactly an array reversal (``grid_meta["omega_p_rad_s"]`` holds
    omega_p). ``per_segment[j]`` holds segment j's complex amplitude;
    ``total`` their coherent sum, normalized so that sum(|total|^2) *
    d_omega = 1. ``segment_geometry[j]`` holds segment j's phase-matched
    frequency [rad/s] and |n_g,i - n_g,s| (``_group_index_mismatch``).
    """

    omega: np.ndarray
    per_segment: np.ndarray
    total: np.ndarray
    grid_meta: dict
    segment_points: tuple = field(repr=False)
    segment_geometry: tuple = field(repr=False)

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


def _grid_mismatch(spec: CrystalSpec, omega: np.ndarray) -> tuple:
    """kappa = k_p - k_s - k_i and S = k_s + k_i [rad/m] at H-photon
    frequencies ``omega`` [rad/s], every wavelength range-checked: the
    dispersion every segment's amplitude reads."""
    sets = _pair_sets(spec)
    lam_s_um = TWO_PI * C_M_PER_S * 1e6 / omega
    t_c, lam_p_um = spec.temperature, spec.pump_wavelength * 1e6
    _check_span(sets, t_c, lam_p_um, lam_s_um.min(), lam_s_um.max())
    return tuple(1e6 * k for k in _mismatch(sets, t_c, lam_p_um, lam_s_um))


def _amplitude(spec: CrystalSpec, segment_index: int, kappa, big_s, out):
    """Segment ``segment_index``'s amplitude from ``_grid_mismatch``,
    written into the complex array ``out`` of their shape. Each grid-sized
    intermediate is formed in place where the operation order allows."""
    seg = spec.segments[segment_index]
    half_dk_l = kappa - TWO_PI / seg.period
    half_dk_l *= 0.5
    half_dk_l *= seg.length                 # dk L / 2
    # sin(x)/x at x = dk L/2: numpy's sinc is sin(pi x)/(pi x)
    amp = np.sinc(half_dk_l / np.pi)
    amp *= seg.amplitude_scale * seg.length
    phase = kappa * spec.segment_start(segment_index)
    phase += half_dk_l
    del half_dk_l
    phase += big_s * spec.total_length
    np.multiply(phase, 1j, out=out)
    np.exp(out, out=out)
    out *= amp


def segment_amplitude(spec: CrystalSpec, segment_index: int, omega_s):
    """Complex emission amplitude of one segment at H-photon frequency(ies).

    Follows the exit-face convention in the module docstring; magnitude is
    amplitude_scale * L * |sinc(dk L/2)| (meters), so at exact phase match
    |A| = scale * L.
    """
    omega = np.asarray(omega_s, dtype=float)
    out = np.empty(omega.shape, dtype=complex)
    _amplitude(spec, segment_index, *_grid_mismatch(spec, omega), out)
    return complex(out) if omega.ndim == 0 else out


def _group_index_mismatch(spec, points) -> np.ndarray:
    """|n_g,i - n_g,s| of each solved pair: the daughters' group-velocity
    mismatch, which sets the sinc lobe width and the walk-off delay. The
    pairs were range-checked when they were solved."""
    _, s_set, i_set = _pair_sets(spec)
    lam_s, lam_i = 1e6 * np.array([(p.signal_wavelength, p.idler_wavelength)
                                   for p in points]).T
    return np.abs(i_set.group_index(lam_i, spec.temperature)
                  - s_set.group_index(lam_s, spec.temperature))


def joint_spectrum(spec: CrystalSpec, n_points: int = 4097,
                   lobes: float = 6.0) -> SpectralAmplitude:
    """Coherent per-segment amplitudes on a shared exchange-symmetric grid.

    The grid is built symmetric about omega_p/2 (including the midpoint),
    spanning every segment's phase-matched peak plus ``lobes`` sinc lobes of
    margin, with at least 20 points per main lobe enforced. ``lobes``
    must be positive: a margin at or below zero would cut into the peaks.
    ``n_points`` must be at least 17; an even count gives one point more.
    """
    if not lobes > 0.0:
        raise ValueError(f"lobes must be positive, not {lobes}")
    if not n_points >= 17:
        raise ValueError(f"n_points must be at least 17, not {n_points}")
    points = [_solved(_solve_rows(spec, j, spec.temperature,
                                  spec.pump_wavelength))[0]
              for j in range(len(spec.segments))]
    omega_p = TWO_PI * C_M_PER_S / spec.pump_wavelength
    dng = _group_index_mismatch(spec, points)
    geometry = tuple((TWO_PI * C_M_PER_S / p.signal_wavelength, float(d))
                     for p, d in zip(points, dng))
    lobe_w = [2.0 * TWO_PI * C_M_PER_S / (d * seg.length)
              for (_, d), seg in zip(geometry, spec.segments)]
    half_span = max(abs(c - 0.5 * omega_p) + lobes * lw
                    for (c, _), lw in zip(geometry, lobe_w))

    m = int(n_points) // 2
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

    kappa, big_s = _grid_mismatch(spec, omega)
    # each row is written and normalized in place: one copy of the
    # amplitudes, whose grid-sized arrays set a design task's peak memory
    per = np.empty((len(spec.segments), len(omega)), dtype=complex)
    for j, row in enumerate(per):
        _amplitude(spec, j, kappa, big_s, row)
    del kappa, big_s
    total = per.sum(axis=0)
    norm = np.sqrt(np.sum(np.abs(total) ** 2) * dx)
    per /= norm
    total /= norm
    meta = {"span_rad_s": 2.0 * half_span, "resolution_rad_s": dx,
            "points": int(2 * m + 1), "lobes_margin": float(lobes),
            "points_per_lobe": float(min_lobe / dx), "omega_p_rad_s": omega_p}
    return SpectralAmplitude(omega=omega, per_segment=per, total=total,
                             grid_meta=meta, segment_points=tuple(points),
                             segment_geometry=geometry)


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
    pair solver's ``_bracketed_root``, in Newton steps on the overlap's
    curvature.
    """
    if sa.per_segment.shape[0] != 2:
        raise BinReductionError(
            "two-bin reduction requires exactly two emission processes "
            f"(got {sa.per_segment.shape[0]} segments)")
    omega = sa.omega
    omega_p = sa.grid_meta["omega_p_rad_s"]
    sym_err = np.max(np.abs((omega + omega[::-1]) - omega_p))
    if sym_err > 1e-6 * omega_p:
        raise BinReductionError(
            f"grid is not exchange-symmetric about omega_p/2 "
            f"(max asymmetry {sym_err:.3e} rad/s)")

    centers, dng = zip(*sa.segment_geometry)
    hi = int(np.argmax(centers))        # process with H photon in bin 1
    lo = 1 - hi

    # bin centers: average the in-bin sub-peaks (identical at the crossing)
    w1 = 0.5 * (centers[hi] + (omega_p - centers[lo]))
    w2 = 0.5 * (centers[lo] + (omega_p - centers[hi]))
    delta_omega = w1 - w2

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
    cross = np.conj(a_hi)
    cross *= a_lo[::-1]
    cross *= d_om
    cross /= np.sqrt(weight_hi * weight_lo)

    t_span = 1.2 * (sum(widths) + abs(spec.segment_start(hi)
                                      - spec.segment_start(lo))
                    * max(dng) / C_M_PER_S)
    # coarse scan: on the symmetric grid theta = 2 n d_om, so the overlap
    # on the delays tau_k = pi k / (size d_om) is |ifft(cross)| (times
    # size), size the power of two at or above the grid length. The
    # overlap repeats every pi / d_om in tau and the FFT's delays span one
    # such period, so they hold every value even when 2 t_span is longer.
    # Only the delays in the span are formed. The scan only ranks delays,
    # so it runs in single precision, which halves the transform's
    # buffers, the largest arrays a design task holds at once; the
    # refinement below works in double precision.
    size = 1 << int(np.ceil(np.log2(len(cross))))
    step = 1.0 / (size * d_om)         # np.fft.fftfreq's, times pi below
    k_max = min(int(t_span / (np.pi * step)) + 1, size // 2)
    ks = np.arange(-k_max, k_max)
    taus = np.pi * (ks * step)
    keep = np.abs(taus) <= t_span
    ks, taus = ks[keep], taus[keep]
    mags = np.abs(np.fft.ifft(cross.astype(np.complex64), size)[ks])
    k = int(np.argmax(mags))
    tau_star = taus[k]
    a, b = taus[max(k - 1, 0)], taus[min(k + 1, len(taus) - 1)]
    theta = 2.0 * omega - omega_p
    overlaps = {}       # the overlap O at each delay the slope is taken

    def slope(tau):
        # d|O|^2/dtau = 2 Re(conj(S0) i S1) and its derivative
        # 2 (|S1|^2 - Re(conj(S0) S2)), with Sm = sum(theta^m cross
        # e^{i theta tau}) and S0 the overlap O: one exponential for both
        w = (1j * tau) * theta
        np.exp(w, out=w)
        w *= cross
        s0 = overlaps[tau] = w.sum()
        w *= theta
        s1 = w.sum()
        w *= theta
        s2 = w.sum()
        return (-2.0 * (s0.conjugate() * s1).imag,
                2.0 * (abs(s1) ** 2 - (s0.conjugate() * s2).real))

    (fa, dfa), (fb, dfb) = slope(a), slope(b)
    # a maximum lies between a and b only where the slope turns from
    # rising to falling; otherwise the overlap still rises toward the
    # +-t_span edge, and tau_k is kept. Newton's steps start from the end
    # whose own Newton step is the shorter.
    if fa > 0.0 > fb:
        if abs(fa * dfb) < abs(fb * dfa):
            a, b, fa, fb, dfb = b, a, fb, fa, dfa
        tau_star = _bracketed_root(slope, a, b, fa, fb,
                                   xtol=1e-12 * abs(b - a), dfb=dfb)[0]
        overlap = overlaps[tau_star]    # the search's last point
    else:
        overlap = np.sum(cross * np.exp(1j * tau_star * theta))
    o_mag = float(abs(overlap))

    vis = 2.0 * np.sqrt(p * (1.0 - p)) * o_mag

    # relative phase of the two processes at their phase-matched centers,
    # in the closed form of the module docstring
    z_lo, z_hi = (spec.segment_start(j) - spec.total_length for j in (lo, hi))
    phi = float(np.mod(TWO_PI * (z_lo / spec.segments[lo].period
                                 - z_hi / spec.segments[hi].period), TWO_PI))

    tau_c = 0.5 * sum(widths)
    return BiphotonState(p=p, V=float(min(vis, 1.0)), phi=phi,
                         delta_omega=float(delta_omega), tau_c=float(tau_c),
                         bin_centers=(float(w1), float(w2)),
                         compensation_delay=float(tau_star), spectrum=sa)
