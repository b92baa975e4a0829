"""freqbin: design and analysis of a two-period quasi-phase-matched
frequency-bin entangled photon-pair source.

Submodules: dispersion (temperature-dependent Sellmeier index library),
qpm (phase-matching solvers), biphoton (joint spectra and two-bin
reduction), hom (Hong-Ou-Mandel model/synthesis/fitting), entanglement
(density matrices, mode conversion, tomography), cli (command line).
"""

__version__ = "0.1.0"

from .biphoton import (BiphotonState, SpectralAmplitude, joint_spectrum,
                       reduce_to_bins, segment_amplitude)
from .dispersion import (Axis, OpticalField, Polarization, SellmeierSet,
                         group_index, load_sellmeier, refractive_index,
                         wavenumber)
from .entanglement import (DensityMatrix, Domain, FREQ_BASIS, POL_BASIS,
                           ProjectorSetting, StateVector, TomographyDataset,
                           TomographyResult, concurrence, fidelity,
                           ideal_state, load_projectors, mle_tomography,
                           mode_convert, rho_freq, simulate_counts,
                           trace_distance)
from .errors import (BasisMismatchError, BinReductionError,
                     BranchAmbiguityError, FitConvergenceError, FreqbinError,
                     GridResolutionError, NoPhaseMatchError, PhysicalityError,
                     TemperatureRangeError, TomographyDataError,
                     WavelengthRangeError)
from .hom import (HomFit, HomParams, HomScan, fit_homi, homi_rate,
                  synthesize_scan)
from .qpm import (Branch, CrystalSpec, PhaseMatchPoint, PolingSegment,
                  TuningPoint, crossing_temperature, delta_k, load_crystal,
                  solve_period, solve_signal_idler, tuning_curve)

__all__ = [
    # biphoton
    "BiphotonState", "SpectralAmplitude", "joint_spectrum", "reduce_to_bins",
    "segment_amplitude",
    # dispersion
    "Axis", "OpticalField", "Polarization", "SellmeierSet", "group_index",
    "load_sellmeier", "refractive_index", "wavenumber",
    # entanglement
    "DensityMatrix", "Domain", "FREQ_BASIS", "POL_BASIS", "ProjectorSetting",
    "StateVector", "TomographyDataset", "TomographyResult", "concurrence",
    "fidelity", "ideal_state", "load_projectors", "mle_tomography",
    "mode_convert", "rho_freq", "simulate_counts", "trace_distance",
    # errors
    "BasisMismatchError", "BinReductionError", "BranchAmbiguityError",
    "FitConvergenceError", "FreqbinError", "GridResolutionError",
    "NoPhaseMatchError", "PhysicalityError", "TemperatureRangeError",
    "TomographyDataError", "WavelengthRangeError",
    # hom
    "HomFit", "HomParams", "HomScan", "fit_homi", "homi_rate",
    "synthesize_scan",
    # qpm
    "Branch", "CrystalSpec", "PhaseMatchPoint", "PolingSegment",
    "TuningPoint", "crossing_temperature", "delta_k", "load_crystal",
    "solve_period", "solve_signal_idler", "tuning_curve",
]
