"""freqbin: design and analysis of a two-period quasi-phase-matched
frequency-bin entangled photon-pair source.

Submodules: dispersion (temperature-dependent Sellmeier index library),
qpm (phase-matching solvers), biphoton (joint spectra and two-bin
reduction), hom (Hong-Ou-Mandel model/synthesis/fitting), entanglement
(density matrices, mode conversion, tomography), cli (command line).

Importing the package loads none of them: each public name below is
looked up in its submodule on every access (PEP 562), which imports the
submodule on first use. Nothing is cached here, so the package always
returns what the submodule binds now.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "biphoton": ("BiphotonState", "SpectralAmplitude", "joint_spectrum",
                 "reduce_to_bins", "segment_amplitude"),
    "dispersion": ("Axis", "OpticalField", "Polarization", "SellmeierSet",
                   "group_index", "load_sellmeier"),
    "entanglement": ("DensityMatrix", "Domain", "FREQ_BASIS", "POL_BASIS",
                     "ProjectorSetting", "StateVector", "TomographyDataset",
                     "TomographyResult", "concurrence", "conversion_phase",
                     "fidelity", "ideal_state", "load_projectors",
                     "mle_tomography", "mode_convert", "rho_freq",
                     "simulate_counts", "trace_distance"),
    "errors": ("BasisMismatchError", "BinReductionError",
               "BranchAmbiguityError", "FitConvergenceError",
               "FreqbinError", "GridResolutionError", "NoPhaseMatchError",
               "PhysicalityError", "TemperatureRangeError",
               "TomographyDataError", "WavelengthRangeError"),
    "hom": ("HomFit", "HomParams", "HomScan", "fit_homi", "homi_rate",
            "synthesize_scan"),
    "qpm": ("Branch", "CrystalSpec", "PhaseMatchPoint", "PolingSegment",
            "TuningPoint", "crossing_temperature", "load_crystal",
            "solve_period", "solve_signal_idler", "tuning_curve"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
