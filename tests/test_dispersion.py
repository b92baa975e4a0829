"""Refractive-index, wavenumber, and group-index behavior.

Hard numbers for the bundled extraordinary/ordinary sets were frozen from an
independent evaluation of the published coefficient polynomials.
"""
from importlib import resources

import numpy as np
import pytest

from freqbin.dispersion import (Axis, OpticalField, SellmeierSet,
                                group_index, load_sellmeier,
                                refractive_index, wavenumber)
from freqbin.entanglement import load_projectors
from freqbin.errors import TemperatureRangeError, WavelengthRangeError
from freqbin.qpm import load_crystal

from conftest import const_set

BUNDLED_SETS = ["cln_e_edwards1984", "cln_o_edwards1984", "cln_e_jundt1997",
                "mgo_cln_e_gayer2008", "mgo_cln_o_gayer2008"]

# independent hand-evaluation of the bundled coefficient sets
ORACLE = {
    ("cln_e_edwards1984", 1.550, 120.0): 2.141952253,
    ("cln_e_edwards1984", 1.506, 120.0): 2.143254514,
    ("cln_o_edwards1984", 1.506, 120.0): 2.213210284,
    ("cln_o_edwards1984", 1.594, 120.0): 2.210208621,
}


@pytest.mark.parametrize("key", sorted(ORACLE))
def test_bundled_sets_match_independent_evaluation(key):
    name, lam_um, t_c = key
    sset = load_sellmeier(name)
    fld = OpticalField(lam_um * 1e-6, "H", t_c)
    assert refractive_index(fld, sset) == pytest.approx(ORACLE[key], abs=1e-8)


@pytest.mark.parametrize("name", BUNDLED_SETS)
def test_index_physical_over_validity_range(name):
    sset = load_sellmeier(name)
    lo, hi = sset.valid_wavelength_um
    tlo, thi = sset.valid_temperature_C
    for t in (tlo, 0.5 * (tlo + thi), thi):
        # interior samples: the um->m->um round trip can push an endpoint
        # a half-ulp outside the inclusive range
        for lam in np.linspace(lo, hi, 202)[1:-1]:
            n = refractive_index(OpticalField(lam * 1e-6, "H", t), sset)
            assert 1.0 < n < 3.0


def test_normal_dispersion_in_telecom_band():
    # n decreasing with wavelength on both axes across the pair band
    for name in ("cln_e_edwards1984", "cln_o_edwards1984"):
        sset = load_sellmeier(name)
        lams = np.linspace(1.45, 1.65, 400)
        ns = [refractive_index(OpticalField(l * 1e-6, "H", 120.0), sset)
              for l in lams]
        assert np.all(np.diff(ns) < 0.0)
        assert ns[0] > ns[-1]


def test_purity_identical_bit_pattern():
    sset = load_sellmeier("cln_e_edwards1984")
    fld = OpticalField(1.55e-6, "H", 118.3)
    assert refractive_index(fld, sset) == refractive_index(fld, sset)
    assert group_index(fld, sset) == group_index(fld, sset)


def test_wavenumber_definition_and_scaling():
    sset = const_set("c", Axis.ORDINARY, 2.2)
    f1 = OpticalField(1.55e-6, "V", 25.0)
    f2 = OpticalField(3.10e-6, "V", 25.0)
    assert wavenumber(f1, sset) == pytest.approx(2 * np.pi * 2.2 / 1.55e-6,
                                                 rel=1e-14)
    # constant n: doubling the wavelength halves k
    assert wavenumber(f1, sset) == pytest.approx(2 * wavenumber(f2, sset),
                                                 rel=1e-14)


def test_wavenumber_matches_index_times_two_pi_over_lambda():
    sset = load_sellmeier("cln_o_edwards1984")
    fld = OpticalField(1.594e-6, "V", 120.0)
    n = refractive_index(fld, sset)
    assert wavenumber(fld, sset) == pytest.approx(2 * np.pi * n / 1.594e-6,
                                                  rel=1e-14)


def test_group_index_constant_set_equals_n():
    sset = const_set("c", Axis.ORDINARY, 2.31)
    fld = OpticalField(1.4e-6, "V", 25.0)
    assert group_index(fld, sset) == pytest.approx(2.31, abs=1e-12)
    assert group_index(fld, sset, method="analytic") == 2.31


def test_group_index_linear_set_closed_form():
    # n = n0 + n1*lam  ->  n_g = n - lam dn/dlam = n0 exactly
    sset = SellmeierSet(name="lin", axis=Axis.EXTRAORDINARY, form="linear",
                        coefficients={"n0": 2.2, "n1": 0.03},
                        temperature_form="none",
                        valid_wavelength_um=(0.2, 6.0),
                        valid_temperature_C=(-50.0, 500.0))
    fld = OpticalField(1.7e-6, "H", 25.0)
    assert group_index(fld, sset, method="analytic") == pytest.approx(
        2.2, abs=1e-14)
    assert group_index(fld, sset) == pytest.approx(2.2, abs=1e-9)


def test_group_index_quadratic_set_closed_form():
    n0, n1, n2 = 2.2, -0.05, 0.775
    sset = SellmeierSet(name="quad", axis=Axis.EXTRAORDINARY,
                        form="quadratic",
                        coefficients={"n0": n0, "n1": n1, "n2": n2},
                        temperature_form="none",
                        valid_wavelength_um=(0.3, 3.0),
                        valid_temperature_C=(-50.0, 500.0))
    lam = 1.4
    expected = n0 + n1 * (lam - n2) ** 2 - 2.0 * n1 * lam * (lam - n2)
    fld = OpticalField(lam * 1e-6, "H", 25.0)
    assert group_index(fld, sset, method="analytic") == pytest.approx(
        expected, abs=1e-13)


def test_group_index_matches_central_difference_of_index():
    # oracle: n - lam dn/dlam with dn/dlam from a central difference of n
    sset = load_sellmeier("cln_e_edwards1984")
    lam, h, t_c = 1.55e-6, 1e-11, 120.0

    def n(x):
        return refractive_index(OpticalField(x, "H", t_c), sset)

    fd = n(lam) - lam * (n(lam + h) - n(lam - h)) / (2.0 * h)
    fld = OpticalField(lam, "H", t_c)
    an = group_index(fld, sset)
    assert abs(fd - an) < 1e-6
    assert an > refractive_index(fld, sset)   # normal dispersion: n_g > n


def test_range_errors_name_the_bound():
    sset = load_sellmeier("cln_e_edwards1984")
    lo, hi = sset.valid_wavelength_um
    with pytest.raises(WavelengthRangeError, match=f"{lo:g}"):
        refractive_index(OpticalField((lo - 0.1) * 1e-6, "H", 120.0), sset)
    tlo, thi = sset.valid_temperature_C
    with pytest.raises(TemperatureRangeError, match=f"{thi:g}"):
        refractive_index(OpticalField(1.55e-6, "H", thi + 1.0), sset)


def test_group_index_finite_at_range_boundary():
    # the bounds themselves (lam/1e6 round-trips exactly for these): the
    # analytic derivative needs no stencil room inside the range
    for name in BUNDLED_SETS:
        sset = load_sellmeier(name)
        for lam_um in sset.valid_wavelength_um:
            fld = OpticalField(lam_um / 1e6, "H", 120.0)
            assert fld.wavelength_um == lam_um
            assert np.isfinite(group_index(fld, sset))


def test_unknown_method_and_unknown_form():
    sset = load_sellmeier("cln_e_edwards1984")
    for method in ("spline", "central"):
        with pytest.raises(ValueError, match="unknown method"):
            group_index(OpticalField(1.55e-6, "H", 120.0), sset,
                        method=method)
    with pytest.raises(ValueError):
        SellmeierSet(name="x", axis=Axis.ORDINARY, form="cubic",
                     coefficients={}, temperature_form="none",
                     valid_wavelength_um=(1, 2), valid_temperature_C=(0, 1))


@pytest.mark.parametrize("loader, kind, name", [
    (load_sellmeier, "sellmeier", "cln_e_edwards1984"),
    (load_crystal, "crystals", "default"),
    (load_projectors, "tomography", "james16")],
    ids=["load_sellmeier", "load_crystal", "load_projectors"])
def test_loaders_read_a_path_or_a_bundled_name(loader, kind, name,
                                              tmp_path):
    with pytest.raises(FileNotFoundError,
                       match=f"no_such_{kind}.*data/{kind}/no_such_{kind}"):
        loader(f"no_such_{kind}")
    bundled = loader(name)
    text = resources.files("freqbin").joinpath(
        f"data/{kind}/{name}.json").read_text(encoding="utf-8")
    # a copy outside the package, with and without the .json suffix
    for copy in (tmp_path / f"{name}.json", tmp_path / name):
        copy.write_text(text, encoding="utf-8")
        loaded = loader(str(copy))
        if loader is load_projectors:   # settings hold numpy kets
            assert [(s.setting_id, s.proj_a, s.proj_b) for s in loaded] == \
                [(s.setting_id, s.proj_a, s.proj_b) for s in bundled]
            for a, b in zip(loaded, bundled):
                assert np.array_equal(a.ket_a, b.ket_a)
                assert np.array_equal(a.ket_b, b.ket_b)
        else:
            assert loaded == bundled


def test_optical_field_validation():
    with pytest.raises(ValueError):
        OpticalField(-1.0e-6, "H", 25.0)
    with pytest.raises(ValueError):
        OpticalField(1.55e-6, "X", 25.0)
    assert OpticalField(1.55e-6, "H", 25.0).wavelength_um == pytest.approx(
        1.55)
