"""Refractive-index and group-index behavior.

Hard numbers for the bundled extraordinary/ordinary sets were frozen from an
independent evaluation of the published coefficient polynomials. A set's
own evaluation is checked against an independent in-test reimplementation
of the two-pole formula, the closed forms of toy sets built from it, and a
central difference of n for the analytic dn/dlam; its array calls must
equal its elementwise scalar calls exactly. Scalar values are read as
the solvers read them: ``check_range`` first, then ``SellmeierSet.index``
(``conftest.checked_index``).
"""
import json
from importlib import resources

import numpy as np
import pytest

from freqbin.dispersion import (Axis, OpticalField, SellmeierSet,
                                group_index, load_sellmeier)
from freqbin.entanglement import load_projectors
from freqbin.errors import TemperatureRangeError, WavelengthRangeError
from freqbin.qpm import load_crystal

from conftest import checked_index, const_set, wavenumber

BUNDLED_SETS = ["cln_e_edwards1984", "cln_o_edwards1984", "cln_e_jundt1997",
                "mgo_cln_e_gayer2008", "mgo_cln_o_gayer2008"]

# toy sets of the two-pole formula: a dispersionless index (only a1), and
# an index whose square is linear in lam^2 (only a1 and a6)
TOY_COEFFICIENTS = {
    "constant": {"a1": 2.31 ** 2},
    "linear": {"a1": 4.9, "a6": 0.02},
}


def toy_set(name, coefficients):
    return SellmeierSet(name=name, axis=Axis.EXTRAORDINARY,
                        coefficients=coefficients,
                        valid_wavelength_um=(0.2, 6.0),
                        valid_temperature_C=(-50.0, 500.0))


def bundled_json(name):
    return json.loads(resources.files("freqbin").joinpath(
        f"data/sellmeier/{name}.json").read_text(encoding="utf-8"))


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
    assert checked_index(sset, lam_um, t_c) == pytest.approx(ORACLE[key],
                                                             abs=1e-8)


def test_independent_sellmeier_reimplementation():
    # recompute n from the file's named coefficients with fresh arithmetic
    sset = load_sellmeier("cln_e_edwards1984")
    c = bundled_json("cln_e_edwards1984")["coefficients"]

    def oracle(lam, t):
        f = (t - c["t0"]) * (t + c["t1"])
        l2 = lam ** 2
        n2 = (c["a1"] + c["b1"] * f
              + (c["a2"] + c["b2"] * f) / (l2 - (c["a3"] + c["b3"] * f) ** 2)
              + (c["a4"] + c["b4"] * f) / (l2 - c["a5"] ** 2)
              - c["a6"] * l2)
        return np.sqrt(n2)

    for lam in (0.775, 1.45, 1.55, 1.65, 2.5):
        for t in (25.0, 115.785109042, 200.0):
            assert sset.index(lam, t) == pytest.approx(oracle(lam, t),
                                                       rel=1e-15)


def test_analytic_derivative_matches_finite_difference():
    sset = load_sellmeier("cln_e_edwards1984")
    h = 1e-6
    for lam in (1.45, 1.55, 1.65):
        fd = (sset.index(lam + h, 120.0)
              - sset.index(lam - h, 120.0)) / (2 * h)
        assert sset.dn_dlam(lam, 120.0) == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("name", ["edwards"] + sorted(TOY_COEFFICIENTS))
def test_array_call_equals_elementwise_scalar_calls(name):
    sset = (load_sellmeier("cln_e_edwards1984") if name == "edwards"
            else toy_set(name, TOY_COEFFICIENTS[name]))
    lams = np.linspace(1.3, 1.8, 57).reshape(3, 19)
    t = 118.0
    for evaluate in (sset.index, sset.dn_dlam):
        many = evaluate(lams, t)
        assert isinstance(many, np.ndarray) and many.shape == lams.shape
        each = np.array([[evaluate(float(lam), t) for lam in row]
                         for row in lams])
        assert np.array_equal(many, each)


def test_unknown_coefficient_names_are_rejected():
    # a misspelled name used to be dropped without a word: "A2" for "a2"
    # moved n at 1550 nm and 110 C from 2.141496 to 2.131655
    raw = bundled_json("cln_e_edwards1984")
    coefficients = dict(raw["coefficients"])
    coefficients["A2"] = coefficients.pop("a2")
    with pytest.raises(ValueError, match="'A2'"):
        SellmeierSet(name=raw["name"], axis=Axis.EXTRAORDINARY,
                     coefficients=coefficients,
                     valid_wavelength_um=(0.4, 3.1),
                     valid_temperature_C=(20.0, 250.0))
    # names the formula reads but the dict omits are 0
    coefficients = toy_set("constant", {"a1": 5.3}).coefficients
    assert coefficients.pop("a1") == 5.3
    assert len(coefficients) == 11 and set(coefficients.values()) == {0.0}


def test_bundled_files_list_every_coefficient_their_form_reads():
    folder = resources.files("freqbin").joinpath("data/sellmeier")
    names = sorted(f.name[:-5] for f in folder.iterdir()
                   if f.name.endswith(".json"))
    assert names == sorted(BUNDLED_SETS)
    for name in names:
        listed = set(bundled_json(name)["coefficients"])
        assert listed == set(load_sellmeier(name).coefficients), name


@pytest.mark.parametrize("name", BUNDLED_SETS)
def test_index_physical_over_validity_range(name):
    sset = load_sellmeier(name)
    lo, hi = sset.valid_wavelength_um
    tlo, thi = sset.valid_temperature_C
    for t in (tlo, 0.5 * (tlo + thi), thi):
        for lam in np.linspace(lo, hi, 202):    # the ends included
            n = checked_index(sset, float(lam), t)
            assert 1.0 < n < 3.0


def test_normal_dispersion_in_telecom_band():
    # n decreasing with wavelength on both axes across the pair band
    for name in ("cln_e_edwards1984", "cln_o_edwards1984"):
        sset = load_sellmeier(name)
        lams = np.linspace(1.45, 1.65, 400)
        ns = [checked_index(sset, l, 120.0) for l in lams]
        assert np.all(np.diff(ns) < 0.0)
        assert ns[0] > ns[-1]


def test_purity_identical_bit_pattern():
    sset = load_sellmeier("cln_e_edwards1984")
    fld = OpticalField(1.55e-6, "H", 118.3)
    assert checked_index(sset, 1.55, 118.3) == checked_index(sset, 1.55,
                                                             118.3)
    assert group_index(fld, sset) == group_index(fld, sset)


def test_wavenumber_definition_and_scaling():
    # the tests' scalar wavenumber oracle (conftest.wavenumber)
    sset = const_set("c", Axis.ORDINARY, 2.2)
    k1 = wavenumber(sset, 1.55e-6, 25.0)
    assert k1 == pytest.approx(2 * np.pi * 2.2 / 1.55e-6, rel=1e-14)
    # constant n: doubling the wavelength halves k
    assert k1 == pytest.approx(2 * wavenumber(sset, 3.10e-6, 25.0),
                               rel=1e-14)


def test_wavenumber_matches_index_times_two_pi_over_lambda():
    sset = load_sellmeier("cln_o_edwards1984")
    n = checked_index(sset, 1.594, 120.0)
    assert wavenumber(sset, 1.594e-6, 120.0) == pytest.approx(
        2 * np.pi * n / 1.594e-6, rel=1e-14)


def test_group_index_constant_set_equals_n():
    sset = const_set("c", Axis.ORDINARY, 2.31)
    fld = OpticalField(1.4e-6, "V", 25.0)
    assert checked_index(sset, 1.4, 25.0) == 2.31
    assert sset.dn_dlam(1.4, 25.0) == 0.0
    assert group_index(fld, sset, method="analytic") == 2.31


def test_group_index_linear_set_closed_form():
    # n^2 = a1 - a6 lam^2  ->  dn/dlam = -a6 lam/n, n_g = a1/n
    coefficients = TOY_COEFFICIENTS["linear"]
    a1, a6 = coefficients["a1"], coefficients["a6"]
    sset = toy_set("linear", coefficients)
    lam = 1.7
    fld = OpticalField(lam * 1e-6, "H", 25.0)
    n = np.sqrt(a1 - a6 * lam ** 2)
    assert checked_index(sset, lam, 25.0) == pytest.approx(n, rel=1e-15)
    assert sset.dn_dlam(lam, 25.0) == pytest.approx(-a6 * lam / n, rel=1e-14)
    assert group_index(fld, sset) == pytest.approx(a1 / n, rel=1e-14)


def test_group_index_matches_central_difference_of_index():
    # oracle: n - lam dn/dlam with dn/dlam from a central difference of n
    sset = load_sellmeier("cln_e_edwards1984")
    lam, h, t_c = 1.55e-6, 1e-11, 120.0

    def n(x):
        return checked_index(sset, x * 1e6, t_c)

    fd = n(lam) - lam * (n(lam + h) - n(lam - h)) / (2.0 * h)
    fld = OpticalField(lam, "H", t_c)
    an = group_index(fld, sset)
    assert abs(fd - an) < 1e-6
    assert an > n(lam)   # normal dispersion: n_g > n


def test_range_errors_name_the_bound():
    sset = load_sellmeier("cln_e_edwards1984")
    lo, hi = sset.valid_wavelength_um
    with pytest.raises(WavelengthRangeError, match=f"{lo:g}"):
        checked_index(sset, lo - 0.1, 120.0)
    tlo, thi = sset.valid_temperature_C
    with pytest.raises(TemperatureRangeError, match=f"{thi:g}"):
        checked_index(sset, 1.55, thi + 1.0)


def test_group_index_finite_at_range_boundary():
    # the bounds themselves (lam/1e6 round-trips exactly for these): the
    # analytic derivative needs no stencil room inside the range
    for name in BUNDLED_SETS:
        sset = load_sellmeier(name)
        for lam_um in sset.valid_wavelength_um:
            fld = OpticalField(lam_um / 1e6, "H", 120.0)
            assert fld.wavelength_um == lam_um
            assert np.isfinite(group_index(fld, sset))


def test_unknown_method_and_unknown_form(tmp_path):
    sset = load_sellmeier("cln_e_edwards1984")
    for method in ("spline", "central"):
        with pytest.raises(ValueError, match="unknown method"):
            group_index(OpticalField(1.55e-6, "H", 120.0), sset,
                        method=method)
    # a file of the retired toy forms names its form: it is refused, not
    # read as a two-pole set
    raw = {**bundled_json("cln_e_edwards1984"), "form": "cubic",
           "temperature_form": "none"}
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match=r"unknown key\(s\) \['form', "
                                         r"'temperature_form'\]"):
        load_sellmeier(str(path))


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
