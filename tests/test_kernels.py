"""Kernel-level oracles.

The packed Sellmeier evaluation is checked against an independent in-test
reimplementation of the published two-pole form and against the closed
forms of the toy sets; the analytic dn/dlam and the HOM Jacobian against
finite differences. Array calls of the index kernels must equal their
elementwise scalar calls exactly, for every form.
"""
import numpy as np
import pytest

from freqbin import _kernels
from freqbin.dispersion import load_sellmeier

EDWARDS_E = load_sellmeier("cln_e_edwards1984")._pack

TOY_PACKS = {
    "constant": np.array([0.0, 2.31] + [0.0] * 11),
    "linear": np.array([1.0, 2.2, 0.03] + [0.0] * 10),
    "quadratic": np.array([2.0, 2.2, -0.05, 0.775] + [0.0] * 9),
}


def test_independent_sellmeier_reimplementation():
    # recompute n from the pack layout with fresh arithmetic
    def oracle(lam, t, p):
        f = (t - p[11]) * (t + p[12])
        l2 = lam ** 2
        n2 = (p[1] + p[7] * f
              + (p[2] + p[8] * f) / (l2 - (p[3] + p[9] * f) ** 2)
              + (p[4] + p[10] * f) / (l2 - p[5] ** 2)
              - p[6] * l2)
        return np.sqrt(n2)

    for lam in (0.775, 1.45, 1.55, 1.65, 2.5):
        for t in (25.0, 115.785109042, 200.0):
            assert _kernels.index_n(lam, t, EDWARDS_E) == pytest.approx(
                oracle(lam, t, EDWARDS_E), rel=1e-15)


@pytest.mark.parametrize("name", sorted(TOY_PACKS))
def test_toy_form_codes(name):
    pack = TOY_PACKS[name]
    lam, t = 1.4, 50.0
    n = _kernels.index_n(lam, t, pack)
    if name == "constant":
        assert n == 2.31
        assert _kernels.index_dn_dlam(lam, t, pack) == 0.0
    elif name == "linear":
        assert n == pytest.approx(2.2 + 0.03 * lam, rel=1e-15)
        assert _kernels.index_dn_dlam(lam, t, pack) == pytest.approx(
            0.03, rel=1e-15)
    else:
        assert n == pytest.approx(2.2 - 0.05 * (lam - 0.775) ** 2,
                                  rel=1e-15)
        assert _kernels.index_dn_dlam(lam, t, pack) == pytest.approx(
            -0.1 * (lam - 0.775), rel=1e-15)


def test_analytic_derivative_matches_finite_difference():
    h = 1e-6
    for lam in (1.45, 1.55, 1.65):
        fd = (_kernels.index_n(lam + h, 120.0, EDWARDS_E)
              - _kernels.index_n(lam - h, 120.0, EDWARDS_E)) / (2 * h)
        an = _kernels.index_dn_dlam(lam, 120.0, EDWARDS_E)
        assert an == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("pack", [EDWARDS_E] + list(TOY_PACKS.values()),
                         ids=["edwards", "constant", "linear", "quadratic"])
def test_array_call_equals_elementwise_scalar_calls(pack):
    lams = np.linspace(1.3, 1.8, 57).reshape(3, 19)
    t = 118.0
    for kernel in (_kernels.index_n, _kernels.index_dn_dlam):
        many = kernel(lams, t, pack)
        assert isinstance(many, np.ndarray) and many.shape == lams.shape
        each = np.array([[kernel(float(lam), t, pack) for lam in row]
                         for row in lams])
        assert np.array_equal(many, each)


def test_homi_jac_matches_finite_difference():
    tau = np.array([-1.7e-12, -0.4e-12, 0.3e-12, 1.1e-12, 2.9e-12])
    args = np.array([2000.0, 0.8, 2 * np.pi * 9e12, 2.1e-12, 0.11e-12])
    jac = _kernels.homi_jac(tau, *args)
    rel_h = 1e-7
    for j in range(5):
        h = rel_h * max(abs(args[j]), 1e-13)
        up, dn = args.copy(), args.copy()
        up[j] += h
        dn[j] -= h
        fd = (_kernels.homi_curve(tau, *up)
              - _kernels.homi_curve(tau, *dn)) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-30)
        assert np.max(np.abs(jac[:, j] - fd)) / scale < 1e-6, f"column {j}"


def test_homi_curve_outside_envelope_is_flat_half():
    tau = np.array([-5e-12, 4e-12, 9e-12])
    out = _kernels.homi_curve(tau, 3.0, 0.9, 2 * np.pi * 11.5e12,
                              2.4e-12, 0.0)
    assert np.all(out == 1.5)
    jac = _kernels.homi_jac(tau, 3.0, 0.9, 2 * np.pi * 11.5e12,
                            2.4e-12, 0.0)
    assert np.array_equal(jac[:, 1:], np.zeros((3, 4)))
    assert np.all(jac[:, 0] == 0.5)
