"""Weighted relative-entropy functionals and their decompositions."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import shocklab as sl
from shocklab.functionals import _dot, _yb_kernel, weighted_q_probe
from shocklab.solver import _d1


@pytest.fixture(scope="module")
def wide_x(setup_default):
    return setup_default.grid.x


@pytest.fixture(scope="module")
def frame01(weight01, wide_x):
    return sl.functional_frame(weight01, wide_x)


def perturbed_state(profile, x, amp=0.01, seed=5):
    rng = np.random.default_rng(seed)
    base = np.exp(-((x - 2.0) / 6.0) ** 2)
    wob = np.exp(-(x / 15.0) ** 2) * np.cos(0.7 * x)
    v = profile.v_profile(x) + amp * base + 0.3 * amp * wob
    h = profile.h_profile(x) + amp * np.exp(-((x + 4.0) / 8.0) ** 2)
    return v, h


def test_all_functionals_vanish_at_profile(profile01, frame01, wide_x):
    x = wide_x
    bd = sl.compute_breakdown(profile01.v_profile(x), profile01.h_profile(x), frame01)
    for name in ("Y", "Y_g", "Y_b", "Y_l", "B1", "B2", "B", "G1", "G2", "D", "G"):
        assert abs(getattr(bd, name)) < 1e-13, name
    assert abs(bd.weighted_entropy) < 1e-13


def test_decomposition_identities(profile01, frame01, wide_x):
    v, h = perturbed_state(profile01, wide_x)
    bd = sl.compute_breakdown(v, h, frame01)
    assert abs(bd.Y - (bd.Y_g + bd.Y_b + bd.Y_l)) < 1e-14
    assert abs(bd.B - (bd.B1 + bd.B2)) < 1e-14
    assert abs(bd.G - (bd.G1 + bd.G2 + bd.D)) < 1e-14


def test_sign_structure(profile01, frame01, wide_x):
    # good terms are nonnegative by construction, for any admissible state
    for seed in range(5):
        v, h = perturbed_state(profile01, wide_x, amp=0.02, seed=seed)
        bd = sl.compute_breakdown(v, h, frame01)
        assert bd.G1 >= 0 and bd.G2 >= 0 and bd.D >= 0
        assert bd.B1 >= 0  # sigma * v_tilde' > 0 and p(v|v_tilde) >= 0
        assert bd.weighted_entropy > 0


def test_entropy_weight_sandwich(profile01, frame01, wide_x):
    # a in [1/2, 1] pinches the weighted entropy between half and one times
    # the unweighted relative entropy
    v, h = perturbed_state(profile01, wide_x)
    bd = sl.compute_breakdown(v, h, frame01)
    gas = profile01.states.gas
    eta = sl.eta_relative(gas, v, h, profile01.v_profile(wide_x),
                          profile01.h_profile(wide_x))
    unweighted = np.trapezoid(eta, wide_x)
    assert 0.5 * unweighted - 1e-12 <= bd.weighted_entropy <= unweighted + 1e-12


def test_quick_yb_agrees_with_breakdown(profile01, weight01, wide_x):
    v, h = perturbed_state(profile01, wide_x)
    p = profile01.gas.pressure(v)
    for shift in (0.0, 0.37, -1.2):
        frame = sl.functional_frame(weight01, wide_x - shift)
        bd = sl.compute_breakdown(v, h, frame)
        Y, B = sl.quick_yb(v, h, p, frame)
        # one kernel computes both, so they agree to the last bit
        assert Y == bd.Y
        assert B == bd.B


def test_shift_moves_frame(profile01, weight01, wide_x):
    # a state equal to a translated profile scores zero at the matching
    # shift (a shifted frame is built at the points x - shift)
    x = wide_x
    v = profile01.v_profile(x + 0.8)
    h = profile01.h_profile(x + 0.8)
    bd0 = sl.compute_breakdown(v, h, sl.functional_frame(weight01, x))
    bd1 = sl.compute_breakdown(v, h, sl.functional_frame(weight01, x + 0.8))
    assert bd1.weighted_entropy < 1e-13
    assert bd0.weighted_entropy > 1e-5
    assert abs(bd1.Y) < 1e-13


def test_truncation_clips_toward_profile(profile01, frame01, wide_x):
    x = wide_x
    v = profile01.v_profile(x) - 0.05 * np.exp(-(x / 10.0) ** 2)
    level = 0.02
    vt = sl.truncate_state(v, frame01, level)
    p = profile01.states.gas.pressure
    w_before = p(v) - profile01.pressure_profile(x)
    w_after = p(vt) - profile01.pressure_profile(x)
    assert np.max(np.abs(w_after)) <= level + 1e-12
    # clipping never increases the pressure deviation and keeps its sign
    assert np.all(np.abs(w_after) <= np.abs(w_before) + 1e-14)
    assert np.all(w_after * w_before >= -1e-16)


def test_truncation_identity_below_level(profile01, frame01, wide_x):
    x = wide_x
    v = profile01.v_profile(x) - 1e-4 * np.exp(-(x / 10.0) ** 2)
    vt = sl.truncate_state(v, frame01, 0.02)
    npt.assert_allclose(vt, v, rtol=0, atol=1e-14)


def test_bd_relative_functional_properties(profile01, wide_x):
    x = wide_x
    st = profile01.states
    v_tilde = profile01.v_profile(x)
    u_tilde = profile01.h_profile(x) - profile01.dpressure_profile(x)
    assert sl.bd_relative_functional(x, v_tilde, u_tilde, profile01) < 1e-12
    v = v_tilde + 0.02 * np.exp(-(x / 8.0) ** 2)
    val = sl.bd_relative_functional(x, v, u_tilde, profile01)
    assert val > 0


def test_normalized_layer_variables(profile01, weight01, wide_x):
    x = wide_x
    v = profile01.v_profile(x) + 1e-3 * np.exp(-(x / 5.0) ** 2)
    y, W = sl.normalized_layer_variables(x, v, weight01)
    assert np.all(np.diff(y) > 0)
    assert y[0] >= 1e-3 - 1e-12 and y[-1] <= 1.0 - 1e-3 + 1e-12
    # at the exact profile W vanishes identically
    y0, W0 = sl.normalized_layer_variables(x, profile01.v_profile(x), weight01)
    assert np.abs(W0).max() < 1e-12


def test_normalized_layer_variables_against_scipys_cubic_spline(profile01, weight01, wide_x):
    # the cubic Hermite form with central-difference slopes is third order in
    # dx: 3.8e-6 of max|W| off scipy's spline on the bump state, and about 8
    # times closer at half the spacing
    from scipy.interpolate import CubicSpline

    gas = profile01.gas

    def error(x):
        v = profile01.v_profile(x) + 1e-3 * np.exp(-(x / 5.0) ** 2)
        y, W = sl.normalized_layer_variables(x, v, weight01)
        w_ref = CubicSpline(x, gas.pressure(v) - profile01.pressure_profile(x))
        W_ref = (weight01.lam / profile01.eps) * w_ref(profile01.xi_of_y(y))
        return np.max(np.abs(W - W_ref)) / np.max(np.abs(W_ref))

    coarse = error(wide_x)
    fine = error(np.linspace(wide_x[0], wide_x[-1], 2 * wide_x.size - 1))
    assert coarse < 5e-6
    assert coarse / fine > 6.0


def test_normalized_layer_variables_window_check(profile01, weight01):
    x = np.linspace(-40.0, 40.0, 401)  # far narrower than the layer window
    v = profile01.v_profile(x)
    with pytest.raises(ValueError):
        sl.normalized_layer_variables(x, v, weight01)


def test_normalized_layer_variables_needs_a_uniform_grid(profile01, weight01, wide_x):
    x = wide_x.copy()
    x[2000] += 0.05  # one point moved by a quarter of dx
    with pytest.raises(ValueError, match="uniform"):
        sl.normalized_layer_variables(x, profile01.v_profile(x), weight01)


def test_weighted_q_probe_smoke(profile01, weight01):
    rep = weighted_q_probe(weight01)
    eps, lam = 0.1, 0.5
    assert rep["t_star"] > 0
    # the nontrivial zero of Y sits at t ~ eps/lam
    assert 0.5 < rep["t_star_over_eps_by_lam"] < 2.5
    # the weighted Q integral at that state scales like eps^2/lam
    assert 0.05 < rep["ratio"] < 20.0


def test_kernel_relative_quantities_match_gas_closures_bitwise(profile01, weight01, wide_x):
    # the kernel takes p(v) from its caller, evaluates q(v) once and takes
    # the closures at v_tilde from the frame; the results must be the
    # GasModel ones, bit for bit.  p(v|v_tilde) enters only B1, so it is
    # checked through B1: bit for bit against the same folded dot product,
    # and within the rounding bound of the integral written out.
    v, h = perturbed_state(profile01, wide_x)
    gas, sig = profile01.gas, profile01.sigma
    xi = wide_x - 0.37
    fr = sl.functional_frame(weight01, xi)
    out = _yb_kernel(v, h, gas.pressure(v), fr)
    assert np.array_equal(out[5], gas.q_relative(v, fr["v"]))
    assert out[1] == _dot(fr["tb1"], gas.p_relative(v, fr["v"]))
    pf = weight01.frame(xi)
    terms = [(sig, pf["a"], pf["dv"] * gas.p_relative(v, pf["v"]))]
    assert abs(out[1] - sig * quad(pf["a"], terms[0][2], fr["dx"])) <= folded_gap_bound(terms, fr["dx"])
    assert np.array_equal(out[3], gas.pressure(v) - pf["p"])


def quad(f, g, dx):
    """The trapezoid rule for int f*g on a uniform grid, written out: one
    dot product less half the end terms."""
    return float(dx * (np.einsum("i,i", f, g) - 0.5 * (f[0] * g[0] + f[-1] * g[-1])))


def folded_gap_bound(terms, dx):
    """How far a value sum c*quad(f, g) over `terms` [(c, f, g)] and the same
    value from a functional frame may lie apart in floating point.

    Both are sums of the same exact terms c dx_i f_i g_i (dx_i the trapezoid
    weight).  Each term picks up at most n + 10 roundings on either side:
    n - 1 additions in the dot product, and at most 11 operations besides
    (the frame's constant vector or the pointwise product f*g, the product in
    the dot, the end terms and dx of quad, the coefficient c, and up to three
    additions that join the integrals of one value).  So each side lies
    within gamma_{n+10} M of the exact value, M = sum |c| dx sum |f_i g_i|,
    with gamma_k = k u / (1 - k u), and the two within twice that.
    """
    k, u = terms[0][1].size + 10, np.finfo(float).eps / 2
    M = sum(abs(c) * dx * float(np.sum(np.abs(f * g))) for c, f, g in terms)
    return 2.0 * k * u / (1.0 - k * u) * M


def reference_terms(xi, v, h, weight):
    """Every value of the breakdown at the frame points xi with its integrals
    written out from the weight frame's own fields and the GasModel
    closures: name -> [(c, f, g)], the value being sum c*quad(f, g)."""
    dx = xi[1] - xi[0]
    gas, sig = weight.profile.gas, weight.profile.sigma
    pf = weight.frame(xi)
    a, da, d2a = pf["a"], pf["da"], pf["d2a"]
    dv = v - pf["v"]
    w = gas.pressure(v) - pf["p"]
    dh = h - pf["h"]
    q_rel = gas.q_relative(v, pf["v"])
    eta = 0.5 * dh ** 2 + q_rel
    b = dh - w / sig
    terms = {
        "weighted_entropy": [(1.0, a, eta)],
        "Y": [(-1.0, da, eta), (1.0, a, -pf["dp"] * dv + pf["dh"] * dh)],
        "Y_g": [(-1.0 / (2.0 * sig * sig), da, w ** 2), (-1.0, da, q_rel),
                (-1.0, a, pf["dp"] * dv), (1.0 / sig, a, pf["dh"] * w)],
        "Y_b": [(-0.5, da, b ** 2), (-1.0 / sig, da, w * b)],
        "Y_l": [(1.0, a, pf["dh"] * b)],
        "B1": [(sig, a, pf["dv"] * gas.p_relative(v, pf["v"]))],
        "B2": [(1.0 / (2.0 * sig), da, w ** 2), (0.5, d2a, w ** 2)],
        "G1": [(0.5 * sig, da, b ** 2)],
        "G2": [(sig, da, q_rel)],
        "D": [(1.0, a, _d1(w, dx) ** 2)],
    }
    terms["B"] = terms["B1"] + terms["B2"]
    terms["G"] = terms["G1"] + terms["G2"] + terms["D"]
    return terms, float(np.max(np.abs(w)))


def reference_breakdown(xi, v, h, weight):
    """The functional breakdown from reference_terms, one quad(f, g) per
    integral; returns the values and the terms."""
    terms, sup_w = reference_terms(xi, v, h, weight)
    dx = xi[1] - xi[0]
    ref = {name: sum(c * quad(f, g, dx) for c, f, g in t) for name, t in terms.items()}
    return {**ref, "sup_w": sup_w}, terms


def breakdown_gaps(bd, ref, terms, dx):
    """name -> (|value - reference|, folded_gap_bound) for every integral of bd."""
    return {name: (abs(getattr(bd, name) - ref[name]), folded_gap_bound(t, dx))
            for name, t in terms.items()}


def end_weighted_state(profile, x, seed):
    """A perturbed state whose h is off the profile by a constant, so that
    the integrands do not vanish at the two ends and the end weights count."""
    v, h = perturbed_state(profile, x, amp=0.02, seed=seed)
    return v, h + 0.01


@pytest.mark.parametrize("shift", [0.0, 0.37, -1.2])
def test_kernel_and_breakdown_match_the_integrals_written_out(profile01, weight01, wide_x,
                                                              shift):
    # the kernel and the breakdown read a functional frame; every value must
    # be the one written out from the weight frame and the GasModel
    # closures, one quad(f, g) per integral, up to the rounding of the two
    # forms (folded_gap_bound); sup_w is the same max, bit for bit
    xi = wide_x - shift
    fr = sl.functional_frame(weight01, xi)
    for seed in (5, 6):
        v, h = end_weighted_state(profile01, wide_x, seed)
        ref, terms = reference_breakdown(xi, v, h, weight01)
        assert sum(len(terms[name]) for name in terms if name not in ("B", "G")) == 16
        gas = profile01.gas
        bd = sl.compute_breakdown(v, h, fr)
        assert (bd.Y, bd.B1, bd.B2) == _yb_kernel(v, h, gas.pressure(v), fr)[:3]
        for name, (gap, bound) in breakdown_gaps(bd, ref, terms, fr["dx"]).items():
            assert gap <= bound, (name, gap, bound)
        assert bd.sup_w == ref["sup_w"]
        for f in dataclasses.fields(bd):
            assert type(getattr(bd, f.name)) is float, f.name


def test_a_frame_without_the_half_end_weights_fails_the_gap_bound(profile01, weight01,
                                                                  wide_x):
    # negative control: the same frame with full weight dx at the two ends
    # (the rectangle rule) reads the state's end terms at twice their weight
    fr = sl.functional_frame(weight01, wide_x)
    bad = dict(fr)
    for key in ("ta", "tda", "ta_dp", "ta_dh", "tb1", "tb2"):
        bad[key] = fr[key].copy()
        bad[key][[0, -1]] *= 2.0
    v, h = end_weighted_state(profile01, wide_x, 5)
    ref, terms = reference_breakdown(wide_x, v, h, weight01)
    gaps = breakdown_gaps(sl.compute_breakdown(v, h, bad), ref, terms, fr["dx"])
    gap, bound = gaps["weighted_entropy"]
    assert gap > 1e3 * bound


QUICK_YB_BITS = """
import shocklab as sl
setup = sl.build_setup(sl.ExperimentConfig(cells_per_layer=500))
assert setup.grid.x.size == 40001
state = sl.experiment.initial_state(setup)
p = setup.gas.pressure(state.v)
Y, B = sl.quick_yb(state.v, state.h, p, sl.functional_frame(setup.weight, setup.grid.x - 0.37))
print(Y.hex(), B.hex())
"""


def test_quick_yb_bits_do_not_depend_on_the_blas_thread_count():
    # BLAS ddot (np.dot, @) may sum in a thread-count dependent order; the
    # functionals' quadrature must not
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        out.append(subprocess.run([sys.executable, "-c", QUICK_YB_BITS], env=env,
                                  capture_output=True, text=True, check=True).stdout)
    assert out[0] == out[1] and len(out[0].split()) == 2
