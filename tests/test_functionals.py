"""Weighted relative-entropy functionals and their decompositions."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import shocklab as sl
from references import p_relative, q_relative
from shocklab.functionals import _dot, _yb_kernel, breakdown_work, weighted_q_probe
from shocklab.solver import central_gradient


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
    fr = profile.frame(x)
    v = fr["v"] + amp * base + 0.3 * amp * wob
    h = fr["h"] + amp * np.exp(-((x + 4.0) / 8.0) ** 2)
    return v, h


def test_all_functionals_vanish_at_profile(profile01, frame01, wide_x):
    fr = profile01.frame(wide_x)
    bd = sl.compute_breakdown(fr["v"], fr["h"], frame01)
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
    fr = profile01.frame(wide_x)
    eta = 0.5 * (h - fr["h"]) ** 2 + q_relative(gas, v, fr["v"])
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
    fr = profile01.frame(x + 0.8)
    v, h = fr["v"], fr["h"]
    bd0 = sl.compute_breakdown(v, h, sl.functional_frame(weight01, x))
    bd1 = sl.compute_breakdown(v, h, sl.functional_frame(weight01, x + 0.8))
    assert bd1.weighted_entropy < 1e-13
    assert bd0.weighted_entropy > 1e-5
    assert abs(bd1.Y) < 1e-13


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
    assert np.array_equal(out[5], q_relative(gas, v, fr["v"]))
    assert out[1] == _dot(fr["tb1"], p_relative(gas, v, fr["v"]))
    pf = weight01.frame(xi)
    terms = [(sig, pf["a"], pf["dv"] * p_relative(gas, v, pf["v"]))]
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
    q_rel = q_relative(gas, v, pf["v"])
    eta = 0.5 * dh ** 2 + q_rel
    b = dh - w / sig
    terms = {
        "weighted_entropy": [(1.0, a, eta)],
        "Y": [(-1.0, da, eta), (1.0, a, -pf["dp"] * dv + pf["dh"] * dh)],
        "Y_g": [(-1.0 / (2.0 * sig * sig), da, w ** 2), (-1.0, da, q_rel),
                (-1.0, a, pf["dp"] * dv), (1.0 / sig, a, pf["dh"] * w)],
        "Y_b": [(-0.5, da, b ** 2), (-1.0 / sig, da, w * b)],
        "Y_l": [(1.0, a, pf["dh"] * b)],
        "B1": [(sig, a, pf["dv"] * p_relative(gas, v, pf["v"]))],
        "B2": [(1.0 / (2.0 * sig), da, w ** 2), (0.5, d2a, w ** 2)],
        "G1": [(0.5 * sig, da, b ** 2)],
        "G2": [(sig, da, q_rel)],
        "D": [(1.0, a, np.gradient(w, dx) ** 2)],
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


def state_block(profile, x, seeds):
    """A (K, n) block of perturbed states, one seed per row."""
    rows = [perturbed_state(profile, x, amp=0.02, seed=seed) for seed in seeds]
    return np.array([v for v, _ in rows]), np.array([h for _, h in rows])


@pytest.mark.parametrize("gamma", [1.4, 2.0])
def test_block_kernel_in_place_is_the_plain_closures_bit_for_bit(gamma):
    # the kernel computes p(v), q(v|v_tilde) and p(v|v_tilde) of a block into
    # its workspace by np.power(..., out=); numpy's ** takes np.reciprocal for
    # q(v) = v**-1 at gamma 2, and the reference closures are written in **
    gas = sl.GasModel(gamma)
    weight = sl.build_weight(sl.solve_profile(gas, 0.1), 0.5)
    x = np.linspace(-60.0, 60.0, 1201)
    fr = sl.functional_frame(weight, x)
    V, H = state_block(weight.profile, x, seeds=(1, 2, 3))
    work = breakdown_work(V.shape)
    p = gas.pressure(V, out=work[4])
    assert p is work[4]
    assert p.tobytes() == (V ** -gamma).tobytes() == gas.pressure(V).tobytes()
    _yb_kernel(V, H, p, fr, work)
    w, q_rel, p_rel = work[1], work[3], work[4]
    assert w.tobytes() == (V ** -gamma - fr["p"]).tobytes()
    assert q_rel.tobytes() == q_relative(gas, V, fr["v"]).tobytes()
    assert p_rel.tobytes() == p_relative(gas, V, fr["v"]).tobytes()


def test_a_block_breakdown_in_a_workspace_allocates_less_than_one_block_array(
        profile01, frame01, wide_x):
    # every (K, n) temporary goes into the workspace: what is left are the K
    # values of each field, so the traced peak stays under one K*n array
    V, H = state_block(profile01, wide_x, seeds=range(4))
    work = breakdown_work(V.shape)
    tracemalloc.start()
    try:
        sl.compute_breakdown(V, H, frame01, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < V.nbytes, (peak, V.nbytes)


def test_a_nan_filled_workspace_gives_the_bits_of_a_fresh_one(profile01, frame01, wide_x):
    # the kernel reads no workspace entry that it did not write first
    V, H = state_block(profile01, wide_x, seeds=range(3))
    for v, h in ((V, H), (V[1], H[1])):
        work = breakdown_work(v.shape)
        for a in work:
            a.fill(np.nan)
        fresh = sl.compute_breakdown(v, h, frame01)
        got = sl.compute_breakdown(v, h, frame01, work)
        for f in dataclasses.fields(fresh):
            assert np.asarray(getattr(got, f.name)).tobytes() == \
                np.asarray(getattr(fresh, f.name)).tobytes(), f.name
        for a in work:
            a.fill(np.nan)
        p = profile01.gas.pressure(v)
        got, fresh = sl.quick_yb(v, h, p, frame01, work), sl.quick_yb(v, h, p, frame01)
        assert np.asarray(got).tobytes() == np.asarray(fresh).tobytes()


# The equations are invariant under u -> u + c (h = u + d_xi p(v) shifts with
# u), which is why the left velocity is fixed at 0.  In floating point a shift
# is exact only up to rounding: with u = eps/2 the unit roundoff and M = max|h|
# (max over h and h_tilde where both shift), fl(h_i + c) = h_i + c + delta_i
# with |delta_i| <= u (|c| + M).  The bounds below are that rounding carried
# through each evaluation to first order in u, plus the evaluation's own
# rounding in each of the two computations, and then doubled.
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def d1(f, dx):
    return (f[2:] - f[:-2]) / (2.0 * dx)


@pytest.mark.parametrize("c", [1.0, 1e3])
def test_rhs_moves_by_roundoff_under_a_shift_of_h(profile01, setup_default, c):
    # The rhs is linear in h and its central differences cancel c, so the
    # shift enters as d1(delta), |d1(delta)| <= u (|c| + M)/dx: into dv as
    # is, into dh times |sigma|.  Besides, each interior row takes 4 rounded
    # operations after h enters (d1h: the subtraction and the division; dv:
    # the addition and the subtraction; dh: the product with sigma and the
    # subtraction), each within u of a value no larger than its row's term
    # sum T (T_v = |sigma d1v| + |d1h| + |d2p|, T_h = |sigma d1h| + |d1p|),
    # in each computation; the operations on v and p alone are the same bits
    # in both.  So |ddv| <= u (|c| + M)/dx + 8 u T_v and |ddh| <= |sigma|
    # u (|c| + M)/dx + 8 u T_h.
    grid, sig = setup_default.grid, profile01.sigma
    v, h = perturbed_state(profile01, grid.x)
    p = profile01.gas.pressure(v)
    dv, dh = sl.semi_discrete_rhs(sig, grid, v, h, p)
    dv_c, dh_c = sl.semi_discrete_rhs(sig, grid, v, h + c, p)
    dx, u, M = grid.dx, UNIT_ROUNDOFF, np.max(np.abs(h))
    d2p = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (dx * dx)
    T_v = np.abs(sig * d1(v, dx)) + np.abs(d1(h, dx)) + np.abs(d2p)
    T_h = np.abs(sig * d1(h, dx)) + np.abs(d1(p, dx))
    bound_v = 2.0 * (u * (abs(c) + M) / dx + 8.0 * u * T_v)
    bound_h = 2.0 * (abs(sig) * u * (abs(c) + M) / dx + 8.0 * u * T_h)
    assert np.all(np.abs(dv_c - dv)[1:-1] <= bound_v)
    assert np.all(np.abs(dh_c - dh)[1:-1] <= bound_h)
    assert dv_c[0] == dv_c[-1] == dh_c[0] == dh_c[-1] == 0.0
    # of the order of eps (|c| + max|h|)/dx
    assert np.max(bound_v) < 10.0 * np.finfo(float).eps * (abs(c) + M) / dx


@pytest.mark.parametrize("c", [1.0, 1e3])
def test_breakdown_moves_by_roundoff_when_h_and_the_frame_shift_together(
        profile01, frame01, wide_x, c):
    # h and the frame's h_tilde each round within u (|c| + M) of the shift,
    # and dh = h - h_tilde within u |dh|, in each computation: the two dh
    # differ by at most D = 2 u (|c| + M + max|dh|).  B reads v and p alone
    # (B1 from p(v|v_tilde), B2 from w^2), so it keeps its bits.  Y reads dh
    # in int ta_dh dh and, through eta = dh^2/2 + q(v|v_tilde), in int tda
    # eta; G in G1 = sigma/2 int tda b^2 with b = dh - w/sigma.  To first
    # order the shift moves them by D sum(|ta_dh| + |tda| |dh|) and by
    # |sigma| D sum(|tda| |b|).  Each evaluation rounds too: a term passes
    # through at most 5 pointwise operations and one n-term sum, so each
    # computation is within gamma = (n + 5) u / (1 - (n + 5) u) of S, the sum
    # of the absolute values of its terms (for G, G1 + G2 + D: sigma < 0 and
    # a' <= 0 make every term of each the same sign).
    v, h = perturbed_state(profile01, wide_x)
    fr = frame01
    shifted = {**fr, "h": fr["h"] + c}
    base = sl.compute_breakdown(v, h, fr)
    moved = sl.compute_breakdown(v, h + c, shifted)

    u, sig, n = UNIT_ROUNDOFF, fr["sigma"], v.size
    gas = fr["gas"]
    dh = h - fr["h"]
    w = gas.pressure(v) - fr["p"]
    q_rel = q_relative(gas, v, fr["v"])
    b = dh - w / sig
    M = max(np.max(np.abs(h)), np.max(np.abs(fr["h"])))
    D = 2.0 * u * (abs(c) + M + np.max(np.abs(dh)))
    gamma = (n + 5) * u / (1.0 - (n + 5) * u)
    S_Y = np.sum(np.abs(fr["ta_dh"] * dh) + np.abs(fr["tda"]) * (0.5 * dh * dh + np.abs(q_rel))
                 + np.abs(fr["ta_dp"] * (v - fr["v"])))
    S_G = abs(base.G1) + abs(base.G2) + abs(base.D)
    bound_Y = 2.0 * (D * np.sum(np.abs(fr["ta_dh"]) + np.abs(fr["tda"] * dh)) + 2.0 * gamma * S_Y)
    bound_G = 2.0 * (abs(sig) * D * np.sum(np.abs(fr["tda"] * b)) + 2.0 * gamma * S_G)

    assert moved.B == base.B
    assert abs(moved.Y - base.Y) <= bound_Y
    assert abs(moved.G - base.G) <= bound_G
    # negative control: h shifted without its frame moves Y by far more
    alone = sl.compute_breakdown(v, h + c, fr)
    assert abs(alone.Y - base.Y) > 1e6 * bound_Y


# The equations are also covariant under a scaling of the left volume
# (`GasModel`): v -> k v, u and h -> k**((1-gamma)/2) u, x -> b x with
# b = k**(-(gamma+1)/2) (t fixed), p and eps -> k**-gamma p, so Y scales by
# k**(1-gamma) and the weighted entropy, B, G and D by b k**(1-gamma).  That
# is why the left volume is fixed at 1.  At gamma = 3 and k = 4 every factor
# is a power of two (b = 1/16), so each rounded operation on scaled inputs is
# the scaled operation, bit for bit: only the gas's pow, which computes p(v)
# and q(v) afresh from the scaled v, rounds differently.  pow is within 1 ulp
# of the exact value, so the scaled p(v) and q(v) are within 2 ulp <= 4u of
# the scaled originals; the bounds below carry that through each functional
# to first order, add each computation's own rounding as in the gauge tests
# above, and double the sum.
COV_GAMMA, COV_K = 3.0, 4.0


def covariant_scales(gamma, k, h_exp=None):
    """The factor of each frame entry and state field under the scaling with
    k, with h scaled by k**h_exp (the covariant exponent (1-gamma)/2 if None)."""
    b = k ** (-(gamma + 1.0) / 2.0)
    h = k ** ((1.0 - gamma) / 2.0 if h_exp is None else h_exp)
    p = k ** -gamma
    return {"dx": b, "sigma": b, "v": k, "p": p, "h": h, "dpv": p / k, "pv": p,
            "qv": k ** (1.0 - gamma), "ta": b, "tda": 1.0, "ta_dp": p, "ta_dh": h,
            "tb1": b * k, "tb2": 1.0 / b}


@pytest.fixture(scope="module")
def covariance_case():
    gas = sl.GasModel(COV_GAMMA)
    weight = sl.build_weight(sl.solve_profile(gas, 0.1), 0.5)
    grid = sl.Grid(lo=-200.0, hi=200.0, n=4000)
    fr = sl.functional_frame(weight, grid.x)
    v, h = perturbed_state(weight.profile, grid.x, amp=0.02)
    return gas, grid, fr, v, h


def scaled_case(case, h_exp=None):
    gas, grid, fr, v, h = case
    s = covariant_scales(COV_GAMMA, COV_K, h_exp)
    frame = {**fr, **{key: fr[key] * s[key] for key in s}}
    return (sl.Grid(lo=grid.lo * s["dx"], hi=grid.hi * s["dx"], n=grid.n), frame,
            v * s["v"], h * s["h"], gas.pressure(v) * s["p"])


def test_rhs_maps_bit_for_bit_under_the_left_volume_scaling(covariance_case):
    # every operation of the rhs is a product, quotient or sum of terms that
    # each scale by the same power of two; p is passed in, so no pow runs
    gas, grid, fr, v, h = covariance_case
    dv, dh = sl.semi_discrete_rhs(fr["sigma"], grid, v, h, gas.pressure(v))
    grid_k, fr_k, v_k, h_k, p_k = scaled_case(covariance_case)
    dv_k, dh_k = sl.semi_discrete_rhs(fr_k["sigma"], grid_k, v_k, h_k, p_k)
    s = covariant_scales(COV_GAMMA, COV_K)
    assert (dv_k / s["v"]).tobytes() == dv.tobytes()
    assert (dh_k / s["h"]).tobytes() == dh.tobytes()
    # negative control: h scaled by k**-1.5, not k**-1, moves dv by far more
    # than roundoff
    grid_k, fr_k, v_k, h_k, p_k = scaled_case(covariance_case, h_exp=-1.5)
    dv_w, _ = sl.semi_discrete_rhs(fr_k["sigma"], grid_k, v_k, h_k, p_k)
    assert np.max(np.abs(dv_w / s["v"] - dv)) > 1e6 * np.finfo(float).eps * np.max(np.abs(dv))


def covariance_bounds(frame, v, h, u=UNIT_ROUNDOFF):
    """Bounds on |F(scaled) - scale*F| for Y, B, the weighted entropy, G and D
    of the state (v, h) on the scaled frame, where p(v) and q(v) differ from
    the scaled originals by at most 4u of themselves (comment above)."""
    gas, sig, n = frame["gas"], frame["sigma"], v.size
    p, q = gas.pressure(v), gas.entropy(v)
    dp, dq = 4.0 * u * np.abs(p), 4.0 * u * np.abs(q)
    dv, dh, w = v - frame["v"], h - frame["h"], p - frame["p"]
    q_rel = q - frame["qv"] + frame["pv"] * dv
    p_rel = p - frame["pv"] - frame["dpv"] * dv
    b = dh - w / sig
    g = central_gradient(w, frame["dx"])
    dg = np.empty(n)
    dg[1:-1] = (dp[2:] + dp[:-2]) / (2.0 * frame["dx"])
    dg[[0, -1]] = (dp[[0, -1]] + dp[[1, -2]]) / frame["dx"]
    ta, tda = frame["ta"], np.abs(frame["tda"])
    eta = 0.5 * dh * dh + q_rel
    gamma = (n + 5) * u / (1.0 - (n + 5) * u)
    G1, G2, D = 0.5 * sig * np.sum(tda * b * b), sig * np.sum(tda * q_rel), np.sum(ta * g * g)
    moved = {
        "Y": np.sum(tda * dq),
        "B": np.sum(np.abs(frame["tb1"]) * dp + np.abs(frame["tb2"]) * (2.0 * np.abs(w) + dp) * dp),
        "weighted_entropy": np.sum(ta * dq),
        "G": (np.sum(tda * (np.abs(b) * dp + dp * dp / (2.0 * abs(sig)))) + abs(sig) * np.sum(tda * dq)
              + np.sum(ta * (2.0 * np.abs(g) + dg) * dg)),
        "D": np.sum(ta * (2.0 * np.abs(g) + dg) * dg),
    }
    rounded = {
        "Y": np.sum(np.abs(frame["ta_dh"] * dh) + tda * (0.5 * dh * dh + np.abs(q_rel))
                    + np.abs(frame["ta_dp"] * dv)),
        "B": np.sum(np.abs(frame["tb1"] * p_rel) + np.abs(frame["tb2"]) * w * w),
        "weighted_entropy": np.sum(ta * np.abs(eta)),
        "G": abs(G1) + abs(G2) + abs(D),
        "D": abs(D),
    }
    return {key: 2.0 * (moved[key] + 2.0 * gamma * rounded[key]) for key in moved}


def test_functionals_map_under_the_left_volume_scaling(covariance_case):
    # Y by k**(1-gamma) = 1/16; B, G, D and the weighted entropy by
    # b k**(1-gamma) = 1/256
    gas, _, fr, v, h = covariance_case
    _, fr_k, v_k, h_k, p_k = scaled_case(covariance_case)
    s = covariant_scales(COV_GAMMA, COV_K)
    s_Y = s["qv"]
    s_B = s["qv"] * s["dx"]
    bounds = covariance_bounds(fr_k, v_k, h_k)
    # quick_yb is given the scaled p, so only q(v)'s pow moves Y, and B keeps its bits
    Y, B = sl.quick_yb(v, h, gas.pressure(v), fr)
    Y_k, B_k = sl.quick_yb(v_k, h_k, p_k, fr_k)
    assert B_k == B * s_B
    assert abs(Y_k - Y * s_Y) <= bounds["Y"]
    bd, bd_k = sl.compute_breakdown(v, h, fr), sl.compute_breakdown(v_k, h_k, fr_k)
    for key, scale in (("Y", s_Y), ("B", s_B), ("weighted_entropy", s_B), ("G", s_B),
                       ("D", s_B)):
        assert abs(getattr(bd_k, key) - getattr(bd, key) * scale) <= bounds[key], key
        # each bound is roundoff of its functional, not of its order
        assert bounds[key] < 1e-10 * abs(getattr(bd_k, key)), key
    # negative control: h scaled by k**-1.5, not k**-1, moves Y by far more
    _, fr_w, v_w, h_w, p_w = scaled_case(covariance_case, h_exp=-1.5)
    Y_w, _ = sl.quick_yb(v_w, h_w, p_w, fr_w)
    assert abs(Y_w - Y * s_Y) > 1e6 * covariance_bounds(fr_w, v_w, h_w)["Y"]
