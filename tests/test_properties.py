"""Property tests: checkpoint headers and bodies, config text round trip,
Bregman gaps, the functionals' quadrature.

Examples are drawn deterministically (derandomize) and no example database
is written, so a run is reproducible and leaves no files behind.
"""

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shocklab as sl
from shocklab.config import config_to_text
from shocklab.functionals import _dot, _trapezoid_weights

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


def checkpoint_bytes(t, shift, v, h):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "state.chk")
        sl.write_checkpoint(path, t, shift, v, h)
        with open(path, "rb") as f:
            return f.read()


def read_bytes(raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "state.chk")
        with open(path, "wb") as f:
            f.write(raw)
        return sl.read_checkpoint(path)


@PROPERTY
@given(n=st.integers(1, 40), t=finite, shift=finite, data=st.data())
def test_checkpoint_roundtrip_and_truncation(n, t, shift, data):
    rng = np.random.default_rng(n)
    v, h = rng.uniform(0.5, 2.0, n), rng.standard_normal(n)
    raw = checkpoint_bytes(t, shift, v, h)
    assert len(raw) == 32 + 16 * n
    t2, shift2, v2, h2 = read_bytes(raw)
    assert (t2, shift2) == (t, shift)
    assert np.array_equal(v2, v) and np.array_equal(h2, h)
    # any truncation, and any trailing bytes, is a ValueError
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    extra = data.draw(st.binary(min_size=1, max_size=24), label="extra")
    for bad in (raw[:cut], raw + extra):
        try:
            read_bytes(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted a checkpoint of {len(bad)} bytes")


@PROPERTY
@given(count=st.integers(-2 ** 63, 2 ** 63 - 1), t=st.floats(), shift=st.floats(),
       n=st.integers(1, 8))
def test_checkpoint_header_fuzz(count, t, shift, n):
    # a header is accepted only if its n matches the file and t, shift are
    # finite; any other header is a ValueError, never an allocation of n
    body = np.arange(1, 2 * n + 1, dtype="<f8").tobytes()  # a valid body: v > 0
    raw = (b"SHCKPT01" + np.array([count], "<i8").tobytes()
           + np.array([t, shift], "<f8").tobytes() + body)
    valid = count == n and np.isfinite(t) and np.isfinite(shift)
    try:
        t2, shift2, v, h = read_bytes(raw)
    except ValueError:
        assert not valid
    else:
        assert valid and (t2, shift2) == (t, shift) and v.size == h.size == n


non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@PROPERTY
@given(n=st.integers(1, 40), which=st.sampled_from(["v", "h"]), data=st.data())
def test_checkpoint_rejects_a_body_no_march_can_start_from(n, which, data):
    # a non-finite v or h, or a v <= 0, is refused on write and rejected on
    # read, with the array named
    rng = np.random.default_rng(n)
    state = {"v": rng.uniform(0.5, 2.0, n), "h": rng.standard_normal(n)}
    bad = data.draw(non_finite if which == "h" else
                    st.one_of(non_finite, st.floats(max_value=0.0)), label="bad")
    state[which][data.draw(st.integers(0, n - 1), label="index")] = bad
    message = f"non-finite {which}" if not np.isfinite(bad) else "v <= 0"
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "state.chk")
        with pytest.raises(ValueError, match=message):
            sl.write_checkpoint(path, 0.0, 0.0, state["v"], state["h"])
        assert not os.path.exists(path)
    raw = (b"SHCKPT01" + np.array([n], "<i8").tobytes() + np.zeros(2, "<f8").tobytes()
           + state["v"].astype("<f8").tobytes() + state["h"].astype("<f8").tobytes())
    with pytest.raises(ValueError, match=message):
        read_bytes(raw)


def _value_strategy(f):
    if f.type is bool:
        return st.booleans()
    if f.type is int:
        return st.integers(-10 ** 12, 10 ** 12)
    if f.type is float:
        return finite
    return st.sampled_from(
        {"perturb_kind": ["none", "bump", "random-fourier", "large-amplitude"],
         "h_mode": ["direct", "from-velocity"]}[f.name])


any_config_values = st.fixed_dictionaries(
    {f.name: _value_strategy(f) for f in dataclasses.fields(sl.ExperimentConfig)})


@PROPERTY
@given(values=any_config_values)
def test_config_text_roundtrip_of_any_typed_values(values):
    # the text form carries every field's value and type; range checks are
    # validate()'s job, so the values here need not make a runnable config
    cfg = sl.ExperimentConfig(**values)
    assert sl.parse_config_text(config_to_text(cfg)) == dataclasses.asdict(cfg)


@PROPERTY
@given(eps=st.floats(0.01, 0.5), lam=st.floats(1e-3, 0.5), amplitude=st.floats(-0.05, 0.05),
       modes=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1), relax=st.booleans(),
       kind=st.sampled_from(["none", "bump", "random-fourier", "large-amplitude"]),
       h_mode=st.sampled_from(["direct", "from-velocity"]))
def test_config_text_roundtrip_through_validation(eps, lam, amplitude, modes, seed, relax,
                                                  kind, h_mode):
    assume(not (relax and kind == "large-amplitude"))  # a config error
    # so are more modes than the grid resolves on the support: width / dx
    assume(kind != "random-fourier" or modes <= 20.0 * eps * 50)
    cfg = sl.ExperimentConfig(eps=eps, lam=lam, amplitude=amplitude, modes=modes, seed=seed,
                              steady_relax=relax, perturb_kind=kind, h_mode=h_mode).validate()
    again = sl.apply_overrides(sl.ExperimentConfig(), sl.parse_config_text(config_to_text(cfg)))
    assert again == cfg


@PROPERTY
@given(gamma=st.floats(1.05, 5.0), v=st.floats(0.05, 20.0), w=st.floats(0.05, 20.0))
def test_bregman_gaps_are_nonnegative_and_vanish_on_the_diagonal(gamma, v, w):
    gas = sl.GasModel(gamma, 1.0)
    q_rel = float(gas.q_relative(v, w))
    p_rel = float(gas.p_relative(v, w))
    # both gaps are differences of O(1) terms, so near v = w the computed
    # value is the true (tiny, positive) gap plus a few ulps of those terms
    ulp = np.finfo(float).eps
    q_terms = abs(gas.entropy(v)) + abs(gas.entropy(w)) + abs(gas.pressure(w) * (v - w))
    p_terms = abs(gas.pressure(v)) + abs(gas.pressure(w)) + abs(gas.dpressure(w) * (v - w))
    assert q_rel >= -4.0 * ulp * q_terms
    assert p_rel >= -4.0 * ulp * p_terms
    assert gas.q_relative(w, w) == 0.0
    assert gas.p_relative(w, w) == 0.0


# normal magnitudes or zero, so that no product or partial sum is subnormal
entry = st.floats(-1e3, 1e3).map(lambda z: z if abs(z) >= 1e-100 else 0.0)


@PROPERTY
@given(data=st.data(), n=st.integers(2, 300), dx=st.floats(1e-3, 1.0))
def test_quad_is_the_trapezoid_rule_to_rounding(data, n, dx):
    # the functionals' quadrature <tw f, g> with the folded trapezoid weights
    # tw and np.trapezoid sum the same terms in different orders; each is
    # within gamma_{n+4} dx sum|f_i g_i| of the exact trapezoid sum (the
    # products, at most n + 1 additions, the end terms, the dx scaling),
    # with gamma_k = k u / (1 - k u)
    f = np.array(data.draw(st.lists(entry, min_size=n, max_size=n), label="f"))
    g = np.array(data.draw(st.lists(entry, min_size=n, max_size=n), label="g"))
    k, u = n + 4, np.finfo(float).eps / 2
    bound = 2.0 * k * u / (1.0 - k * u) * dx * float(np.sum(np.abs(f * g)))
    tw = _trapezoid_weights(dx * np.arange(n))
    assert abs(_dot(tw * f, g) - np.trapezoid(f * g, dx=dx)) <= bound
