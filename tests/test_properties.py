"""Property tests: config text round trip, Bregman gaps, the functionals'
quadrature.

Examples are drawn deterministically (derandomize) and no example database
is written, so a run is reproducible and leaves no files behind.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import shocklab as sl
from references import config_to_text, p_relative, q_relative
from shocklab.functionals import _dot, _trapezoid_weights

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


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
    gas = sl.GasModel(gamma)
    q_rel = float(q_relative(gas, v, w))
    p_rel = float(p_relative(gas, v, w))
    # both gaps are differences of O(1) terms, so near v = w the computed
    # value is the true (tiny, positive) gap plus a few ulps of those terms
    ulp = np.finfo(float).eps
    q_terms = abs(gas.entropy(v)) + abs(gas.entropy(w)) + abs(gas.pressure(w) * (v - w))
    p_terms = abs(gas.pressure(v)) + abs(gas.pressure(w)) + abs(gas.dpressure(w) * (v - w))
    assert q_rel >= -4.0 * ulp * q_terms
    assert p_rel >= -4.0 * ulp * p_terms
    assert q_relative(gas, w, w) == 0.0
    assert p_relative(gas, w, w) == 0.0


def entries(n):
    """n floats drawn as one block of 8n bytes: each 8-byte word w gives
    +-m 10^e, the sign from bit 63, e in [-100, 3] from bits 52-62 and m in
    [0, 1) from bits 0-51; values under 1e-100 become 0, so that the values
    are normal or zero and no product or partial sum is subnormal."""
    def decode(raw):
        w = np.frombuffer(raw, dtype="<u8")
        e = ((w >> 52) & 0x7FF).astype(np.int64) % 104 - 100
        z = np.where(w >> 63, -1.0, 1.0) * ((w & (2 ** 52 - 1)) * 2.0 ** -52) * 10.0 ** e
        return np.where(np.abs(z) >= 1e-100, z, 0.0)

    return st.binary(min_size=8 * n, max_size=8 * n).map(decode)


def quad_within_rounding(data, n, dx, weights):
    # the functionals' quadrature <tw f, g> with the folded trapezoid weights
    # tw and np.trapezoid sum the same terms in different orders; each is
    # within gamma_{n+4} dx sum|f_i g_i| of the exact trapezoid sum (the
    # products, at most n + 1 additions, the end terms, the dx scaling),
    # with gamma_k = k u / (1 - k u)
    f = data.draw(entries(n), label="f")
    g = data.draw(entries(n), label="g")
    k, u = n + 4, np.finfo(float).eps / 2
    bound = 2.0 * k * u / (1.0 - k * u) * dx * float(np.sum(np.abs(f * g)))
    tw = weights(dx * np.arange(n))
    return abs(_dot(tw * f, g) - np.trapezoid(f * g, dx=dx)) <= bound


QUAD_ARGS = dict(data=st.data(), n=st.integers(2, 300), dx=st.floats(1e-3, 1.0))


@PROPERTY
@given(**QUAD_ARGS)
def test_quad_is_the_trapezoid_rule_to_rounding(data, n, dx):
    assert quad_within_rounding(data, n, dx, _trapezoid_weights)


def test_quad_property_catches_a_wrong_end_weight():
    # negative control: the same draws, with the last end weight dx in place
    # of dx / 2, must turn up an example outside the bound
    def one_end_halved(x):
        tw = np.full(x.size, x[1] - x[0])
        tw[0] *= 0.5
        return tw

    @settings(PROPERTY, phases=[Phase.generate])
    @given(**QUAD_ARGS)
    def planted(data, n, dx):
        assert quad_within_rounding(data, n, dx, one_end_halved)

    with pytest.raises(AssertionError):
        planted()
