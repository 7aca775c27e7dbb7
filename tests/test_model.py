import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from effham import action
from effham.action import InitialDatum, lax_oleinik
from effham.config import load_config
from effham.errors import ModelValidityError
from effham.model import TorusHamiltonian, TrigPolynomial, _proved_range
from effham.topology import TorusCover
from tests.conftest import make_pendulum
from tests.oracles import (
    double_legendre_residual,
    fenchel_young_residual,
    lagrangian,
    legendre_transform_numeric,
    trig_derivatives,
)

PENDULUM = make_pendulum()
_SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scenarios")


def test_free_lagrangian_is_half_speed_squared(free1):
    assert lagrangian(free1, [0.2], [3.0]) == pytest.approx(4.5, abs=1e-12)


def test_mechanical_lagrangian_subtracts_potential(pendulum):
    # L(x, v) = v^2/2 - V(x) for unit kinetic term
    for x in (0.0, 0.3, 0.71):
        for v in (-1.5, 0.0, 2.0):
            expect = 0.5 * v * v - pendulum.v.value_many([[x]])[0]
            assert lagrangian(pendulum, [x], [v]) == pytest.approx(expect, abs=1e-12)


def test_quartic_transform_matches_grid_scan():
    # sup_p (p v - p^4/4) at v=1 is attained at p=1 with value 3/4
    def quartic(p):
        return 0.25 * float(p) ** 4

    value = legendre_transform_numeric(quartic, 1.0)
    assert value == pytest.approx(0.75, abs=1e-6)

    grid = np.arange(-10.0, 10.0, 1e-4)
    brute = np.max(grid - 0.25 * grid**4)
    assert value == pytest.approx(brute, abs=1e-6)


@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    v=st.floats(min_value=-4.0, max_value=4.0),
    p=st.floats(min_value=-4.0, max_value=4.0),
)
def test_fenchel_young_gap_nonnegative(x, v, p):
    gap = fenchel_young_residual(PENDULUM, [x], [v], [p])
    assert gap >= -1e-8


@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    v=st.floats(min_value=-4.0, max_value=4.0),
)
def test_fenchel_young_tight_at_momentum_of_velocity(x, v):
    # equality holds when p = dL/dv, which is v for unit kinetic term
    gap = fenchel_young_residual(PENDULUM, [x], [v], [v])
    assert abs(gap) <= 1e-8


@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    p=st.floats(min_value=-4.0, max_value=4.0),
)
def test_double_legendre_recovers_hamiltonian(x, p):
    assert double_legendre_residual(PENDULUM, [x], [p]) <= 1e-8


@given(p1=st.floats(min_value=-3.0, max_value=3.0),
       p2=st.floats(min_value=-3.0, max_value=3.0))
def test_double_legendre_free_two_dim(p1, p2):
    free2 = TorusHamiltonian.mechanical(TrigPolynomial.constant(2, 0.0))
    assert double_legendre_residual(free2, [0.1, 0.7], [p1, p2]) <= 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_fused_kernel_matches_the_per_term_sums(n):
    # random terms with two zero-frequency ones among them: the fused
    # kernel skips their trig, and must still add every term in order
    rng = np.random.default_rng(40 + n)
    terms = [(rng.integers(-3, 4, size=n), rng.normal(), rng.normal())
             for _ in range(6)]
    terms.insert(0, (np.zeros(n, dtype=int), 0.7, 0.3))
    terms.insert(4, (np.zeros(n, dtype=int), -0.4, 0.0))
    poly = TrigPolynomial(n, terms)
    xs = rng.uniform(-2.0, 2.0, size=(50, n))
    values, grads = np.zeros(50), np.zeros((50, n))
    for k, a, b in poly.terms:
        phase = 2.0 * np.pi * sum((xs[:, j] * k[j] for j in range(1, n)),
                                  xs[:, 0] * k[0])
        values += a * np.cos(phase) + b * np.sin(phase)
        grads += np.outer(2.0 * np.pi * (-a * np.sin(phase)
                                         + b * np.cos(phase)), k)
    fused_v, fused_g, fused_h = poly.gradient_many(xs)
    assert np.array_equal(fused_v, values)
    assert np.array_equal(fused_g, grads)
    assert np.array_equal(poly.value_many(xs), values)
    # the second derivatives against central differences of the gradient
    step = 1e-6
    for j in range(n):
        shift = np.zeros(n)
        shift[j] = step
        diff = (poly.gradient_many(xs + shift)[1]
                - poly.gradient_many(xs - shift)[1]) / (2.0 * step)
        assert np.allclose(fused_h[:, :, j], diff, rtol=1e-6, atol=1e-5)


# positive coefficients: at a zero phase every term of a cos-only gradient
# is -0, so only a sum that starts at +0 reads +0 there
_WAVES = {
    "cos-only": lambda k: [(k, 1.0, 0.0), (2 * k, 0.35, 0.0)],
    "sin-only": lambda k: [(k, 0.0, 0.8), (2 * k, 0.0, 0.45)],
    "mixed": lambda k: [(k, 1.0, 0.0), (2 * k, 0.0, -0.45), (3 * k, 0.3, 0.6),
                        (k, 0.0, 0.0)],
}


@pytest.mark.parametrize("kind", sorted(_WAVES))
@pytest.mark.parametrize("n", [1, 2])
def test_gradient_many_skips_zero_coefficients_bytewise(n, kind):
    # random points, the origin and points where a wave's phase is exactly
    # 0 (sin = +0, so the skipped products are the signed zeros)
    k = np.array([1]) if n == 1 else np.array([1, -1])
    terms = _WAVES[kind](k) + [(np.zeros(n, dtype=int), 0.25, 0.0)]
    if n == 2:
        terms.append((np.array([0, 2]), 0.0 if kind == "sin-only" else 0.5,
                      0.0 if kind == "cos-only" else -0.2))
    poly = TrigPolynomial(n, terms)
    rng = np.random.default_rng(70 + n)
    xs = np.vstack([rng.uniform(-2.0, 2.0, size=(64, n)), np.zeros((1, n)),
                    np.repeat(rng.uniform(-1.0, 1.0, size=(8, 1)), n, axis=1),
                    np.full((2, n), 0.5)])
    for got, expect in zip(poly.gradient_many(xs), trig_derivatives(poly, xs)):
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()


def test_two_dimensional_rows_do_not_depend_on_their_batch():
    # the phase k.x of a row is summed within the row, so a row priced in
    # a batch of 500 gives the bytes it gives alone
    rng = np.random.default_rng(31)
    for _ in range(20):
        poly = TrigPolynomial(2, [(rng.integers(-3, 4, size=2), rng.normal(),
                                   rng.normal()) for _ in range(3)])
        xs = rng.random((500, 2))
        batch = poly.gradient_many(xs)
        for i in range(len(xs)):
            for got, alone in zip(batch, poly.gradient_many(xs[i:i + 1])):
                assert got[i].tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_proved_range_encloses_off_grid_extremes(n, monkeypatch):
    # cos 2 pi x + 0.3 sin 2 pi x peaks at sqrt(1.09), off every grid point,
    # and in 2-D the same wave along each axis peaks at twice that
    waves = [(np.eye(n, dtype=int)[j], 1.0, 0.3) for j in range(n)]
    poly = TrigPolynomial(n, waves)
    peak = n * 1.044030650891055
    lo, hi = _proved_range(poly)
    grid = np.stack(np.meshgrid(*[np.arange(256) / 256] * n, indexing="ij"),
                    axis=-1).reshape(-1, n)
    sampled = poly.value_many(grid)
    assert sampled.max() < peak - 1e-6 and sampled.min() > -peak + 1e-6
    # the sampled extremes widened by n M2 h^2 / 8 with M2 = n (2 pi)^2 1.3
    slack = n * n * (2.0 * np.pi) ** 2 * 1.3 / (8.0 * 256 ** 2)
    assert (lo, hi) == pytest.approx((sampled.min() - slack,
                                      sampled.max() + slack), abs=1e-15)
    assert lo <= -peak and peak <= hi
    if n == 2:
        # no solver reads the drift of a 2-torus: lax_oleinik admits only
        # the free one
        return
    # the search's drift is that bound, not the sampled maximum
    drifts, search = [], action._search_cells

    def record(cover, datum, quad, drift, *rest):
        drifts.append(drift)
        return search(cover, datum, quad, drift, *rest)

    monkeypatch.setattr(action, "_search_cells", record)
    cover = TorusCover(n)
    lax_oleinik(cover, TorusHamiltonian.mechanical(poly),
                InitialDatum.affine(np.zeros(n)), cover.from_lift(np.zeros(n)),
                1.0, 1.0, mesh=4)
    assert drifts == [hi]


def _kinetic_at_zero_scalar(model) -> np.ndarray:
    """A(0) as the scalar route summed it: each entry's terms in order,
    a cos 0 + b sin 0 added to a running 0.0."""
    vals = []
    for entry in model.a_entries:
        total = 0.0
        for _, a, b in entry.terms:
            total += a * math.cos(0.0) + b * math.sin(0.0)
        vals.append(total)
    return np.array([vals[:1]] if model.n == 1 else [vals[:2], vals[1:]])


def _split_entries(n):
    # entries given as several constant terms: (0.1 + 0.2) + 0.3 and
    # 0.1 + (0.2 + 0.3) differ in the last bit, so only the scalar route's
    # order reads its bytes
    def split(values):
        return TrigPolynomial(n, [(np.zeros(n, dtype=int), a, -0.25)
                                  for a in values])
    diag = split([0.1, 0.2, 0.3])
    entries = [diag] if n == 1 else [diag, split([0.7, 0.6]), diag]
    return TorusHamiltonian(n, entries, TrigPolynomial.constant(n, 0.0))


@pytest.mark.parametrize("model_of", [
    pytest.param(lambda stem=stem: load_config(
        os.path.join(_SCENARIOS, stem + ".yaml")).model, id=stem)
    for stem in ("free_torus_1d", "free_torus_2d", "pendulum")
] + [pytest.param(lambda n=n: _split_entries(n), id=f"split-constant-terms-{n}d")
     for n in (1, 2)])
def test_constant_kinetic_is_a_at_zero(model_of):
    model = model_of()
    got = model.constant_kinetic()
    assert got.shape == (model.n, model.n)
    assert got.tobytes() == _kinetic_at_zero_scalar(model).tobytes()


def test_constant_kinetic_is_none_for_a_varying_entry():
    a = TrigPolynomial(1, [([0], 1.0, 0.0), ([1], 0.3, 0.1)])
    assert TorusHamiltonian(1, [a], TrigPolynomial.constant(1, 0.0)) \
        .constant_kinetic() is None


@pytest.mark.parametrize("build", [
    lambda: TorusHamiltonian.mechanical(TrigPolynomial(2, [([1, 0], 0.3, 0.0)])),
    lambda: TorusHamiltonian(2, [TrigPolynomial(2, [([0, 0], 1.0, 0.0),
                                                    ([1, 0], 0.2, 0.0)]),
                                 TrigPolynomial.constant(2, 0.0),
                                 TrigPolynomial.constant(2, 1.0)],
                             TrigPolynomial.constant(2, 0.0)),
], ids=["potential", "varying-kinetic"])
def test_two_torus_must_be_free(build):
    # the model type alone admits a 2-torus, and only a free one: every
    # solver may take a 2-D TorusHamiltonian as free
    with pytest.raises(ModelValidityError, match="two-dimensional torus"):
        build()
