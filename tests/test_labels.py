"""The label-map partition against the mask formulas it replaces: property
tests over n = 2..5 phases, with ties drawn on purpose."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ictmseg.energy import IndicatorSet, SegState, fit_fields, fit_term, length_term
from ictmseg.field import gaussian_kernel, inner_product
from ictmseg.solve import threshold, update_means

from oracles import float_masks, means_direct, phase_costs, stencil

# few distinct values, so that equal costs and equal labels are common
TIED = st.sampled_from([0.0, 0.25, 1.0, 3.0])
VALUES = st.one_of(TIED, st.floats(0.0, 10.0))


@st.composite
def partitions(draw, n=None, shape=None):
    n = n or draw(st.integers(2, 5))
    shape = shape or (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    labels = draw(arrays(np.int64, shape, elements=st.integers(0, n - 1)))
    return IndicatorSet.from_labels(labels, n)


@st.composite
def partition_and_stack(draw):
    u = draw(partitions())
    stack = draw(arrays(np.float64, (u.n,) + u.shape, elements=VALUES))
    return u, stack


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: arrays(np.float64, (2, n, 6, 5), elements=VALUES)),
    st.data())
def test_threshold_labels_equal_argmin(fields, data):
    # the scan forms each phase's cost itself: its labels are the argmin of
    # the stacked costs, ties included
    e_fields, potentials = fields
    lambdas = data.draw(st.lists(VALUES, min_size=len(e_fields), max_size=len(e_fields)))
    mu, time_px = data.draw(VALUES), data.draw(st.floats(0.5, 50.0))
    phis = phase_costs(e_fields, potentials, lambdas, mu, time_px)
    labels = threshold(e_fields, potentials, lambdas, mu, time_px).labels()
    assert np.array_equal(labels, np.argmin(phis, axis=0))


@settings(max_examples=100, deadline=None)
@given(partitions(), st.data())
def test_weighted_sum_equals_tensordot_bit_for_bit(u, data):
    # adding 0.0 turns -0.0 into +0.0, which the tensordot cannot return
    weights = data.draw(arrays(np.float64, u.n, elements=st.one_of(
        TIED, st.floats(-1e6, 1e6).map(lambda x: x + 0.0))))
    ref = np.tensordot(weights, float_masks(u), axes=1)
    assert np.array_equal(u.weighted_sum(weights).view(np.int64), ref.view(np.int64))


@settings(max_examples=50, deadline=None)
@given(partitions(), st.integers(0, 2**32 - 1))
def test_phase_sum_means_match_direct_quotient(u, seed):
    r = np.random.default_rng(seed)
    state = SegState(c=1.0 + r.random(u.n), b=r.random(u.shape) + 0.5,
                     g=r.random(u.shape) * 5 + 0.5, u=u)
    k = gaussian_kernel(1.0)
    c, flags = update_means(state, fit_fields(state.b, k))
    masks = float_masks(u)
    for i in range(u.n):
        if masks[i].any():
            ref = means_direct(masks[i], state.g, state.b, stencil(k))
            assert c[i] == pytest.approx(ref, abs=1e-10, rel=1e-10)
        else:   # an empty phase keeps its mean and is flagged
            assert c[i] == state.c[i] and any(f"phase {i} empty" in f for f in flags)


@settings(max_examples=100, deadline=None)
@given(partition_and_stack(), st.data())
def test_gathered_terms_match_per_mask_inner_products(u_stack, data):
    u, stack = u_stack
    lambdas = data.draw(arrays(np.float64, u.n, elements=st.floats(0.0, 5.0)))
    masks = float_masks(u)
    fit = sum(lambdas[i] * inner_product(masks[i], stack[i]) for i in range(u.n))
    assert fit_term(stack, u, lambdas) == pytest.approx(fit, rel=1e-12, abs=1e-300)
    length = 0.7 * np.sqrt(np.pi / 2.0) * sum(inner_product(masks[i], stack[i])
                                             for i in range(u.n))
    assert length_term(u, stack, 0.7, 2.0) == pytest.approx(length, rel=1e-12, abs=1e-300)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    partitions(n=n, shape=(5, 7)), partitions(n=n, shape=(5, 7)))))
def test_distance_equals_l2_of_mask_change(pair):
    u, v = pair
    assert u.distance(v) == float(np.sqrt(np.sum((float_masks(u) - float_masks(v)) ** 2)))
    assert u.distance(u) == 0.0
