"""Power rule, the vectorized SINR against its scalar reference, and rate floors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_phy import LinkSample, min_rate, pathloss, rate_of, sinr
from tiersim.phy import RateReport, interference_at, received_power, sinr_at, tx_power


# ======== pathloss ========


def test_pathloss_values():
    assert pathloss(1.0, 3.0) == 1.0
    assert pathloss(0.5, 3.0) == pytest.approx(8.0)
    assert pathloss(2.0, 4.0) == pytest.approx(0.0625)


def test_pathloss_rejects_colocation():
    with pytest.raises(ValueError):
        pathloss(0.0, 4.0)
    with pytest.raises(ValueError):
        pathloss(-1.0, 4.0)


# ======== power rule ========


def test_tx_power_values():
    assert tx_power(1.0, 4.0) == 1.0
    assert tx_power(1.0 / 256.0, 4.0) == pytest.approx(1.0 / 65536.0)
    assert tx_power(0.25, 3.0) == pytest.approx(0.125)


def test_tx_power_domain():
    with pytest.raises(ValueError):
        tx_power(0.0, 4.0)
    with pytest.raises(ValueError):
        tx_power(1.5, 4.0)


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=2.1, max_value=6.0),
)
@settings(max_examples=80, deadline=None)
def test_diagonal_received_power_is_scale_free(a, alpha):
    # received power across one cell diagonal: a^(alpha/2) (sqrt(2a))^-alpha
    # = 2^(-alpha/2), independent of a
    got = tx_power(a, alpha) * pathloss(math.sqrt(2.0 * a), alpha)
    assert got == pytest.approx(2.0 ** (-alpha / 2.0), rel=1e-9)


# ======== sinr ========


def test_sinr_unit_case():
    link = LinkSample(tx_pos=(0.0, 0.0), rx_pos=(1.0, 0.0), tx_power=1.0, noise=1.0)
    assert sinr(link, 4.0) == pytest.approx(1.0)


def test_sinr_power_scale_invariance():
    base = LinkSample(
        tx_pos=(0.0, 0.0),
        rx_pos=(0.3, 0.0),
        tx_power=1.0,
        interferers=(((0.9, 0.4), 1.0),),
        noise=0.0,
    )
    doubled = LinkSample(
        tx_pos=base.tx_pos,
        rx_pos=base.rx_pos,
        tx_power=2.0,
        interferers=(((0.9, 0.4), 2.0),),
        noise=0.0,
    )
    assert sinr(doubled, 4.0) == pytest.approx(sinr(base, 4.0))


def test_sinr_interferer_distance_ratio():
    # equal powers, zero noise: SINR = (r_i / r_s)^alpha = 3^3
    link = LinkSample(
        tx_pos=(0.1, 0.0),
        rx_pos=(0.0, 0.0),
        tx_power=5.0,
        interferers=(((0.3, 0.0), 5.0),),
        noise=0.0,
    )
    assert sinr(link, 3.0) == pytest.approx(27.0)


def test_sinr_rejects_colocated_interferer():
    link = LinkSample(
        tx_pos=(0.5, 0.5),
        rx_pos=(0.2, 0.2),
        tx_power=1.0,
        interferers=(((0.2, 0.2), 1.0),),
    )
    with pytest.raises(ValueError):
        sinr(link, 4.0)


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.01, max_value=2.0),
)
@settings(max_examples=80, deadline=None)
def test_sinr_monotone_in_powers(sig_power, int_power, bump):
    def make(ps, pi):
        return LinkSample(
            tx_pos=(0.0, 0.0),
            rx_pos=(0.4, 0.1),
            tx_power=ps,
            interferers=(((1.0, 0.8), pi),),
            noise=0.5,
        )

    base = sinr(make(sig_power, int_power), 4.0)
    assert sinr(make(sig_power + bump, int_power), 4.0) >= base
    assert sinr(make(sig_power, int_power + bump), 4.0) <= base


def test_removing_interferers_raises_sinr():
    rx = np.array([[0.2, 0.2], [0.8, 0.7]])
    tx = np.array([0.5, 0.5])
    ints = np.array([[0.9, 0.9], [0.1, 0.4]])
    with_int = sinr_at(rx, tx, 1.0, ints, np.ones(2), 1.0, 4.0)
    without = sinr_at(rx, tx, 1.0, np.empty((0, 2)), np.empty(0), 1.0, 4.0)
    assert (without >= with_int).all()


def test_vectorized_matches_scalar():
    rx = np.array([[0.2, 0.3]])
    tx = np.array([0.6, 0.1])
    ints = np.array([[0.9, 0.9], [0.3, 0.8]])
    powers = np.array([0.7, 1.3])
    vec = sinr_at(rx, tx, 2.0, ints, powers, 0.25, 3.5)[0]
    link = LinkSample(
        tx_pos=(0.6, 0.1),
        rx_pos=(0.2, 0.3),
        tx_power=2.0,
        interferers=(((0.9, 0.9), 0.7), ((0.3, 0.8), 1.3)),
        noise=0.25,
    )
    assert vec == pytest.approx(sinr(link, 3.5))


def test_interference_at_colocation_guard():
    rx = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        interference_at(rx, np.array([[0.5, 0.5]]), np.ones(1), 4.0)


@pytest.mark.parametrize("width", [3, 40, 300])
def test_batched_rows_equal_one_row_calls(width):
    rng = np.random.default_rng(width)
    r = 12
    rx = rng.random((r, 2))
    tx = rng.random((r, 2))
    pool = rng.random((width + 1, 2))
    power = rng.uniform(0.5, 2.0, width + 1)
    # each receiver's row is the pool without that receiver's own cell
    own = rng.integers(0, width + 1, r)
    rows = np.array([np.delete(np.arange(width + 1), o) for o in own])
    batch = sinr_at(rx, tx, 1.5, pool[rows], power[rows], 0.5, 4.0)
    loop = [sinr_at(rx[i : i + 1], tx[i], 1.5, pool[rows[i]], power[rows[i]], 0.5, 4.0)[0]
            for i in range(r)]
    assert np.array_equal(batch, np.array(loop))
    for i in range(r):
        link = LinkSample(
            tx_pos=tuple(tx[i]),
            rx_pos=tuple(rx[i]),
            tx_power=1.5,
            interferers=tuple((tuple(pool[c]), power[c]) for c in rows[i]),
            noise=0.5,
        )
        assert batch[i] == pytest.approx(sinr(link, 4.0), rel=1e-12)


def test_shared_interferers_equal_repeated_rows():
    rng = np.random.default_rng(5)
    rx = rng.random((9, 2))
    tx = rng.random(2)
    ints = rng.random((150, 2))
    powers = rng.uniform(0.5, 2.0, 150)
    shared = sinr_at(rx, tx, 2.0, ints, powers, 1.0, 3.5)
    per_row = sinr_at(rx, np.broadcast_to(tx, (9, 2)), 2.0,
                      np.broadcast_to(ints, (9, 150, 2)),
                      np.broadcast_to(powers, (9, 150)), 1.0, 3.5)
    assert np.array_equal(shared, per_row)


def test_batched_colocation_guards():
    rx = np.array([[0.2, 0.2], [0.6, 0.6]])
    tx = np.array([[0.1, 0.1], [0.3, 0.3]])
    ints = np.array([[[0.9, 0.9]], [[0.6, 0.6]]])  # second row sits on its receiver
    with pytest.raises(ValueError, match="interferer"):
        sinr_at(rx, tx, 1.0, ints, np.ones((2, 1)), 1.0, 4.0)
    with pytest.raises(ValueError, match="transmitter"):
        sinr_at(rx, rx.copy(), 1.0, np.empty((2, 0, 2)), np.empty((2, 0)), 1.0, 4.0)


# ======== received-power blocks sliced by column ========

# row lengths on both sides of numpy's pairwise-sum unroll (8) and block (128)
PAIRWISE_WIDTHS = [0, 1, 7, 8, 9, 127, 128, 129, 1000]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_receiver"])
@given(st.lists(st.sampled_from(PAIRWISE_WIDTHS), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_block_slice_sums_equal_one_row_calls(shared, widths, seed):
    # the broadcast audit sums each tick's column slice of one (R, T) block;
    # every slice must sum to what a one-row interference_at call returns
    rng = np.random.default_rng(seed)
    r, alpha = 6, 3.7
    rx = rng.random((r, 2))
    edges = np.r_[0, np.cumsum(widths)]
    shape = (edges[-1],) if shared else (r, edges[-1])
    tx = rng.random((*shape, 2))
    power = rng.uniform(0.5, 2.0, shape)
    block = received_power(rx[:, 0, None], rx[:, 1, None], tx[..., 0], tx[..., 1],
                           power, alpha)
    for lo, hi in zip(edges[:-1], edges[1:]):
        sums = np.add.reduce(block[:, lo:hi], axis=1)
        for i in range(r):
            row = slice(lo, hi) if shared else (slice(i, i + 1), slice(lo, hi))
            one = interference_at(rx[i : i + 1], tx[row], power[row], alpha)
            assert sums[i].tobytes() == one[0].tobytes()


def test_colocated_interferer_in_middle_group_raises():
    rng = np.random.default_rng(11)
    rx = rng.random((4, 2))
    tx = rng.random((146, 2))
    tx[69] = rx[2]  # inside the middle group, columns 9:138

    def block(lo, hi):
        return received_power(rx[:, 0, None], rx[:, 1, None], tx[lo:hi, 0], tx[lo:hi, 1],
                              1.0, 4.0)

    block(0, 9)
    block(138, 146)
    with pytest.raises(ValueError, match="interferer"):
        block(9, 138)


# ======== rate and report ========


def test_rate_monotone_and_zero_at_zero():
    assert rate_of(0.0) == 0.0
    assert rate_of(1.0) == pytest.approx(1.0)
    s = np.array([0.1, 0.5, 2.0, 9.0])
    r = rate_of(s)
    assert (np.diff(r) > 0).all()


def test_rate_report_tracks_minima():
    rep = RateReport()
    rep.record("primary", np.array([3.0, 1.5]))
    rep.record("primary", np.array([2.0]))
    rep.record("delivery", np.array([0.25]))
    assert rep.floor("primary") == pytest.approx(1.5)
    assert min_rate(rep, "primary") == pytest.approx(math.log2(2.5))
    assert rep.floor("delivery") == pytest.approx(0.25)
    assert rep.samples == {"primary": 3, "delivery": 1, "secondary": 0}
    # untouched category reports nan, not a fake zero
    assert math.isnan(rep.floor("secondary"))
    assert math.isnan(min_rate(rep, "secondary"))


def test_rate_report_ignores_empty_batches():
    rep = RateReport()
    rep.record("secondary", np.array([]))
    assert rep.samples["secondary"] == 0
    assert math.isnan(rep.floor("secondary"))
