"""Word, block-measure, entropy and Birkhoff accounting checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfspec.errors import EnumerationLimitError
from mfspec.geometry import geometric_potential, linear_system
from mfspec.potentials import (PotentialSpec, first_symbol,
                               induced_word_function)
from mfspec.symbolic import (Alphabet, BlockMeasure, MarkovChainSpec,
                             PcgStream, WordFunction, abramov_stats,
                             birkhoff_sum, block_marginal, shannon_entropy,
                             slot_words, variation_bound, word_label)

# hand-evaluated -(0.3 ln 0.3 + 0.7 ln 0.7)
H_03 = 0.6108643020548935

CHAIN = MarkovChainSpec(transition=[[0.9, 0.1], [0.2, 0.8]],
                        initial=[2.0 / 3.0, 1.0 / 3.0])


def indicator_first(symbol):
    return WordFunction(evaluate=lambda w: 1.0 if w[0] == symbol else 0.0,
                        error_bound=lambda n: 0.0, name=f"1[{symbol}]")


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_uniform_block():
    nu = BlockMeasure.uniform_full(Alphabet(2), 2)
    assert shannon_entropy(nu) == pytest.approx(math.log(4), abs=1e-14)


def test_entropy_point_mass():
    assert shannon_entropy(BlockMeasure.dirac((0, 1, 1), 2)) == 0.0


def test_entropy_biased_coin():
    nu = BlockMeasure(m=2, n=1, p=[0.3, 0.7])
    assert shannon_entropy(nu) == pytest.approx(H_03, abs=1e-12)


def test_entropy_bounds_random_measures():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(3**n))
        nu = BlockMeasure(m=3, n=n, p=w)
        h = shannon_entropy(nu)
        assert -1e-12 <= h <= n * math.log(3) + 1e-12


def test_measure_validation():
    with pytest.raises(ValueError):
        BlockMeasure(m=2, n=1, p=[0.6, 0.6])
    with pytest.raises(ValueError):
        BlockMeasure(m=2, n=2, p=[1.0])
    with pytest.raises(ValueError):
        BlockMeasure(m=2, n=1, p=[-0.2, 1.2])
    with pytest.raises(ValueError):
        BlockMeasure(m=2, n=1, p=[float("nan"), 1.0])
    with pytest.raises(ValueError):
        BlockMeasure(m=2, n=1, p=[float("inf"), 0.0])


# ---------------------------------------------------------------------------
# Markov block marginals
# ---------------------------------------------------------------------------

def test_marginal_iid_is_product():
    chain = MarkovChainSpec.iid([0.25, 0.75])
    nu = block_marginal(chain, 2)
    for (a, b), p in zip(slot_words(2, 2, np.arange(4)), nu.p.tolist()):
        assert p == pytest.approx([0.25, 0.75][a] * [0.25, 0.75][b], abs=1e-15)


def test_marginal_permutation_support():
    # deterministic 3-cycle: exactly m words carry weight 1/m at any depth
    P = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    chain = MarkovChainSpec(transition=P, initial=[1 / 3] * 3)
    nu = block_marginal(chain, 3)
    support = {w: p for w, p in zip(slot_words(3, 3, np.arange(27)),
                                    nu.p.tolist()) if p > 0}
    assert len(support) == 3
    assert all(p == pytest.approx(1 / 3) for p in support.values())


def test_marginal_hand_multiplied():
    nu = block_marginal(CHAIN, 2)
    p = nu.p.reshape(2, 2)  # slot order: first symbol most significant
    assert p[0, 0] == pytest.approx(0.6, abs=1e-14)
    assert p[0, 1] == pytest.approx(1 / 15, abs=1e-14)
    assert p[1, 0] == pytest.approx(1 / 15, abs=1e-14)
    assert p[1, 1] == pytest.approx(4 / 15, abs=1e-14)


def test_marginal_consistency_under_extension():
    # summing the depth-(n+1) marginal over its last symbol reproduces depth n
    for n in (1, 2, 4):
        short = block_marginal(CHAIN, n)
        long = block_marginal(CHAIN, n + 1)
        for w, p in zip(slot_words(2, n, np.arange(2**n)), short.p.tolist()):
            tail = math.fsum(
                long.p[np.ravel_multi_index(w + (a,), (2,) * (n + 1))]
                for a in range(2))
            assert tail == pytest.approx(p, abs=1e-12)


def test_marginal_cap():
    with pytest.raises(EnumerationLimitError):
        block_marginal(CHAIN, 25)


def test_cap_refuses_a_far_depth_without_forming_the_power(monkeypatch):
    # 3**(10**9) would take hours to form: the depth is compared with the
    # cap on logarithms first, and m**n is formed only near the cap
    def word_count(self, n):
        assert n <= 64, f"formed {self.m}**{n}"
        return self.m**n

    monkeypatch.setattr(Alphabet, "word_count", word_count)
    with pytest.raises(EnumerationLimitError):
        Alphabet(3).check_cap(10**9)
    Alphabet(2).check_cap(24)  # 2^24 words is the default cap itself
    with pytest.raises(EnumerationLimitError):
        Alphabet(2).check_cap(25)


def test_chain_validation():
    with pytest.raises(ValueError):
        MarkovChainSpec(transition=[[0.5, 0.6], [0.5, 0.5]],
                        initial=[0.5, 0.5])
    with pytest.raises(ValueError):
        # not stationary for this matrix
        MarkovChainSpec(transition=[[0.9, 0.1], [0.2, 0.8]],
                        initial=[0.5, 0.5])


# ---------------------------------------------------------------------------
# Birkhoff sums and variations
# ---------------------------------------------------------------------------

def test_birkhoff_constant():
    const = WordFunction(evaluate=lambda w: 2.5, error_bound=lambda n: 0.0)
    assert birkhoff_sum(const, (0, 1, 1, 0)) == pytest.approx(10.0)


def test_birkhoff_counts_first_symbols():
    assert birkhoff_sum(indicator_first(0), (0, 1, 0, 1)) == 2.0


def test_birkhoff_linear_geometric():
    sys_ = linear_system([0.5, 1 / 3])
    g = geometric_potential(sys_, depth=4)
    got = birkhoff_sum(g, (0, 1))
    assert got == pytest.approx(math.log(2) + math.log(3), abs=1e-12)


def test_birkhoff_additive_for_first_symbol_functions():
    f = first_symbol([0.3, -1.2, 2.0])
    sys_ = linear_system([0.2, 0.2, 0.2])
    wf = induced_word_function(sys_, f, depth=6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = tuple(rng.integers(0, 3, size=int(rng.integers(1, 4))))
        v = tuple(rng.integers(0, 3, size=int(rng.integers(1, 4))))
        s_uv = birkhoff_sum(wf, u + v)
        assert s_uv == pytest.approx(birkhoff_sum(wf, u) + birkhoff_sum(wf, v),
                                     abs=1e-12)


def test_variation_word_local_is_zero():
    wf = induced_word_function(linear_system([0.5, 0.5]),
                               first_symbol([1.0, 0.0]), depth=5)
    assert variation_bound(wf, 1) == 0.0
    assert variation_bound(wf, 5) == 0.0


def test_word_local_word_function_enumerates_no_cylinders():
    # a depth whose cylinders could never be listed: only a word-local
    # potential's bound is known without them
    wf = induced_word_function(linear_system([0.5, 0.5]),
                               first_symbol([1.0, 0.0]), depth=10**9)
    assert wf.error_bound(7) == 0.0
    assert birkhoff_sum(wf, (0, 1, 0)) == 2.0


@pytest.mark.parametrize("kinds", [
    {"values": (1.0, 0.0), "branch_index": 0},
    {"func": float, "values": (1.0, 0.0)},
    {"func": float, "branch_index": 0},
    {}])
def test_potential_spec_takes_exactly_one_kind(kinds):
    # values with branch_index used to build, and symbol_values then read
    # values alone
    with pytest.raises(ValueError, match="exactly one"):
        PotentialSpec(name="x", **kinds)


def test_variation_lipschitz_through_cylinders():
    # tiling halves: depth-3 cylinders have diameter 1/8, so the coordinate
    # potential varies by at most 2 * (1/8) over any of them
    from mfspec.potentials import coordinate
    wf = induced_word_function(linear_system([0.5, 0.5]), coordinate(),
                               depth=4)
    assert variation_bound(wf, 3) <= 2 * (1 / 8) + 1e-15
    assert variation_bound(wf, 3) == pytest.approx(1 / 8, abs=1e-15)


def test_error_bounds_nonincreasing():
    from mfspec.geometry import manneville_pomeau_system
    from mfspec.potentials import coordinate
    mp = manneville_pomeau_system(0.5)
    for wf in (induced_word_function(mp, coordinate(), depth=10),
               geometric_potential(mp, depth=10)):
        bounds = [wf.error_bound(k) for k in range(1, 11)]
        assert all(b <= a + 1e-15 for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1] < bounds[0]


# ---------------------------------------------------------------------------
# per-shift accounting
# ---------------------------------------------------------------------------

def test_abramov_point_mass():
    f = indicator_first(0)
    stats = abramov_stats(BlockMeasure.dirac((0, 0, 0, 0), 2), [f])
    assert stats.entropy_rate == 0.0
    assert stats.averages[0] == pytest.approx(1.0)


def test_abramov_uniform_symmetry():
    for m, n in ((2, 3), (3, 2)):
        nu = BlockMeasure.uniform_full(Alphabet(m), n)
        stats = abramov_stats(nu, [indicator_first(0)])
        assert stats.entropy_rate == pytest.approx(math.log(m), abs=1e-12)
        assert stats.averages[0] == pytest.approx(1 / m, abs=1e-12)


def test_abramov_product_measure_exact():
    q = [0.15, 0.55, 0.30]
    h_q = -math.fsum(p * math.log(p) for p in q)
    for n in (2, 4, 6):
        nu = block_marginal(MarkovChainSpec.iid(q), n)
        stats = abramov_stats(nu, ())
        assert stats.entropy_rate == pytest.approx(h_q, abs=1e-12)


def test_abramov_markov_rate_identity():
    # for a stationary chain the enumerated rate is h + (H(p) - h)/n exactly
    p = CHAIN.initial
    h_p = -math.fsum(v * math.log(v) for v in p)
    h = 0.38352279010702806  # row-entropy average, evaluated by hand
    rates = []
    for n in (2, 4, 8):
        stats = abramov_stats(block_marginal(CHAIN, n), ())
        assert stats.entropy_rate == pytest.approx(h + (h_p - h) / n,
                                                   abs=1e-10)
        rates.append(stats.entropy_rate)
    assert rates == sorted(rates, reverse=True)


def test_abramov_rate_alone_lists_no_support_words():
    # with no word function only the entropy rate is formed: listing the
    # support as word tuples peaked at 55 word arrays at depth 16
    measure = block_marginal(CHAIN, 16)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        stats = abramov_stats(measure, ())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert stats.entropy_rate == shannon_entropy(measure) / 16
    assert stats.averages == ()
    assert peak <= 6 * measure.p.nbytes


def test_word_label_one_based():
    assert word_label((0, 1, 0)) == "121"


# ---------------------------------------------------------------------------
# the seeded stream against numpy's generator


@pytest.mark.fixed_seed
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**200), data=st.data())
def test_pcg_stream_equals_default_rng(seed, data):
    # seeds past 2**128 hash more than the 4-word pool; every draw goes on
    # from the state the one before left, the buffered 32-bit half included
    ours, ref = PcgStream(seed), np.random.default_rng(seed)
    for k in data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=4)):
        assert np.array_equal(ours.random(k), ref.random(k))
    # the sampler's block draw: Generator.choice on a normalised p
    raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                      max_size=9).filter(sum)))
    p = raw / raw.sum()
    size = data.draw(st.integers(1, 100))
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    assert np.array_equal(cdf.searchsorted(ours.random(size), "right"),
                          ref.choice(len(p), size=size, p=p))
    for m in (1, 2, 3, 5, 2**32):
        shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 9)))
        got, want = ours.integers(m, shape), ref.integers(0, m, shape)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(ours.random(3), ref.random(3))
