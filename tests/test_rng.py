"""The node candidate draw: the set numpy's `Generator.choice` draws,
replayed on raw Philox output, and the Lemire bounded draw it is built
from; a level's draws from Philox on uint64 arrays; the seed range of the
other streams' keys."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forestfuse as ff
from forestfuse import rng
from forestfuse.rng import (LevelStreams, _lemire, _words, choose,
                            donor_streams, node_rng, node_streams,
                            synthetic_rng, tree_rng)
from forestfuse.splitfind import BLOCK_BYTES

seeds = st.integers(0, 2 ** 64 - 1)
trees = st.integers(0, 2 ** 28 - 1)
routes = st.integers(0, 2 ** 64 - 1)


def sizes(low, high, m_of=lambda n: st.integers(1, n)):
    """(n, m) with n in low..high and m drawn by m_of(n)."""
    return st.integers(low, high).flatmap(
        lambda n: st.tuples(st.just(n), m_of(n)))


@settings(max_examples=300, deadline=None)
@given(seeds, trees, routes, sizes(1, 3000))
@example(0, 0, 0, (1, 1))
@example(5, 7, 11, (3000, 1))
@example(5, 7, 11, (3000, 3000))
@example(2 ** 64 - 1, 2 ** 28 - 1, 2 ** 64 - 1, (40, 40))
def test_candidates_equal_generator_choice(seed, tree, route, size):
    n, m = size
    want = node_rng(seed, tree, route).choice(n, size=m, replace=False)
    bits = node_streams(seed)(tree, route).bit_generator
    assert choose(bits, n, m) == sorted(want.tolist())


# beyond 10,000 features numpy shuffles the tail of range(n) when
# m > n // 50, and runs Floyd's algorithm below that
@settings(max_examples=40, deadline=None)
@given(seeds, trees, routes, sizes(
    10_001, 12_000, lambda n: st.one_of(
        st.integers(max(1, n // 50 - 20), n // 50 + 20),
        st.integers(n - 20, n))))
def test_candidates_equal_generator_choice_over_many_features(seed, tree,
                                                              route, size):
    n, m = size
    want = node_rng(seed, tree, route).choice(n, size=m, replace=False)
    bits = node_streams(seed)(tree, route).bit_generator
    assert choose(bits, n, m) == sorted(want.tolist())


def test_tail_draw_of_many_features_stays_small():
    # the tail shuffle keeps the entries it moved, not a list of range(n)
    n, m = 1_000_000, 20_001
    bits = node_rng(5, 7, 11).bit_generator
    tracemalloc.start()
    try:
        got = choose(bits, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BLOCK_BYTES
    want = node_rng(5, 7, 11).choice(n, size=m, replace=False)
    assert got == sorted(want.tolist())


class Exhausted(Exception):
    pass


class RawWords:
    """A bit generator stub whose raw output is the given 64-bit words,
    handed out at most `most` at a time; counts its random_raw calls and
    raises Exhausted once the words are gone."""

    def __init__(self, words, most=None):
        self.words, self.most, self.calls = list(words), most, 0

    def random_raw(self, count):
        if not self.words:
            raise Exhausted
        self.calls += 1
        take = min(count, self.most or count)
        out, self.words = self.words[:take], self.words[take:]
        return np.array(out, dtype=np.uint64)


def unbiased_draw(words, j):
    """The rule Lemire's draw must follow, word by word: a 32-bit word w
    gives floor(w (j + 1) / 2**32) unless w (j + 1) mod 2**32 falls below
    2**32 mod (j + 1), in which case it is dropped and the next word tried.
    Every value in [0, j] then has the same number of accepted words.
    Returns the draw and the number of words read."""
    if j == 0:
        return 0, 0
    span = j + 1
    for read, w in enumerate(words, 1):
        if w * span % 2 ** 32 >= 2 ** 32 % span:
            return w * span >> 32, read
    return None, len(words)


# bounds whose span leaves from none to almost half of the words rejected
bounds = st.one_of(st.integers(0, 64), st.integers(2 ** 31 - 64, 2 ** 31 + 64),
                   st.integers(2 ** 32 - 64, 2 ** 32 - 1))


@settings(max_examples=400, deadline=None)
@given(bounds, st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=9))
@example(2 ** 31, [0, 2, 4, 1])  # three rejected words, then 0
@example(2, [0, 1, 2 ** 32 - 1])  # 2**32 mod 3 = 1: only w = 0 is rejected
def test_lemire_draw_follows_the_unbiased_rule(j, words32):
    # one raw word at a time, so every second 32-bit word is a refill
    words64 = [lo | hi << 32 for lo, hi in
               zip(words32[::2], words32[1::2] + [0])]
    stream = _words(RawWords(words64, most=1), 1)
    want, read = unbiased_draw(words32, j)
    if want is None:
        with pytest.raises(Exhausted):
            _lemire(stream, j)
        return
    assert _lemire(stream, j) == want
    rest = words32[read:]
    assert list(islice(stream, len(rest))) == rest


def test_words_are_philox_uint32_output_low_half_first():
    key = np.array([3, 4], dtype=np.uint64)
    bits = RawWords(np.random.Philox(key=key).random_raw(5), most=2)
    want = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2 ** 32, size=10, dtype=np.uint32)
    assert list(islice(_words(bits, 4), 10)) == want.tolist()
    assert bits.calls == 3  # two words, two more, then the last one


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(0, 2 ** 56 - 1), sizes(1, 60))
def test_choose_refills_when_the_first_block_runs_out(seed, sub, size):
    # the stub hands out one raw word a call: every second 32-bit draw
    # refills, and the features are still numpy's
    n, m = size
    key = np.array([seed, sub], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    stub = RawWords(bits.random_raw(4 * m + 4), most=1)
    want = np.random.Generator(np.random.Philox(key=key)).choice(
        n, size=m, replace=False)
    assert choose(stub, n, m) == sorted(want.tolist())
    # Floyd's draws read a 32-bit word each, but for j = 0: from three
    # words on, two raw words or more
    assert m - (n == m) < 3 or stub.calls >= 2


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1),
                                  np.int64(0)])
def test_stream_seed_range_ends_accepted(seed):
    X = np.arange(12.0).reshape(6, 2)
    synthetic = ff.generate_synthetic(ff.Dataset.from_dense(X), seed)
    perm = synthetic_rng(seed, 1).permutation(6)
    assert np.array_equal(synthetic.values[:, 1], X[perm, 1])
    assert 0 <= tree_rng(seed, 2 ** 28 - 1).integers(0, 9) < 9
    assert 0 <= donor_streams(seed)(1, 2).integers(0, 9) < 9


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7, np.int64(-1)])
def test_stream_seed_outside_64_bits_rejected(seed):
    # keys took seed & (2**64 - 1): -1 drew seed 2**64 - 1's streams and
    # 2**64 + 7 seed 7's
    ds = ff.Dataset.from_dense(np.arange(12.0).reshape(6, 2))
    for draw in (lambda: ff.generate_synthetic(ds, seed),
                 lambda: tree_rng(seed, 0),
                 lambda: donor_streams(seed)(0, 0)):
        with pytest.raises(ff.ConfigError, match=r"seed must be in 0\.\."):
            draw()


# -- a level's draws -----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(seeds, routes), min_size=1, max_size=8))
def test_philox_blocks_equal_random_raw(keys):
    key = np.array(keys, dtype=np.uint64).T
    raw = [np.random.Philox(key=key[:, i]).random_raw(12).tolist()
           for i in range(len(keys))]
    for c in (1, 2, 3):
        counter = np.zeros((4, len(keys)), dtype=np.uint64)
        counter[0] = c
        got = rng._philox(key, counter)
        assert got.dtype == np.uint64
        assert got.T.tolist() == [r[4 * c - 4:4 * c] for r in raw]


def floyd_rejects(raw, n, m):
    """Whether a Lemire draw of a node's Floyd draws would reject its
    32-bit word, in Python ints, for the node's raw 64-bit words: the low
    half of w * (j + 1) below 2**32 mod (j + 1), for j = n - m .. n - 1
    (j = 0 reads no word)."""
    words = [half for w in raw for half in (w & 0xFFFFFFFF, w >> 32)]
    skip = int(n == m)
    return any(words[k - skip] * (n - m + k + 1) % 2 ** 32
               < 2 ** 32 % (n - m + k + 1) for k in range(skip, m))


def key_word(seed, tree, route):
    """The second key word of node_rng(seed, tree, route)."""
    key = node_rng(seed, tree, route).bit_generator.state["state"]["key"]
    return int(key[1])


def level_draw(seed, trees, tree, route, n, m, philox=None):
    """LevelStreams(seed, trees)'s draw of a level, and the key words of
    the streams that drew through `choose`, in the order they drew;
    philox, if given, stands in for `rng._philox`."""
    alone = []

    def spy(bits, n, m):
        alone.append(int(bits.state["state"]["key"][1]))
        return choose(bits, n, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "choose", spy)
        if philox is not None:
            mp.setattr(rng, "_philox", philox)
        got = LevelStreams(seed, trees).candidates(
            tree, np.array(route, dtype=np.uint64), n, m)
    assert got.dtype == np.int64 and got.shape == (len(tree), m)
    return got, alone


def check_level(seed, first, tree, route, n, m):
    """LevelStreams' draw of a level equals each node's sorted
    node_rng(...).choice, and only the nodes the rules send there draw
    through `choose`."""
    trees = range(first, first + 4)
    nodes = [(trees[t], r) for t, r in zip(tree, route)]
    got, alone = level_draw(seed, trees, tree, route, n, m)
    assert got.tolist() == [
        sorted(node_rng(seed, t, r).choice(n, m, replace=False).tolist())
        for t, r in nodes]
    if len(tree) < rng._LEVEL_DRAW_NODES or (n > 10000 and m > n // 50):
        assert alone == [key_word(seed, t, r) for t, r in nodes]
    else:
        raw = [node_rng(seed, t, r).bit_generator.random_raw(m).tolist()
               for t, r in nodes]
        assert alone == [key_word(seed, t, r) for (t, r), w in
                         zip(nodes, raw) if floyd_rejects(w, n, m)]


def levels(draw, n_m):
    """(seed, first tree id, tree of each node, route of each node, n, m)
    for levels on both sides of _LEVEL_DRAW_NODES."""
    k = draw(st.integers(1, 2 * rng._LEVEL_DRAW_NODES))
    n, m = draw(n_m)
    return (draw(seeds), draw(st.integers(0, 2 ** 28 - 4)),
            draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)),
            draw(st.lists(routes, min_size=k, max_size=k)), n, m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_level_draw_equals_sorted_choice(data):
    check_level(*levels(data.draw, sizes(1, 80)))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (40, 40), (60, 1),
                                  (9, 8), (3000, 3000)])
@pytest.mark.parametrize("extra", [-1, 0])
def test_level_draw_at_the_constant_and_m_equal_to_n(n, m, extra):
    k = rng._LEVEL_DRAW_NODES + extra
    check_level(7, 100, [i % 4 for i in range(k)],
                [(i * 0x9E3779B97F4A7C15) % 2 ** 64 for i in range(k)], n, m)


# numpy's tail shuffle of range(n) (n > 10,000 and m > n // 50) draws
# through `choose`; Floyd's algorithm below it draws from the arrays
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_level_draw_over_many_features(data):
    seed, first, tree, route, n, m = levels(data.draw, sizes(
        10_001, 12_000, lambda n: st.one_of(
            st.integers(n // 50 - 5, n // 50 + 5), st.integers(n - 3, n))))
    check_level(seed, first, tree, route, n, m)


def crafted_philox(raw):
    """A stand-in for `rng._philox` whose blocks are raw[i], node i's
    words, block after block."""
    blocks = np.array(raw, dtype=np.uint64).reshape(-1, 4).T
    return lambda key, counter: blocks


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rejected_words_send_their_nodes_through_choose(data):
    # crafted Philox words, some 32-bit halves set low: a node whose Floyd
    # draw rejects one draws its own stream's set through `choose`, and
    # every other node gets the Floyd set of its crafted words
    n, m = data.draw(sizes(2, 80))
    k = data.draw(st.integers(rng._LEVEL_DRAW_NODES,
                              2 * rng._LEVEL_DRAW_NODES))
    blocks = -(-(m - (n == m)) // 8)
    raw = np.random.default_rng(data.draw(st.integers(0, 2 ** 32))).integers(
        0, 2 ** 64, size=(k, 4 * blocks), dtype=np.uint64).tolist()
    for i, w, v in data.draw(st.lists(st.tuples(
            st.integers(0, k - 1), st.integers(0, 8 * blocks - 1),
            st.integers(0, 15)), max_size=8)):
        shift = 32 * (w % 2)
        raw[i][w // 2] = raw[i][w // 2] & ~(0xFFFFFFFF << shift) | v << shift
    seed, trees = data.draw(seeds), range(4)
    tree = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    got, alone = level_draw(seed, trees, tree, range(k), n, m,
                            philox=crafted_philox(raw))
    rejects = [floyd_rejects(w, n, m) for w in raw]
    assert alone == [key_word(seed, tree[i], i)
                     for i in range(k) if rejects[i]]
    for i in range(k):
        want = (node_rng(seed, tree[i], i).choice(n, m, replace=False)
                .tolist() if rejects[i] else choose(RawWords(raw[i]), n, m))
        assert got[i].tolist() == sorted(want)


def test_a_rejected_word_sends_its_node_through_choose():
    # n = 10, m = 3: Floyd's draws read 32-bit words 0, 1 and 2 with spans
    # 8, 9 and 10, whose rejection floors 2**32 mod span are 0, 4 and 6
    n, m, k = 10, 3, rng._LEVEL_DRAW_NODES
    words = np.random.default_rng(4).integers(0, 2 ** 64, size=(k, 4),
                                              dtype=np.uint64)
    words[0, 0] &= np.uint64(0xFFFFFFFF)  # word 1 is 0: 0 * 9 rejects
    words[1, 1] = 0  # word 2 is 0: 0 * 10 rejects
    # word 1 is 477218589: 477218589 * 9 = 2**32 + 5, a low half below the
    # span but not below the floor, which accepts the draw 1
    words[2, 0] = (words[2, 0] & np.uint64(0xFFFFFFFF)) | np.uint64(
        477218589 << 32)
    seed, trees = 3, range(4)
    tree = [i % 4 for i in range(k)]
    got, alone = level_draw(seed, trees, tree, range(k), n, m,
                            philox=crafted_philox(words.tolist()))
    assert alone == [key_word(seed, tree[i], i) for i in (0, 1)]
    for i in (0, 1):
        assert got[i].tolist() == sorted(node_rng(
            seed, tree[i], i).choice(n, m, replace=False).tolist())
    for i in range(2, k):
        # the Floyd set of the crafted words
        assert got[i].tolist() == choose(RawWords(words[i].tolist()), n, m)
    assert 1 in got[2]
