"""Deterministic random streams.

Every stochastic step in the package draws from a Philox counter-based
generator keyed by (seed, purpose tag, indices). Streams are independent
of each other and of execution order: a tree's growth does not depend on
which trees grow before it or beside it, and a node's draw does not
depend on the order in which nodes are grown (depth first, or level by
level over many trees), so training and the permutation analyses are
bit-identical functions of the data and the seed.

A node's candidate features are m of n drawn without replacement from
the node's raw Philox output (`choose`): Floyd's algorithm with Lemire's
bounded draw, or for a large share of many features a partial
Fisher-Yates shuffle of the tail. That is the set numpy 2.x's
`Generator.choice(n, size=m, replace=False)` draws, replayed in Python
ints, so `node_rng(...).choice` is its reference; numpy's shuffle of
Floyd's values reorders the set, and the grower only needs the set.

Philox is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011): each block of a stream is a pure function of
its key and counter. So the grower draws a whole level's candidate sets
at once (`LevelStreams.candidates`): one uint64 pass keys every node,
Philox4x64-10 runs on uint64 arrays (`_philox`), and Floyd's draws take
their Lemire draws column by column. A node whose Floyd draw would
reject a word, a large share of many features, and a level of fewer
than _LEVEL_DRAW_NODES nodes draw through `choose`; every node gets the
same set either way.
"""

import operator

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_LOW32 = (1 << 32) - 1

# purpose tags; kept stable because they are part of the determinism contract
_TAG_TREE = 1
_TAG_SYNTHETIC = 2
_TAG_DONOR = 3
_TAG_PERMUTE = 4
_TAG_QUERY_DONOR = 5
_TAG_NODE = 6

_INDEX_BITS = 28
# how many tree ids, and how many feature ids, a stream key can tell apart
STREAM_LIMIT = 1 << _INDEX_BITS
_INDEX_MASK = STREAM_LIMIT - 1

_GOLDEN = 0x9E3779B97F4A7C15

# Philox4x64-10's multipliers, as a (2, 1) column for the two products of
# a round, and its key increments (Weyl constants)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                     dtype=np.uint64)
# every array of the level draw is np.uint64, and so is every numpy
# scalar that meets one: under numpy 1.x's value-based casting an int64
# array would turn a uint64 array float64. The constants that `mix64` and
# `_node_word` share with the Python-int path are non-negative Python
# ints, which keep a uint64 array uint64 under numpy 1.x and 2.x and,
# unlike 0-d numpy scalars, never warn when the arithmetic wraps
_U32 = np.uint64(32)
_U_LOW32 = np.uint64(_LOW32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _U_LOW32, _PHILOX_M >> _U32

# a level of at least this many nodes draws its candidates from one
# `_philox` pass; a level of fewer draws node by node. On levels of k
# random nodes (min of 40 x 20 calls; numpy 2.4.6, 2 shared vCPUs), 2 of
# 6, 3 of 10 and 5 of 15 features drawn node by node take 4.2, 4.5 and
# 5.4 us a node, and from arrays 185-235 us at k = 20-60; they cross
# between 40 and 45 nodes. Replaying each benchmark workload's seed-1
# levels, 40 and 45 differ by less than the noise
_LEVEL_DRAW_NODES = 40


def mix64(x):
    """splitmix64 finalizer: a well-spread 64-bit mix of an int, or of each
    entry of a uint64 array (whose arithmetic wraps modulo 2**64)."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


ROOT_ROUTE = mix64(1)


def child_route(route, go_right):
    """Route id of a node's child; a pure function of the path from the root.

    route is an int, or a uint64 array of routes that all turn go_right.
    """
    return mix64(route ^ (2 + int(go_right)))


def _stream_key(seed: int, tag: int, a: int = 0, b: int = 0) -> list[int]:
    seed = operator.index(seed)  # a Python int, from numpy integers too
    # a seed beyond 64 bits would alias another seed's streams
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must be in 0..{_MASK64}: random streams "
                          "are keyed by a 64-bit seed")
    if a > _INDEX_MASK or b > _INDEX_MASK:
        raise ConfigError(
            f"rng stream index out of range (limit {_INDEX_MASK})")
    sub = (tag << (2 * _INDEX_BITS)) | (a << _INDEX_BITS) | b
    return [seed, sub]


def _generator(key: list[int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array(key,
                                                             dtype=np.uint64)))


def _stream(seed: int, tag: int, a: int = 0, b: int = 0) -> np.random.Generator:
    return _generator(_stream_key(seed, tag, a, b))


def tree_rng(seed: int, tree_id: int) -> np.random.Generator:
    """Stream driving one tree's bootstrap draw."""
    return _stream(seed, _TAG_TREE, tree_id)


def _node_word(tree_id, route):
    """The second key word of node_rng(seed, tree_id, route): of ints, or
    of each entry of uint64 arrays of tree ids and routes."""
    return mix64((_TAG_NODE << 56) ^ tree_id * _GOLDEN ^ route)


def node_rng(seed: int, tree_id: int, route: int) -> np.random.Generator:
    """Stream for one node's candidate-feature draw.

    Keyed by the node's path from the root, not by visit order, so a
    structural change in one subtree leaves every other node's draw
    untouched — tree growth is a locally stable function of the data.
    The grower draws a level's candidates as `LevelStreams.candidates`,
    from Philox on arrays or from each stream's raw output (`choose`);
    `node_rng(...).choice(n, size=m, replace=False)` draws the same set
    of features through numpy and is the reference the tests hold it to.
    """
    return _generator([seed & _MASK64, _node_word(tree_id, route)])


class Rekeyed:
    """The streams of one purpose from one generator: streams(*index).

    Each call re-keys the same Philox generator to key_of(*index) with a
    zero counter, an empty buffer and no saved 32-bit half, so it draws
    exactly what a fresh generator with that key would, at a fraction of
    the cost of building one. The returned generator is valid until the
    next call.
    """

    def __init__(self, key_of):
        self._key_of = key_of
        self._bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        # a fresh Philox state in Python lists: the state setter reads it
        # entry by entry, several times faster than from numpy arrays
        self._fresh = {"bit_generator": "Philox",
                       "state": {"counter": [0] * 4, "key": [0, 0]},
                       "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
                       "uinteger": 0}

    def __call__(self, *index) -> np.random.Generator:
        self._fresh["state"]["key"] = self._key_of(*index)
        self._bits.state = self._fresh
        return self._gen


class LevelStreams:
    """The candidate draws of a growth level's nodes, over a group of
    trees: candidates(tree, route, n, m) for the nodes of trees[tree[i]]
    with path ids route[i]."""

    def __init__(self, seed: int, trees):
        self._seed = np.uint64(seed & _MASK64)
        self._trees = np.array(list(trees), dtype=np.uint64)
        self._streams = node_streams(seed)

    def candidates(self, tree, route, n: int, m: int) -> np.ndarray:
        """(nodes, m) int64 array whose row i is node i's features, the
        set node_rng(seed, trees[tree[i]], route[i]).choice(n, size=m,
        replace=False) in ascending order.

        A level of at least _LEVEL_DRAW_NODES nodes draws its Floyd sets
        from one `_philox` pass (`_floyd_level`), unless n > 10,000 and
        m > n // 50 (`choose`'s tail shuffle); every other node, and
        every node whose Floyd draw rejects a word, re-keys the node
        stream and draws through `choose`, the reference.
        """
        trees = self._trees.take(tree)
        route = np.asarray(route, dtype=np.uint64)
        out, alone = None, range(len(trees))
        if len(trees) >= _LEVEL_DRAW_NODES and not (n > 10000 and m > n // 50):
            out, reject = _floyd_level(self._seed, trees, route, n, m)
            alone = np.flatnonzero(reject).tolist()
        if alone:
            trees, route = trees.tolist(), route.tolist()
            drawn = [choose(self._streams(trees[i], route[i]).bit_generator,
                            n, m) for i in alone]
            if out is None:
                return np.array(drawn, dtype=np.int64)
            out[alone] = drawn
        return out


def _mulhilo(b):
    """(high, low) 64-bit halves of the 128-bit products _PHILOX_M * b,
    b a (2, N) uint64 array, the high half summed from 32-bit halves."""
    b_lo, b_hi = b & _U_LOW32, b >> _U32
    mid = _PHILOX_M_HI * b_lo + (_PHILOX_M_LO * b_lo >> _U32)
    carry = (mid & _U_LOW32) + _PHILOX_M_LO * b_hi
    return (_PHILOX_M_HI * b_hi + (mid >> _U32) + (carry >> _U32),
            _PHILOX_M * b)


def _philox(key, counter):
    """Philox4x64-10 blocks of uint64 arrays: key (2, N) and counter
    (4, N) give (4, N), column i the 4 words `np.random.Philox(key=key[:,
    i]).random_raw` gives at counter[:, i]. numpy steps the counter
    before each block, so a stream's first block is at (1, 0, 0, 0).

    Words 0 and 2 are multiplied, 1 and 3 XORed into the products' high
    halves, so each round runs on two (2, N) arrays.
    """
    key = np.array(key, dtype=np.uint64)
    even, odd = counter[0::2], counter[1::2]
    for r in range(10):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]])


def _floyd_level(seed, trees, routes, n: int, m: int):
    """Each node's Floyd set of m of n features, in ascending order, as a
    (nodes, m) int64 array, and which nodes must draw through `choose`.

    Node i's stream is node_rng(seed, trees[i], routes[i]) (uint64 ids).
    Floyd's draw k, in [0, j] for j = n - m + k, is Lemire's high half of
    w * (j + 1) for the stream's next 32-bit word w (each raw word's low
    half, then its high half); j = 0 reads none. A node where one of
    those products has a low half below 2**32 mod (j + 1) would reject
    the word and read another, so it is marked.
    """
    sub = _node_word(trees, routes)
    skip = int(n == m)
    blocks = -(-(m - skip) // 8)  # a block holds eight 32-bit words
    key = np.stack([np.full(len(sub) * blocks, seed, dtype=np.uint64),
                    np.repeat(sub, blocks)])
    counter = np.zeros((4, len(sub) * blocks), dtype=np.uint64)
    counter[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(sub))
    raw = _philox(key, counter).T.reshape(len(sub), 4 * blocks)
    words = np.stack([raw & _U_LOW32, raw >> _U32], axis=2).reshape(
        len(sub), 8 * blocks)
    out = np.zeros((len(sub), m), dtype=np.int64)
    reject = np.zeros(len(sub), dtype=bool)
    for k in range(skip, m):
        j = n - m + k
        x = words[:, k - skip] * np.uint64(j + 1)
        reject |= (x & _U_LOW32) < np.uint64((1 << 32) % (j + 1))
        v = (x >> _U32).astype(np.int64)
        out[:, k] = np.where((out[:, :k] == v[:, None]).any(axis=1), j, v)
    out.sort(axis=1)
    return out, reject


def _words(bits, count: int):
    """bits' 32-bit outputs: each raw 64-bit word's low half, then its
    high half, as Philox's next_uint32 gives them; `count` raw words are
    read at a time, more only when those run out."""
    while True:
        for word in bits.random_raw(count).tolist():
            yield word & _LOW32
            yield word >> 32


def _lemire(words, j: int) -> int:
    """A uniform draw from [0, j], j < 2**32, from the 32-bit words, as
    numpy's bounded draw makes it (Lemire's multiply and reject).

    A word w gives the high half of w * (j + 1), unless the low half is
    below 2**32 mod (j + 1), which it can only be when it is below j + 1;
    then the next word is tried. j = 0 reads no word.
    """
    if not j:
        return 0
    span = j + 1
    x = next(words) * span
    if x & _LOW32 < span:
        floor = ((1 << 32) - span) % span
        while x & _LOW32 < floor:
            x = next(words) * span
    return x >> 32


def choose(bits, n: int, m: int) -> list[int]:
    """The m distinct draws from range(n), n <= 2**32, that
    `np.random.Generator(bits).choice(n, size=m, replace=False)` gives,
    in ascending order.

    bits is a Philox fresh from its key, with no saved 32-bit half. For a
    large share of many features (n > 10,000 and m > n // 50) a partial
    Fisher-Yates shuffle of range(n) takes the last m entries; a dict
    holds the entries it moved below them, so no list of range(n) is
    built. Otherwise Floyd's algorithm draws one value in [0, j] for
    j = n - m .. n - 1, taking j when the value was drawn before (numpy
    then shuffles the m values, which leaves the set as it is). Every
    draw is `_lemire`'s, about one 32-bit word a value.
    """
    words = _words(bits, m // 2 + 1)
    if n > 10000 and m > n // 50:
        out, moved = [], {}
        for i in range(n - 1, n - m - 1, -1):
            k = _lemire(words, i)
            out.append(moved.get(k, k))
            moved[k] = moved.pop(i, i)
        return sorted(out)
    seen = set()
    for j in range(n - m, n):
        v = _lemire(words, j)
        seen.add(j if v in seen else v)
    return sorted(seen)


def synthetic_rng(seed: int, column: int) -> np.random.Generator:
    """Stream for the column permutation used in synthetic-row generation."""
    return _stream(seed, _TAG_SYNTHETIC, column)


def donor_rng(seed: int, tree_id: int, feature: int) -> np.random.Generator:
    """Stream for donor-row draws in the local importance measures."""
    return _stream(seed, _TAG_DONOR, tree_id, feature)


def permute_rng(seed: int, tree_id: int, feature: int) -> np.random.Generator:
    """Stream for within-OOB permutations in overall variable importance."""
    return _stream(seed, _TAG_PERMUTE, tree_id, feature)


def query_donor_rng(seed: int, feature: int) -> np.random.Generator:
    """Stream for donor draws when explaining an out-of-sample query."""
    return _stream(seed, _TAG_QUERY_DONOR, feature)


def node_streams(seed: int) -> Rekeyed:
    """node_rng(seed, tree_id, route) as streams(tree_id, route)."""
    return Rekeyed(lambda t, r: [seed & _MASK64, _node_word(t, r)])


def donor_streams(seed: int) -> Rekeyed:
    """donor_rng(seed, tree_id, feature) as streams(tree_id, feature)."""
    return Rekeyed(lambda t, k: _stream_key(seed, _TAG_DONOR, t, k))


def permute_streams(seed: int) -> Rekeyed:
    """permute_rng(seed, tree_id, feature) as streams(tree_id, feature)."""
    return Rekeyed(lambda t, k: _stream_key(seed, _TAG_PERMUTE, t, k))


def query_donor_streams(seed: int) -> Rekeyed:
    """query_donor_rng(seed, feature) as streams(feature)."""
    return Rekeyed(lambda k: _stream_key(seed, _TAG_QUERY_DONOR, k))
