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
bounded draw, then a Fisher-Yates shuffle, or for a large share of many
features a partial Fisher-Yates shuffle of the tail. That is the draw of
numpy 2.x's `Generator.choice(n, size=m, replace=False)`, replayed in
Python ints, so `node_rng(...).choice` is its reference.
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


def _node_key(seed: int, tree_id: int, route: int) -> list[int]:
    return [seed & _MASK64,
            mix64((_TAG_NODE << 56) ^ (tree_id * _GOLDEN) ^ route)]


def node_rng(seed: int, tree_id: int, route: int) -> np.random.Generator:
    """Stream for one node's candidate-feature draw.

    Keyed by the node's path from the root, not by visit order, so a
    structural change in one subtree leaves every other node's draw
    untouched — tree growth is a locally stable function of the data.
    The grower draws the candidates as `NodeStreams.candidates`, from the
    stream's raw output (`choose`); `node_rng(...).choice(n, size=m,
    replace=False)` draws the same features through numpy and is the
    reference the tests hold it to.
    """
    return _generator(_node_key(seed, tree_id, route))


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


class NodeStreams(Rekeyed):
    """node_rng(seed, tree_id, route) for one tree, as streams(route), and
    its candidate draw, as streams.candidates(route, n, m)."""

    def __init__(self, seed: int, tree_id: int):
        super().__init__(lambda route: _node_key(seed, tree_id, route))

    def candidates(self, route: int, n: int, m: int) -> list[int]:
        """node_rng(seed, tree_id, route).choice(n, size=m, replace=False),
        drawn by `choose` from the node stream's raw output."""
        self(route)
        return choose(self._bits, n, m)


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
    """m distinct draws from range(n), n <= 2**32, in the order
    `np.random.Generator(bits).choice(n, size=m, replace=False)` gives.

    bits is a Philox fresh from its key, with no saved 32-bit half. For a
    large share of many features (n > 10,000 and m > n // 50) a partial
    Fisher-Yates shuffle of range(n) takes the last m entries. Otherwise
    Floyd's algorithm draws one value in [0, j] for j = n - m .. n - 1,
    taking j when the value was drawn before, and a Fisher-Yates shuffle
    of the m values follows. Every draw is `_lemire`'s.
    """
    words = _words(bits, m)
    if n > 10000 and m > n // 50:
        pool = list(range(n))
        for i in range(n - 1, max(n - m, 1) - 1, -1):
            k = _lemire(words, i)
            pool[i], pool[k] = pool[k], pool[i]
        return pool[n - m:]
    out, seen = [], set()
    for j in range(n - m, n):
        v = _lemire(words, j)
        if v in seen:
            v = j
        seen.add(v)
        out.append(v)
    for i in range(m - 1, 0, -1):
        k = _lemire(words, i)
        out[i], out[k] = out[k], out[i]
    return out


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


def donor_streams(seed: int) -> Rekeyed:
    """donor_rng(seed, tree_id, feature) as streams(tree_id, feature)."""
    return Rekeyed(lambda t, k: _stream_key(seed, _TAG_DONOR, t, k))


def permute_streams(seed: int) -> Rekeyed:
    """permute_rng(seed, tree_id, feature) as streams(tree_id, feature)."""
    return Rekeyed(lambda t, k: _stream_key(seed, _TAG_PERMUTE, t, k))


def query_donor_streams(seed: int) -> Rekeyed:
    """query_donor_rng(seed, feature) as streams(feature)."""
    return Rekeyed(lambda k: _stream_key(seed, _TAG_QUERY_DONOR, k))
