"""Deterministic random streams.

Every stochastic step in the package draws from a Philox counter-based
generator keyed by (seed, purpose tag, indices). Streams are independent
of each other and of execution order: a tree's growth does not depend on
which trees grow before it or beside it, and a node's draw does not
depend on the order in which nodes are grown (depth first, or level by
level over many trees), so training and the permutation analyses are
bit-identical functions of the data and the seed.
"""

import numpy as np

from .errors import ConfigError

_MASK64 = (1 << 64) - 1

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


def _stream_key(seed: int, tag: int, a: int = 0, b: int = 0) -> np.ndarray:
    if a > _INDEX_MASK or b > _INDEX_MASK:
        raise ConfigError(
            f"rng stream index out of range (limit {_INDEX_MASK})")
    sub = (tag << (2 * _INDEX_BITS)) | (a << _INDEX_BITS) | b
    return np.array([seed & _MASK64, sub & _MASK64], dtype=np.uint64)


def _stream(seed: int, tag: int, a: int = 0, b: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, tag, a, b)))


def tree_rng(seed: int, tree_id: int) -> np.random.Generator:
    """Stream driving one tree's bootstrap draw."""
    return _stream(seed, _TAG_TREE, tree_id)


def _node_key(seed: int, tree_id: int, route: int) -> np.ndarray:
    sub = mix64((_TAG_NODE << 56) ^ (tree_id * _GOLDEN) ^ route)
    return np.array([seed & _MASK64, sub], dtype=np.uint64)


def node_rng(seed: int, tree_id: int, route: int) -> np.random.Generator:
    """Stream for one node's candidate-feature draw.

    Keyed by the node's path from the root, not by visit order, so a
    structural change in one subtree leaves every other node's draw
    untouched — tree growth is a locally stable function of the data.
    """
    return np.random.Generator(np.random.Philox(key=_node_key(seed, tree_id,
                                                              route)))


class Rekeyed:
    """The streams of one purpose from one generator: streams(*index).

    Each call re-keys the same Philox generator to key_of(*index) with a
    zero counter, an empty buffer and no saved 32-bit half, so it draws
    exactly what a fresh generator with that key would, at a fraction of
    the cost of building one. The returned generator is valid until the
    next call.
    """

    def __init__(self, key_of):
        bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._key_of, self._bits, self._fresh = key_of, bits, bits.state
        self._gen = np.random.Generator(bits)

    def __call__(self, *index) -> np.random.Generator:
        self._fresh["state"]["key"] = self._key_of(*index)
        self._bits.state = self._fresh
        return self._gen


class NodeStreams(Rekeyed):
    """node_rng(seed, tree_id, route) for one tree, as streams(route)."""

    def __init__(self, seed: int, tree_id: int):
        super().__init__(lambda route: _node_key(seed, tree_id, route))


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
