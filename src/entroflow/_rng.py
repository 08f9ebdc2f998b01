"""Counter-based random substreams.

Every stochastic routine in the package draws from a Philox stream whose key
is the uint64 pair (master seed mod 2**64, (kind << 56) | (stream << 40) |
index).  Streams are therefore independent by key separation, reproducible
bit-for-bit, and safe to generate in any order or in parallel.

A Philox stream is fixed by its key alone, so an ensemble needs one bit
generator, not one per row: it is re-keyed for each row (key set, counter
zeroed, buffer emptied) and draws exactly what a fresh generator with that
key would.
"""

import numpy as np

# stream kinds (top byte of the second key word)
PATH = 0  # per-path / per-particle Brownian increments
INIT = 1  # initial-condition sampling
DRAW = 2  # generic Monte Carlo draws (measure sampling, quadrature nodes)

_MASK64 = (1 << 64) - 1


def _key(master_seed, kind, index, stream):
    """The Philox key of substream (master_seed, kind, stream, index) as a
    uint64 array; index < 2**40, stream < 2**16, kind < 2**8."""
    if not (0 <= index < 1 << 40):
        raise ValueError("substream index out of range")
    if not (0 <= stream < 1 << 16):
        raise ValueError("substream id out of range")
    word = (kind << 56) | (stream << 40) | int(index)
    return np.array([int(master_seed) & _MASK64, word], dtype=np.uint64)


def substream(master_seed, kind, index=0, stream=0):
    """Philox generator keyed by (master_seed, kind, stream, index).

    index < 2**40, stream < 2**16, kind < 2**8.
    """
    return np.random.Generator(np.random.Philox(key=_key(master_seed, kind, index, stream)))


def _rekeyed(master_seed, kind, indices, stream=0):
    """Yield, for each index in turn, a generator drawing exactly what
    substream(master_seed, kind, index, stream) would.

    One Generator is re-keyed and yielded every time, so each yield
    invalidates the previous one: finish drawing before advancing.
    """
    gen = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for index in indices:
        state["state"]["key"] = _key(master_seed, kind, index, stream)
        gen.bit_generator.state = state
        yield gen


def path_normals(master_seed, n_paths, n_steps, dim, stream=0):
    """Standard-normal increments, one keyed substream per path.

    Returns an (n_paths, n_steps, dim) array; row i depends only on
    (master_seed, stream, i), so permuting path indices permutes rows exactly.
    """
    # the last row's key is the largest: check it before allocating
    _key(master_seed, PATH, max(n_paths - 1, 0), stream)
    out = np.empty((n_paths, n_steps, dim))
    for i, g in enumerate(_rekeyed(master_seed, PATH, range(n_paths), stream)):
        g.standard_normal((n_steps, dim), out=out[i])
    return out
