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


def substream(master_seed, kind, index=0, stream=0):
    """Philox generator keyed by (master_seed, kind, stream, index).

    index < 2**40, stream < 2**16, kind < 2**8.
    """
    return np.random.Generator(np.random.Philox(key=_keys(master_seed, kind, [index], stream)[0]))


def _keys(master_seed, kind, indices, stream=0):
    """The Philox keys of substreams (master_seed, kind, stream, index), one
    uint64 row per index of the integer array indices: an (n, 2) array
    built at once.  The one key rule: index < 2**40 and stream < 2**16,
    the index range checked on the largest index."""
    try:
        # as uint64 a negative index wraps past 2**40, so the largest index checks them all
        indices = np.asarray(indices).astype(np.uint64)
    except OverflowError:  # an index past 64 bits
        raise ValueError("substream index out of range") from None
    if int(indices.max(initial=0)) >= 1 << 40:
        raise ValueError("substream index out of range")
    if not (0 <= stream < 1 << 16):
        raise ValueError("substream id out of range")
    keys = np.empty((indices.size, 2), dtype=np.uint64)
    keys[:, 0] = int(master_seed) & _MASK64
    keys[:, 1] = np.uint64((kind << 56) | (stream << 40)) | indices
    return keys


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
    for key in _keys(master_seed, kind, indices, stream):
        state["state"]["key"] = key
        gen.bit_generator.state = state
        yield gen


def path_normals(master_seed, out, stream=0):
    """Fill the array out with standard-normal increments, one keyed
    substream per path, and return it.

    out is an (n_paths, n_steps, dim) float array whose rows are each
    C-contiguous; row i is drawn from the substream keyed
    (master_seed, stream, i), so it depends on nothing else: not on where
    the row is stored, and permuting path indices permutes rows exactly.
    """
    n_paths = out.shape[0]
    # the last row's key is the largest: check it before building every key
    _keys(master_seed, PATH, [max(n_paths - 1, 0)], stream)
    for row, g in zip(out, _rekeyed(master_seed, PATH, np.arange(n_paths), stream)):
        g.standard_normal(out=row)
    return out
