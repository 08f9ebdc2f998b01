"""Counter-based random streams.

Every stochastic routine in the package draws from a Philox stream whose key
is the uint64 pair (master seed mod 2**64, (kind << 56) | (stream << 40) |
index).  Each draw site of the package has a (kind, index) of its own, named
once below, and stream tells apart the ensembles or clouds that one run draws
at one site.  Streams are independent by key separation and reproducible bit
for bit, and nothing is added to a master seed, so two seeds key disjoint
streams.

An ensemble draws its rows in order from one stream (see path_normals): the
first k rows of an n-row ensemble are the k-row ensemble, and a row's draws
depend on the rows before it.
"""

from numbers import Integral

import numpy as np

# stream kinds (top byte of the second key word)
PATH = 0  # Brownian increments of paths and particles
INIT = 1  # initial-condition sampling
DRAW = 2  # generic Monte Carlo draws (measure sampling, quadrature nodes)

# the draw sites, as (kind, index): each is named once here, and no two agree
PATH_NOISE = (PATH, 0)  # path_normals
GAUSSIAN_SAMPLE = (DRAW, 0)  # measures.gaussian_sample
TALAGRAND_SUBSAMPLE = (DRAW, 1)  # talagrand_experiment's subsample of nu
TALAGRAND_REFERENCE = (DRAW, 2)  # talagrand_experiment's OT reference draws
MISMATCH_NODES = (DRAW, 3)  # oracles._node_values, every node of one bound
CLOUD = (INIT, 0)  # meanfield._initial_cloud
COUPLED_CLOUDS = (INIT, 1)  # meanfield._coupled_initial_clouds

_MASK64 = (1 << 64) - 1


def substream(master_seed, kind, index=0, stream=0):
    """Philox generator keyed by (master_seed, kind, stream, index)."""
    return np.random.Generator(np.random.Philox(key=_key(master_seed, kind, index, stream)))


def _key(master_seed, kind, index, stream):
    """The Philox key of stream (master_seed, kind, stream, index), a uint64
    pair.  The one key rule: master_seed is an integer (a numpy integer
    passes, a bool does not), taken mod 2**64; index < 2**40, stream < 2**16
    and kind < 2**8."""
    if not isinstance(master_seed, Integral) or isinstance(master_seed, bool):
        raise ValueError(f"seed must be an integer, got {master_seed!r}")
    if not (0 <= index < 1 << 40):
        raise ValueError("substream index out of range")
    if not (0 <= stream < 1 << 16):
        raise ValueError("substream id out of range")
    return np.array([int(master_seed) & _MASK64, (kind << 56) | (int(stream) << 40) | int(index)], dtype=np.uint64)


def path_normals(master_seed, out, stream=0):
    """Fill the array out with standard-normal increments and return it.

    out is an (n_paths, n_steps, dim) float array whose rows are each
    C-contiguous.  The rows are drawn in order from the one stream keyed
    (master_seed, PATH_NOISE, stream), each straight into its own row, so the
    draws do not depend on where the rows are stored, and the first k rows
    of n are the k-row draw.
    """
    g = substream(master_seed, *PATH_NOISE, stream)
    for row in out:
        g.standard_normal(out=row)
    return out
