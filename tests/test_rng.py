import warnings

import numpy as np
import pytest

from entroflow import GaussianMeasure, euler_maruyama, gaussian_sample, linear_sde_law, mismatch_bound
from entroflow._rng import PATH, path_normals, substream
from entroflow.catalog import heat_field, ou_field, ou_spec


def fresh_rows(seed, n_paths, n_steps, dim, stream):
    """path_normals built the direct way: one fresh Philox, keyed
    (seed mod 2**64, (PATH << 56) | (stream << 40)), drawing the rows in order."""
    key = np.array([seed % 2**64, (PATH << 56) | (stream << 40)], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=key))
    out = np.empty((n_paths, n_steps, dim))
    for i in range(n_paths):
        out[i] = g.standard_normal((n_steps, dim))
    return out


class TestPathNormals:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    @pytest.mark.parametrize(
        "n_paths, n_steps, dim, stream",
        [(0, 5, 2, 0), (1, 4, 3, 0), (300, 6, 3, 65535), (257, 0, 3, 0), (3, 17, 1, 12)],
    )
    def test_bit_identical_to_fresh_generator_per_row(self, seed, n_paths, n_steps, dim, stream):
        buf = np.empty((n_paths, n_steps, dim))
        out = path_normals(seed, buf, stream)
        assert out is buf
        assert np.array_equal(out, fresh_rows(seed, n_paths, n_steps, dim, stream))

    def test_row_draws_do_not_depend_on_where_rows_are_stored(self):
        # rows as the tails of wider rows, the layout of the Euler loop's path buffer
        wide = np.full((40, 50), -7.0)
        tail = wide[:, 50 - 9 * 3 :].reshape(40, 9, 3)
        path_normals(11, tail, 2)
        assert np.array_equal(tail, fresh_rows(11, 40, 9, 3, 2))
        assert np.all(wide[:, : 50 - 9 * 3] == -7.0)

    def test_stream_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="id out of range"):
            path_normals(0, np.empty((4, 3, 2)), stream=2**16)
        with pytest.raises(ValueError, match="id out of range"):
            path_normals(0, np.empty((0, 3, 2)), stream=-1)

    def test_first_rows_are_the_smaller_ensemble(self):
        # the rows are drawn in order from one stream: k rows of n are the k-row draw
        big = path_normals(5, np.empty((30, 7, 2)), 3)
        for k in (0, 1, 12):
            assert np.array_equal(path_normals(5, np.empty((k, 7, 2)), 3), big[:k])
        paths = euler_maruyama(ou_field(2), [0.5, -0.5], np.linspace(0.0, 1.0, 8), 4, n_paths=20).paths
        few = euler_maruyama(ou_field(2), [0.5, -0.5], np.linspace(0.0, 1.0, 8), 4, n_paths=6).paths
        assert np.array_equal(few, paths[:6])

    def test_seeds_outside_signed_range_give_distinct_keys(self):
        seeds = [-1, 0, 2**63 + 1, 2**63 + 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = [path_normals(s, np.empty((3, 4, 2))) for s in seeds]
            keys = [substream(s, PATH, 5, 9).bit_generator.state["state"]["key"] for s in seeds]
        for i in range(len(seeds)):
            for j in range(i):
                assert not np.array_equal(outs[i], outs[j])
        for s, key in zip(seeds, keys):
            assert key.dtype == np.uint64
            assert key.tolist() == [s % 2**64, (9 << 40) | 5]


class TestSeedRule:
    """A seed is an integer: anything else would be truncated to one, and two
    different seeds would give the same report."""

    @pytest.mark.parametrize("seed", [1.9, 1.0, True, "1", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            substream(seed, PATH)
        with pytest.raises(ValueError, match="seed must be an integer"):
            path_normals(seed, np.empty((2, 3, 1)))
        with pytest.raises(ValueError, match="seed must be an integer"):
            euler_maruyama(heat_field(1), [0.0], [0.0, 0.5, 1.0], seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            gaussian_sample(GaussianMeasure.standard(2), 4, seed)

    @pytest.mark.parametrize("seed", [0, -3, np.int64(7), np.uint8(7), 2**70])
    def test_integer_seed_taken_mod_2_64(self, seed):
        key = substream(seed, PATH, 5).bit_generator.state["state"]["key"]
        assert key.tolist() == [int(seed) % 2**64, 5]


class TestOnePhiloxPerEnsemble:
    """One bit generator per ensemble and per mismatch bound: a construction
    count that grows with the ensemble or the node count would cost a key
    set-up per row or per node."""

    def test_euler_ensemble(self, philox_keys):
        counts = []
        for n_paths in (10, 1000):
            philox_keys.clear()
            euler_maruyama(heat_field(2), [0.0, 0.0], np.linspace(0.0, 1.0, 5), 3, n_paths=n_paths)
            counts.append(len(philox_keys))
        assert counts == [1, 1]

    def test_mismatch_bound(self, philox_keys):
        f1, f2 = ou_field(1, 1.0, 0.5), heat_field(1, 0.5)
        spec = ou_spec(1, 1.0, 0.5, x0=[1.0])
        counts = []
        for n_nodes in (16, 200):
            philox_keys.clear()
            mismatch_bound(f1, f2, 0.5, lambda s: linear_sde_law(spec, s), n_mc=8, seed=1, n_nodes=n_nodes)
            counts.append(len(philox_keys))
        assert counts == [1, 1]
