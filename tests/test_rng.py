import warnings

import numpy as np
import pytest

from entroflow import euler_maruyama, linear_sde_law, mismatch_bound
from entroflow._rng import DRAW, PATH, _rekeyed, path_normals, substream
from entroflow.catalog import heat_field, ou_field, ou_spec


def fresh_rows(seed, n_paths, n_steps, dim, stream):
    """path_normals built the direct way: a new Philox per row, keyed
    (seed mod 2**64, (stream << 40) | row)."""
    out = np.empty((n_paths, n_steps, dim))
    for i in range(n_paths):
        key = np.array([seed % 2**64, (stream << 40) | i], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, dim))
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

    def test_row_count_checked_before_the_loop(self):
        # the last row's index is checked up front: a late check would
        # first try to build a key for each of the 2**40 empty rows
        with pytest.raises(ValueError, match="index out of range"):
            path_normals(0, np.empty((2**40 + 1, 0, 0)))

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


class TestRekeyed:
    def test_each_yield_draws_its_own_substream(self):
        keys = [10_000, 10_063, 0, 5, 2**40 - 1]
        for key, g in zip(keys, _rekeyed(2**64 - 3, DRAW, keys, stream=4)):
            ref = substream(2**64 - 3, DRAW, key, stream=4)
            assert g.bit_generator.state["state"]["key"].tolist() == ref.bit_generator.state["state"]["key"].tolist()
            # an odd count of 32-bit draws leaves a half-used word behind;
            # the next re-key must discard it
            assert np.array_equal(g.integers(0, 2**31, 3, dtype=np.int32), ref.integers(0, 2**31, 3, dtype=np.int32))
            assert np.array_equal(g.standard_normal(7), ref.standard_normal(7))

    def test_largest_index_checked(self):
        with pytest.raises(ValueError, match="index out of range"):
            next(_rekeyed(0, DRAW, [3, 2**40, 0]))
        with pytest.raises(ValueError, match="index out of range"):
            next(_rekeyed(0, DRAW, [3, -1]))


class TestOnePhiloxPerEnsemble:
    """Re-keying one bit generator is what makes per-path noise cheap; a
    construction count that grows with the ensemble would undo it."""

    @pytest.fixture
    def philox_count(self, monkeypatch):
        made = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            made.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        return made

    def test_euler_ensemble(self, philox_count):
        counts = []
        for n_paths in (10, 1000):
            philox_count.clear()
            euler_maruyama(heat_field(2), [0.0, 0.0], np.linspace(0.0, 1.0, 5), 3, n_paths=n_paths)
            counts.append(len(philox_count))
        assert counts == [1, 1]

    def test_mismatch_bound(self, philox_count):
        f1, f2 = ou_field(1, 1.0, 0.5), heat_field(1, 0.5)
        spec = ou_spec(1, 1.0, 0.5, x0=[1.0])
        counts = []
        for n_nodes in (16, 200):
            philox_count.clear()
            mismatch_bound(f1, f2, 0.5, lambda s: linear_sde_law(spec, s), n_mc=8, seed=1, n_nodes=n_nodes)
            counts.append(len(philox_count))
        assert counts == [1, 1]
