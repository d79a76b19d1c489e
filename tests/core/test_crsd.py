"""CRSD storage format: construction, SpMV, round-trips, statistics."""

import numpy as np
import pytest

from repro.core.crsd import CRSDBuildParams, CRSDMatrix, compatible_wavefront
from repro.formats.base import FormatError
from repro.formats.coo import COOMatrix
from tests.conftest import random_diagonal_matrix


class TestBuildParams:
    def test_defaults(self):
        p = CRSDBuildParams()
        assert p.mrows == 64
        assert p.detect_scatter

    def test_invalid_mrows(self):
        with pytest.raises(ValueError):
            CRSDBuildParams(mrows=0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            CRSDBuildParams(idle_fill_max_rows=-2)

    def test_params_xor_kwargs(self, fig2_coo):
        with pytest.raises(TypeError):
            CRSDMatrix.from_coo(fig2_coo, CRSDBuildParams(), mrows=2, wavefront_size=2)


class TestConstruction:
    def test_fig2_build(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        assert m.nnz == 22
        assert m.num_dia_patterns == 2
        assert m.num_scatter_rows == 1
        assert m.num_scatter_width == 4
        assert m.mrows == 2

    def test_slab_size_matches_regions(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        assert m.dia_val.size == sum(r.stored_slots for r in m.regions)
        # pattern 1: 1 seg x 5 diags x 2 + pattern 2: 2 segs x 3 diags x 2
        assert m.dia_val.size == 10 + 12

    def test_fill_zeros_fig2(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        # v43 position is the only fill slot (v55 moved to scatter but its
        # slot was never part of the diagonal structure)
        assert m.fill_zeros == 1

    def test_empty_matrix(self):
        m = CRSDMatrix.from_coo(COOMatrix.empty((8, 8)), mrows=4, wavefront_size=4)
        assert m.nnz == 0
        assert m.dia_val.size == 0
        assert np.array_equal(m.matvec(np.ones(8)), np.zeros(8))

    def test_region_slab_view(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        slab = m.region_slab(1)
        assert slab.shape == (2, 3, 2)
        # first segment, AD diagonal -2: rows 2,3 -> v20, v31
        assert slab[0, 0, 0] == 11.0
        assert slab[0, 0, 1] == 14.0

    def test_mismatched_slab_rejected(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        with pytest.raises(FormatError):
            CRSDMatrix(
                m.shape, m.params, m.regions, m.dia_val[:-1],
                m.scatter_rowno, m.scatter_colval, m.scatter_val,
                m.scatter_occupancy, m.nnz,
            )


class TestFrozen:
    """One CRSD build backs every plan cache serving the matrix, so its
    value and scatter arrays are read-only."""

    ARRAYS = ("dia_val", "scatter_rowno", "scatter_colval", "scatter_val",
              "scatter_occupancy")

    @pytest.fixture
    def crsd(self, rng):
        m = CRSDMatrix.from_coo(random_diagonal_matrix(rng, n=96, scatter=3),
                                mrows=32)
        assert m.num_scatter_rows and m.dia_val.size
        return m

    def assert_frozen(self, m):
        for name in self.ARRAYS:
            arr = getattr(m, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = arr.reshape(-1)[0]

    def test_in_place_writes_raise(self, crsd):
        self.assert_frozen(crsd)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_come_back_frozen(self, crsd, how):
        import copy
        import pickle

        clone = (copy.deepcopy(crsd) if how == "deepcopy"
                 else pickle.loads(pickle.dumps(crsd)))
        self.assert_frozen(clone)
        assert np.array_equal(clone.dia_val, crsd.dia_val)
        assert np.array_equal(clone.scatter_val, crsd.scatter_val)

    @pytest.mark.parametrize("view", [False, True])
    def test_never_aliases_a_callers_buffer(self, crsd, view):
        given = {name: np.array(getattr(crsd, name)) for name in self.ARRAYS}
        handed = dict(given)
        if view:  # read-only views of the caller's writable buffers
            for name, arr in given.items():
                handed[name] = arr.view()
                handed[name].flags.writeable = False
        m = CRSDMatrix(crsd.shape, crsd.params, crsd.regions,
                       handed["dia_val"], handed["scatter_rowno"],
                       handed["scatter_colval"], handed["scatter_val"],
                       handed["scatter_occupancy"], crsd.nnz)
        self.assert_frozen(m)
        for name, arr in given.items():
            assert arr.flags.writeable, name
            assert not np.shares_memory(arr, getattr(m, name)), name

    def test_from_coo_adopts_its_fresh_arrays(self, crsd):
        """Frozen arrays handed over are adopted, not copied."""
        m = CRSDMatrix(crsd.shape, crsd.params, crsd.regions, crsd.dia_val,
                       crsd.scatter_rowno, crsd.scatter_colval,
                       crsd.scatter_val, crsd.scatter_occupancy, crsd.nnz)
        for name in self.ARRAYS:
            assert getattr(m, name) is getattr(crsd, name), name


class TestMatvec:
    def test_fig2(self, fig2_coo, fig2_dense, rng):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        x = rng.standard_normal(9)
        assert np.allclose(m.matvec(x), fig2_dense @ x)

    @pytest.mark.parametrize("mrows", [1, 2, 3, 4, 8, 16, 64, 128])
    def test_any_mrows(self, rng, mrows):
        m0 = random_diagonal_matrix(rng, n=50)
        dense = m0.todense()
        x = rng.standard_normal(50)
        m = CRSDMatrix.from_coo(
            m0, mrows=mrows, wavefront_size=compatible_wavefront(mrows)
        )
        assert np.allclose(m.matvec(x), dense @ x), mrows

    @pytest.mark.parametrize("thr", [0, 1, 2, 8, 1000])
    def test_any_fill_threshold(self, rng, thr):
        m0 = random_diagonal_matrix(rng, n=60, density=0.5)
        dense = m0.todense()
        x = rng.standard_normal(60)
        m = CRSDMatrix.from_coo(m0, mrows=4, wavefront_size=4, idle_fill_max_rows=thr)
        assert np.allclose(m.matvec(x), dense @ x), thr

    def test_scatter_disabled(self, rng):
        m0 = random_diagonal_matrix(rng, n=50, scatter=6)
        x = rng.standard_normal(50)
        m = CRSDMatrix.from_coo(m0, mrows=4, wavefront_size=4, detect_scatter=False)
        assert m.num_scatter_rows == 0
        assert np.allclose(m.matvec(x), m0.todense() @ x)

    def test_rows_not_multiple_of_mrows(self, rng):
        m0 = random_diagonal_matrix(rng, n=53)
        x = rng.standard_normal(53)
        m = CRSDMatrix.from_coo(m0, mrows=8, wavefront_size=8)
        assert np.allclose(m.matvec(x), m0.todense() @ x)

    def test_out_parameter(self, fig2_coo, rng):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        x = rng.standard_normal(9)
        out = np.full(6, 5.0)
        y = m.matvec(x, out=out)
        assert y is out
        assert np.allclose(out, fig2_coo.todense() @ x)

    def test_matrix_with_only_scatter(self):
        entries = [(1, 7), (9, 2), (20, 15)]
        rows, cols = zip(*entries)
        coo = COOMatrix(np.array(rows), np.array(cols), np.arange(1.0, 4.0), (24, 24))
        m = CRSDMatrix.from_coo(coo, mrows=4, wavefront_size=4, idle_fill_max_rows=1)
        assert m.num_scatter_rows == 3
        assert len(m.regions) == 0
        x = np.arange(24, dtype=float)
        assert np.allclose(m.matvec(x), coo.todense() @ x)


class TestRoundtrip:
    def test_fig2(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        assert m.to_coo().equals(fig2_coo)

    @pytest.mark.parametrize("seed", range(6))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        m0 = random_diagonal_matrix(rng, n=70, density=0.6, scatter=3)
        m = CRSDMatrix.from_coo(m0, mrows=8, wavefront_size=8)
        assert m.to_coo().equals(m0)


class TestStats:
    def test_adjacent_slot_fraction_fig2(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        # region 1: 2 of 5 diagonals AD; region 2: 2 of 3 AD over 2 segments
        expected = (2 * 2 + 2 * 2 * 2) / (5 * 2 + 3 * 2 * 2)
        assert m.adjacent_slot_fraction == pytest.approx(expected)

    def test_crsd_dia_index_fig2(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        # {R0, 1, C0, C2, C5, C7 | R2, 2, C0, C3}
        assert m.crsd_dia_index().tolist() == [0, 1, 0, 2, 5, 7, 2, 2, 0, 3]

    def test_inventory_is_value_arrays_only(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        assert set(m.array_inventory()) == {
            "crsd_dia_val", "scatter_rowno", "scatter_colval", "scatter_val",
        }

    def test_stored_elements(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        assert m.stored_elements == 22 + 4  # slab + scatter ELL

    def test_fig4_dump_contains_header(self, fig2_coo):
        m = CRSDMatrix.from_coo(fig2_coo, mrows=2, wavefront_size=2, idle_fill_max_rows=1)
        dump = m.fig4_dump()
        assert "num_scatter_rows = 1;" in dump
        assert "num_dia_patterns = 2;" in dump
        assert "num_scatter_width = 4;" in dump
        assert "{(NAD,1),(AD,2),(NAD,2)}" in dump
        assert "scatter_rowno = {R5}" in dump
