"""Content fingerprints: stability, carrier-invariance, surfacing."""

import numpy as np
import pytest

from repro.core.crsd import CRSDMatrix
from repro.core.serialize import (
    FINGERPRINT_LEN,
    MatrixFingerprints,
    fingerprint,
    fingerprints,
    pattern_fingerprint,
    value_fingerprint,
)
from repro.formats.coo import COOMatrix
from tests.conftest import random_diagonal_matrix


@pytest.fixture
def coo():
    rng = np.random.default_rng(11)
    return random_diagonal_matrix(rng, n=96, scatter=3)


class TestStability:
    def test_deterministic(self, coo):
        assert fingerprint(coo) == fingerprint(coo)

    def test_hex_and_length(self, coo):
        fp = fingerprint(coo)
        assert len(fp) == FINGERPRINT_LEN
        int(fp, 16)  # hex digits only

    def test_distinct_matrices_distinct_fingerprints(self, coo):
        other = random_diagonal_matrix(np.random.default_rng(12), n=96)
        assert fingerprint(coo) != fingerprint(other)

    def test_value_change_changes_fingerprint(self, coo):
        vals = coo.vals.copy()
        vals[0] += 1.0
        bumped = COOMatrix(coo.rows, coo.cols, vals, coo.shape)
        assert fingerprint(bumped) != fingerprint(coo)

    def test_shape_is_part_of_identity(self):
        a = COOMatrix(np.array([0]), np.array([0]), np.array([1.0]), (2, 2))
        b = COOMatrix(np.array([0]), np.array([0]), np.array([1.0]), (3, 3))
        assert fingerprint(a) != fingerprint(b)


class TestCanonicalisation:
    def test_entry_order_invariance(self, coo):
        perm = np.random.default_rng(0).permutation(coo.nnz)
        shuffled = COOMatrix(coo.rows[perm], coo.cols[perm],
                             coo.vals[perm], coo.shape)
        assert fingerprint(shuffled) == fingerprint(coo)

    def test_duplicate_entry_order_invariance(self):
        """COO duplicates sum in any submission order to the same
        fingerprint — the satellite's canonicalisation requirement."""
        rows = np.array([0, 1, 0, 1, 0])
        cols = np.array([0, 1, 0, 1, 2])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        a = COOMatrix(rows, cols, vals, (2, 3))
        perm = [4, 2, 0, 3, 1]
        b = COOMatrix(rows[perm], cols[perm], vals[perm], (2, 3))
        assert fingerprint(a) == fingerprint(b)

    def test_carrier_invariance(self, coo):
        """The same mathematical matrix fingerprinted as COO, CRSD or
        dense lands on the same identity."""
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        assert fingerprint(crsd) == fingerprint(coo)
        assert fingerprint(coo.todense()) == fingerprint(coo)


class TestSplitFingerprints:
    """Pattern/value split: same sparsity structure with new values
    keeps the pattern hash (so prepared plans can be adopted) while
    the value and combined hashes move."""

    def test_combined_matches_legacy_fingerprint(self, coo):
        """``fingerprints().combined`` is byte-for-byte the historical
        :func:`fingerprint` — cache keys and trajectory files written
        before the split stay valid."""
        fps = fingerprints(coo)
        assert fps.combined == fingerprint(coo)

    def test_same_pattern_new_values(self, coo):
        scaled = COOMatrix(coo.rows, coo.cols, coo.vals * 2.0 + 1.0,
                           coo.shape)
        assert pattern_fingerprint(scaled) == pattern_fingerprint(coo)
        assert value_fingerprint(scaled) != value_fingerprint(coo)
        assert fingerprint(scaled) != fingerprint(coo)

    def test_same_values_different_pattern(self, coo):
        # shift every column right by one (wraps): values identical in
        # canonical order only if the sort order is preserved — use a
        # diagonal shift that keeps per-entry values attached
        moved = COOMatrix(coo.rows, (coo.cols + 1) % coo.ncols,
                          coo.vals, coo.shape)
        assert pattern_fingerprint(moved) != pattern_fingerprint(coo)
        assert fingerprint(moved) != fingerprint(coo)

    def test_all_three_distinct_domains(self, coo):
        fps = fingerprints(coo)
        assert len({fps.combined, fps.pattern, fps.values}) == 3
        for fp in (fps.combined, fps.pattern, fps.values):
            assert len(fp) == FINGERPRINT_LEN
            int(fp, 16)

    def test_split_hashes_carrier_invariant(self, coo):
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        assert fingerprints(crsd) == fingerprints(coo)
        assert fingerprints(coo.todense()) == fingerprints(coo)

    def test_split_hashes_entry_order_invariant(self, coo):
        perm = np.random.default_rng(0).permutation(coo.nnz)
        shuffled = COOMatrix(coo.rows[perm], coo.cols[perm],
                             coo.vals[perm], coo.shape)
        assert fingerprints(shuffled) == fingerprints(coo)

    def test_shape_is_part_of_pattern(self):
        a = COOMatrix(np.array([0]), np.array([0]), np.array([1.0]), (2, 2))
        b = COOMatrix(np.array([0]), np.array([0]), np.array([1.0]), (3, 3))
        assert pattern_fingerprint(a) != pattern_fingerprint(b)
        assert value_fingerprint(a) == value_fingerprint(b)


class TestSplitEdgeCases:
    """Pattern/value split behaviour on the canonicalisation edges:
    duplicate submissions and empty matrices."""

    def test_duplicate_submission_lands_on_canonical_split(self):
        """Explicit duplicates that sum to a plain matrix's entries
        produce the *same* pattern and value hashes as the plain
        submission — the split sees canonical triplets only."""
        rows = np.array([0, 1, 2])
        cols = np.array([1, 0, 2])
        vals = np.array([4.0, 6.0, 8.0])
        plain = COOMatrix(rows, cols, vals, (3, 3))
        dup = COOMatrix(np.concatenate([rows, rows]),
                        np.concatenate([cols, cols]),
                        np.concatenate([vals * 0.5, vals * 0.5]), (3, 3))
        a, b = fingerprints(plain), fingerprints(dup)
        assert a.pattern == b.pattern
        assert a.values == b.values
        assert a.combined == b.combined

    def test_duplicate_value_change_keeps_pattern(self):
        """Changing only the duplicates' values moves the value hash
        but not the pattern hash (what certificate/pattern caches key
        on)."""
        rows = np.array([0, 0, 1])
        cols = np.array([2, 2, 1])
        a = COOMatrix(rows, cols, np.array([1.0, 2.0, 3.0]), (2, 3))
        b = COOMatrix(rows, cols, np.array([2.0, 4.0, 3.0]), (2, 3))
        assert pattern_fingerprint(a) == pattern_fingerprint(b)
        assert value_fingerprint(a) != value_fingerprint(b)
        assert fingerprint(a) != fingerprint(b)

    def test_empty_matrix_split_is_stable(self):
        empty = COOMatrix.empty((64, 64))
        fps = fingerprints(empty)
        for fp in (fps.combined, fps.pattern, fps.values):
            assert len(fp) == FINGERPRINT_LEN
            int(fp, 16)
        again = fingerprints(COOMatrix.empty((64, 64)))
        assert (fps.combined, fps.pattern, fps.values) == \
            (again.combined, again.pattern, again.values)

    def test_empty_matrix_shape_distinguishes_pattern(self):
        a = fingerprints(COOMatrix.empty((64, 64)))
        b = fingerprints(COOMatrix.empty((64, 96)))
        assert a.pattern != b.pattern
        assert a.combined != b.combined

    def test_empty_differs_from_nonempty(self, coo):
        empty = COOMatrix.empty(coo.shape)
        assert fingerprints(empty).pattern != fingerprints(coo).pattern


class TestSurfacing:
    def test_crsd_repr_carries_fingerprint(self, coo):
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        assert f"fp={fingerprint(coo)}" in repr(crsd)
        assert crsd.fingerprint == fingerprint(coo)

    def test_profile_meta_carries_fingerprint(self, coo):
        from repro.obs.profiler import profile_matrix

        report = profile_matrix(coo, "fp-test", executors=("batched",))
        assert report.meta["fingerprint"] == fingerprint(coo)


class TestPinnedDigests:
    """Hex digests captured before hashing was streamed and memoised:
    the bytes fed to SHA-256 must never change, since every serving,
    cluster and chaos report carries these strings."""

    def test_suite_matrix(self):
        from repro.matrices.suite23 import get_spec

        kim1 = get_spec("kim1").generate(scale=0.05, seed=0)
        assert fingerprints(kim1) == MatrixFingerprints(
            combined="96cf2d9ef301451e", pattern="d6899c4e2423e8b0",
            values="3f998c590f26090f")

    def test_symcrsd_carrier(self):
        from repro.core.symcrsd import SymCRSDMatrix
        from repro.matrices.generators import symmetric_banded

        band = symmetric_banded(1024, 7, np.random.default_rng(7))
        sym = SymCRSDMatrix.from_coo(band, mrows=64)
        assert fingerprints(sym) == MatrixFingerprints(
            combined="f6de4d16900748b3", pattern="a757906cd611645c",
            values="cf39d4f689537efb")


class TestFrozenCarrier:
    """``COOMatrix`` is immutable, which is what makes memoising its
    fingerprints on the instance sound."""

    @pytest.mark.parametrize("name", ["rows", "cols", "vals"])
    def test_in_place_write_raises(self, coo, name):
        arr = getattr(coo, name)
        with pytest.raises(ValueError):
            arr[0] = 1
        with pytest.raises(ValueError):
            arr += 1
        with pytest.raises(AttributeError):
            setattr(coo, name, arr.copy())

    @pytest.mark.parametrize("keep_explicit_zeros", [False, True])
    def test_caller_buffers_are_not_aliased(self, coo, keep_explicit_zeros):
        rows, cols = coo.rows.astype(np.int64), coo.cols.astype(np.int64)
        vals = coo.vals.copy()
        carrier = COOMatrix(rows, cols, vals, coo.shape,
                            keep_explicit_zeros=keep_explicit_zeros)
        before = fingerprints(carrier)
        rows[:] = 0
        cols[:] = 0
        vals[:] = 7.0
        assert vals.flags.writeable  # the caller's buffer stays theirs
        assert carrier.equals(coo)
        assert fingerprints(carrier) == before == fingerprints(
            COOMatrix(coo.rows, coo.cols, coo.vals, coo.shape))

    def test_empty_carrier_does_not_freeze_caller_buffer(self):
        z = np.empty(0)
        empty = COOMatrix(z, z, z, (4, 4))
        assert z.flags.writeable
        assert not empty.vals.flags.writeable
        assert not np.shares_memory(empty.vals, z)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_come_back_frozen(self, coo, how):
        import copy
        import pickle

        fps = fingerprints(coo)
        twin = (copy.deepcopy(coo) if how == "deepcopy"
                else pickle.loads(pickle.dumps(coo)))
        assert twin is not coo and twin.equals(coo)
        for name in ("rows", "cols", "vals"):
            assert not getattr(twin, name).flags.writeable
        with pytest.raises(ValueError):
            twin.vals[0] = 1.0
        assert fingerprints(twin) == fps


class TestMemo:
    """The hash body runs once per COO carrier, however many layers
    look the carrier up."""

    @pytest.fixture
    def hash_calls(self, monkeypatch):
        import repro.core.serialize as serialize

        calls = []
        real = serialize._hash

        def counting(matrix, coo):
            calls.append(matrix)
            return real(matrix, coo)

        monkeypatch.setattr(serialize, "_hash", counting)
        return calls

    def test_repeat_calls_return_the_memo(self, coo, hash_calls):
        first = fingerprints(coo)
        assert fingerprint(coo) == first.combined
        assert pattern_fingerprint(coo) == first.pattern
        assert value_fingerprint(coo) == first.values
        assert fingerprints(coo) is first
        assert hash_calls == [coo]

    def test_other_carriers_hash_every_call(self, coo, hash_calls):
        crsd = CRSDMatrix.from_coo(coo, mrows=32)
        dense = coo.todense()
        for carrier in (crsd, dense):
            assert fingerprints(carrier) == fingerprints(carrier)
        assert len(hash_calls) == 4

    @pytest.mark.parametrize("cluster", [None, 2])
    def test_serving_64_requests_hashes_once(self, hash_calls, cluster):
        from repro.serve import serve_session

        carrier = random_diagonal_matrix(np.random.default_rng(3), n=64)
        engine = serve_session(cluster=cluster, replicas=cluster or 1)
        x = np.random.default_rng(4).standard_normal(carrier.ncols)
        for _ in range(64):
            engine.submit(carrier, x)
        results = engine.run()
        assert len(results) == 64
        assert all(r.served for r in results)
        assert hash_calls == [carrier]


class TestValueVariantTenants:
    """Memoised hashes still tell value-variant tenants apart: they
    miss on the combined/value hash and share the pattern hash, so the
    plan cache adopts the donor's plan for each of them."""

    def test_tenants_share_pattern_only(self):
        from repro.serve import serve_session
        from repro.serve.cache import PlanCache
        from repro.serve.loadgen import (
            LoadConfig,
            _resolve_specs,
            _tenant_matrices,
        )

        config = LoadConfig(scale=0.02, tenants=3, matrices=("kim1",))
        tenants = _tenant_matrices(config, _resolve_specs(config.matrices))
        fps = [fingerprints(t) for t in tenants]
        assert len({f.pattern for f in fps}) == 1
        assert len({f.combined for f in fps}) == 3
        assert len({f.values for f in fps}) == 3

        cache = PlanCache()
        engine = serve_session(cache=cache)
        x = np.random.default_rng(5).standard_normal(tenants[0].ncols)
        for tenant in tenants:
            engine.submit(tenant, x)
        assert all(r.served for r in engine.run())
        assert set(cache.fingerprints) == {f.combined for f in fps}
        assert cache.stats.pattern_reuses == 2
