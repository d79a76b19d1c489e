"""Persist CRSD matrices to disk (.npz) and fingerprint them.

CRSD construction (analysis + slab fill + codegen) is the expensive,
once-per-matrix step; iterative applications amortise it by storing
the built format.  The file carries every array of Fig. 4 plus the
region metadata needed to regenerate codelets bit-identically.

:func:`fingerprint` is the identity half of that amortisation story:
a stable content hash of the *mathematical* matrix, independent of the
carrier format, so cache keys (the serving layer's
:class:`~repro.serve.cache.PlanCache`), profile artifacts and saved
files all agree on which matrix they are talking about.

:func:`fingerprints` memoises its result on a
:class:`~repro.formats.coo.COOMatrix` carrier: COO carriers are frozen
(read-only arrays that cannot be rebound), so the hashes of one
instance never change and every later lookup — router, plan cache,
replica fan-out, hedges, shards — returns the stored result instead of
re-hashing the arrays.  The memo lives on the instance (never keyed by
``id()``) and is dropped when it is pickled.  It covers COO only:
every other carrier (CRSD, SymCRSD, any other format, dense arrays,
scipy objects) is canonicalised and hashed on every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.crsd import CRSDBuildParams, CRSDMatrix
from repro.core.pattern import DiagonalPattern, PatternRegion
from repro.formats.coo import COOMatrix

#: format marker + version for forward compatibility
MAGIC = "repro-crsd"
VERSION = 1

#: domain tag hashed into every fingerprint; bump if the canonical
#: byte layout below ever changes
FINGERPRINT_DOMAIN = b"repro-matrix-fp/v1"

#: domain tags of the pattern/value halves of the split fingerprint
PATTERN_FINGERPRINT_DOMAIN = b"repro-matrix-fp-pattern/v1"
VALUE_FINGERPRINT_DOMAIN = b"repro-matrix-fp-values/v1"

#: hex digits of the (truncated) fingerprint
FINGERPRINT_LEN = 16


@dataclass(frozen=True)
class MatrixFingerprints:
    """The three content hashes of one matrix.

    ``combined`` is the historical :func:`fingerprint` (the
    backward-compatible cache key over shape + coordinates + values);
    ``pattern`` hashes only shape + coordinates, so two matrices with
    the same sparsity structure but different values share it (and can
    share cached plans, codelets and fused callables); ``values``
    hashes only the value array.  ``pattern`` + ``values`` together
    identify the matrix exactly as ``combined`` does.
    """

    combined: str
    pattern: str
    values: str


def fingerprints(matrix) -> MatrixFingerprints:
    """All three content hashes of ``matrix`` in one canonicalisation
    pass (see :func:`fingerprint` for the canonical form and the
    accepted carrier formats); memoised on a frozen COO carrier."""
    if isinstance(matrix, COOMatrix) and not _writeable(matrix):
        if matrix._fingerprints is None:
            matrix._fingerprints = _hash(matrix, matrix)
        return matrix._fingerprints
    from repro.api import _as_coo

    return _hash(matrix, _as_coo(matrix))


def _writeable(coo: COOMatrix) -> bool:
    return (coo.rows.flags.writeable or coo.cols.flags.writeable
            or coo.vals.flags.writeable)


def _hash(matrix, coo: COOMatrix) -> MatrixFingerprints:
    # carriers whose *serving identity* differs from the mathematical
    # matrix (e.g. the symmetric half carrier, whose cached plans and
    # codelets are not interchangeable with the full pattern's) declare
    # a variant tag folded into every hash — read off the original
    # object, since its COO form ``coo`` no longer carries it
    variant = bytes(getattr(matrix, "fingerprint_variant", b""))
    shape = np.asarray([coo.nrows, coo.ncols], dtype=np.int64)
    rows = np.ascontiguousarray(coo.rows, dtype=np.int64)
    cols = np.ascontiguousarray(coo.cols, dtype=np.int64)
    vals = np.ascontiguousarray(coo.vals, dtype=np.float64)
    combined = hashlib.sha256(FINGERPRINT_DOMAIN + variant)
    pattern = hashlib.sha256(PATTERN_FINGERPRINT_DOMAIN + variant)
    values = hashlib.sha256(VALUE_FINGERPRINT_DOMAIN + variant)
    for buf in (shape, rows, cols):
        combined.update(buf)
        pattern.update(buf)
    combined.update(vals)
    values.update(vals)
    return MatrixFingerprints(
        combined=combined.hexdigest()[:FINGERPRINT_LEN],
        pattern=pattern.hexdigest()[:FINGERPRINT_LEN],
        values=values.hexdigest()[:FINGERPRINT_LEN])


def fingerprint(matrix) -> str:
    """Stable content hash of a matrix, as a short hex string.

    The hash is computed over the *canonical COO form* — triplets
    sorted row-major with duplicate coordinates summed and explicit
    zeros dropped (exactly what :class:`~repro.formats.coo.COOMatrix`
    construction does) — so it is invariant under the entry order and
    duplicate-splitting of the input, and identical across carrier
    formats: a :class:`~repro.core.crsd.CRSDMatrix` fingerprints the
    same as the COO (or dense array) it was built from.

    Accepts anything :func:`repro.api._as_coo` does: COO, CRSD, any
    :class:`~repro.formats.base.SparseFormat`, a dense 2-D ndarray, or
    a scipy-style object with ``.tocoo()``.
    """
    return fingerprints(matrix).combined


def pattern_fingerprint(matrix) -> str:
    """Content hash of the sparsity *pattern* alone (shape +
    coordinates, values excluded) — equal across same-pattern
    matrices with different values."""
    return fingerprints(matrix).pattern


def value_fingerprint(matrix) -> str:
    """Content hash of the canonical value array alone."""
    return fingerprints(matrix).values


def save_crsd(crsd: CRSDMatrix, path: Union[str, Path]) -> None:
    """Write a CRSD matrix to ``path`` (numpy .npz)."""
    meta = {
        "magic": MAGIC,
        "version": VERSION,
        "shape": list(crsd.shape),
        "nnz": crsd.nnz,
        "params": {
            "mrows": crsd.params.mrows,
            "idle_fill_max_rows": crsd.params.idle_fill_max_rows,
            "detect_scatter": crsd.params.detect_scatter,
            "wavefront_size": crsd.params.wavefront_size,
        },
        "regions": [
            {
                "start_row": r.start_row,
                "num_segments": r.num_segments,
                "mrows": r.mrows,
                "ncols": r.ncols,
                "offsets": list(r.pattern.offsets),
            }
            for r in crsd.regions
        ],
    }
    np.savez_compressed(
        Path(path),
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        dia_val=crsd.dia_val,
        scatter_rowno=crsd.scatter_rowno,
        scatter_colval=crsd.scatter_colval,
        scatter_val=crsd.scatter_val,
        scatter_occupancy=crsd.scatter_occupancy,
    )


def load_crsd(path: Union[str, Path]) -> CRSDMatrix:
    """Read a CRSD matrix written by :func:`save_crsd`."""
    with np.load(Path(path)) as data:
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: not a repro CRSD file") from exc
        if meta.get("magic") != MAGIC:
            raise ValueError(f"{path}: not a repro CRSD file")
        if meta.get("version") != VERSION:
            raise ValueError(
                f"{path}: unsupported CRSD file version {meta.get('version')}"
            )
        params = CRSDBuildParams(**meta["params"])
        regions = tuple(
            PatternRegion(
                pattern=DiagonalPattern.from_offsets(r["offsets"]),
                start_row=r["start_row"],
                num_segments=r["num_segments"],
                mrows=r["mrows"],
                ncols=r["ncols"],
            )
            for r in meta["regions"]
        )
        return CRSDMatrix(
            shape=tuple(meta["shape"]),
            params=params,
            regions=regions,
            dia_val=data["dia_val"],
            scatter_rowno=data["scatter_rowno"],
            scatter_colval=data["scatter_colval"],
            scatter_val=data["scatter_val"],
            scatter_occupancy=data["scatter_occupancy"],
            nnz=meta["nnz"],
        )
