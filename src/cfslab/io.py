"""System files: a JSON format for finite systems.

Format version "2" stores each point's matrix as one string: the base64 of
its row-major lower triangle, f(f+1)/2 entries of little-endian complex128
(``"<c16"``, an (re, im) pair of float64 each), completed Hermitially on
load.  It is bit-exact by construction.  :func:`write_system` always writes
version 2.  Version "1" files, whose matrices are lists of [re, im] pairs
holding either the lower triangle or the full row-major matrix, are still
read; the reader tells the two layouts apart by the matrix's JSON type.  A
completed triangle is self-adjoint off the diagonal by construction, so the
reader checks only what a stored triangle can break (a non-finite entry, a
diagonal imaginary part), and builds each point with the range finder.
"""

from __future__ import annotations

import base64
import json
import math

from .core import _HERMITICITY_RTOL, CausalFermionSystem, OperatorPoint, Tolerances
from .core import _hermitian, _range_parts
from .errors import ValidationError

import numpy as np

__all__ = ["read_system", "system_to_json", "write_system"]

FORMAT_VERSION = "2"
READ_VERSIONS = ("1", FORMAT_VERSION)


def _lower_blob(op: OperatorPoint, tril) -> str:
    return base64.b64encode(op._tril(tril).astype("<c16").tobytes()).decode("ascii")


def _matrix_from_entry(raw, f: int, pid: str) -> np.ndarray:
    """A point's stored lower triangle, flat, or a version 1 full matrix."""
    n_low = f * (f + 1) // 2
    if isinstance(raw, str):
        data = base64.b64decode(raw, validate=True)
        if len(data) != 16 * n_low:
            raise ValidationError(
                f"point {pid!r}: matrix blob has {len(data)} bytes, expected {16 * n_low}"
            )
        return np.frombuffer(data, dtype="<c16").astype(np.complex128, copy=False)
    if not isinstance(raw, list):
        raise ValidationError(
            f"point {pid!r}: matrix must be a base64 string or a list of [re, im] pairs"
        )
    pairs = np.asarray(raw)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValidationError(f"point {pid!r}: matrix must be a list of [re, im] pairs")
    # .view keeps signed zeros, which re + 1j * im would not
    low = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[:, 0]
    if len(low) == f * f:
        return low.reshape(f, f)
    if len(low) != n_low:
        raise ValidationError(
            f"point {pid!r}: matrix has {len(low)} entries, expected "
            f"{n_low} (lower triangle) or {f * f} (full)"
        )
    return low


def _hermitian_from_triangle(low: np.ndarray, tril) -> np.ndarray:
    """``core._hermitian`` of the matrix with stored lower triangle ``low``
    (row-major, at ``tril``) and its conjugate above, bit for bit, from the
    stored entries: its test on the diagonal's imaginary parts against
    ``||A||_F``, and its halving as ``0.5 * (x + x)`` on each entry and its
    conjugate and ``0.5 * (d + conj d)`` on the diagonal.  Entries above
    2**1022, where ``x + x`` overflows, take ``_hermitian`` itself.
    """
    rows, cols = tril
    diag = np.flatnonzero(rows == cols)
    m = np.empty((diag.size, diag.size), dtype=np.complex128)
    s = np.abs(low).max()
    if not math.isfinite(s):
        raise ValidationError("matrix has a non-finite entry")
    if s > 2.0**1022:
        m[cols, rows] = low.conj()
        m[rows, cols] = low
        return _hermitian(m)
    b = (low.view(np.float64) / (s or 1.0)).view(np.complex128)
    bd = b[diag]
    defect2 = 4.0 * np.dot(bd.imag, bd.imag)
    if defect2 > _HERMITICITY_RTOL**2 * (2.0 * np.vdot(b, b).real - np.vdot(bd, bd).real):
        raise ValidationError(
            f"matrix is not self-adjoint: ||A - A*|| = {math.sqrt(defect2) * s:.3e}"
        )
    # in place, one triangle-sized array at a time: x *= 0.5 has the bits of
    # 0.5 * x
    half = low.conj()
    d = 0.5 * (low[diag] + half[diag])
    half += half
    half *= 0.5
    m[cols, rows] = half
    np.add(low, low, out=half)
    half *= 0.5
    half[diag] = d
    m[rows, cols] = half
    return m


def system_to_json(system: CausalFermionSystem) -> str:
    """Serialize a system; deterministic for identical systems.  The text is
    ``json.dumps(doc, indent=1) + "\\n"``, but with each base64 blob, which
    needs no escaping, put in directly."""
    doc = {
        "version": FORMAT_VERSION,
        "n": system.n,
        "f": system.f,
        "tolerances": system.tolerances.as_dict(),
        "metadata": system.metadata,
        "points": None,
    }
    tril = np.tril_indices(system.f)
    points = ",\n".join(
        f'  {{\n   "id": {json.dumps(e.id)},\n   "weight": {json.dumps(e.weight)},\n'
        f'   "matrix": "{_lower_blob(e.op, tril)}"\n  }}'
        for e in system.points
    )
    return json.dumps(doc, indent=1).removesuffix("null\n}") + f"[\n{points}\n ]\n}}\n"


def write_system(system: CausalFermionSystem, path) -> None:
    with open(path, "w") as fh:
        fh.write(system_to_json(system))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValidationError(f"system file lacks the field {key!r}")
    return doc[key]


def read_system(path, *, eig_rel=None, imag_rel=None, zero_abs=None) -> CausalFermionSystem:
    """Parse and validate a system file of format version 1 or 2.

    ``eig_rel``, ``imag_rel`` and ``zero_abs``, where not None, replace the
    file's own tolerances before any point is built: ``zero_abs`` decides
    every point's rank.

    Raises
    ------
    ValidationError
        On malformed JSON (with line and column), missing fields, an empty
        point list, n or f below 1, a matrix blob that is not base64 of the
        right length, or violated invariants (Hermiticity, finite entries,
        signature bounds, weights).
    """
    given = {"eig_rel": eig_rel, "imag_rel": imag_rel, "zero_abs": zero_abs}
    given = {k: v for k, v in given.items() if v is not None}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"system file is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    # Entries of the wrong type or shape surface as TypeError, ValueError
    # (bad base64 among them) or OverflowError (an infinite n or f) from the
    # conversions below; one handler turns them into input errors.  Operators
    # are built after it, so that a LinAlgError (a ValueError) from their
    # eigendecomposition still reports a numeric failure.
    try:
        version = _require(doc, "version")
        if version not in READ_VERSIONS:
            raise ValidationError(f"unsupported format version {version!r}")
        n = int(_require(doc, "n"))
        f = int(_require(doc, "f"))
        if n < 1 or f < 1:
            raise ValidationError(f"need n >= 1 and f >= 1, got n={n}, f={f}")
        tolerances = Tolerances(**{**(doc.get("tolerances") or {}), **given})
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValidationError("system file metadata must be an object")
        entries = []
        for entry in _require(doc, "points"):
            pid = str(_require(entry, "id"))
            weight = float(_require(entry, "weight"))
            matrix = _matrix_from_entry(_require(entry, "matrix"), f, pid)
            entries.append((pid, weight, matrix))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed system file: {exc}") from None
    del doc  # the decoded triangles replace its text before any point is built
    if not entries:
        raise ValidationError("system file has no points")
    # a point has rank at most 2n; the range finder reads its image without
    # an f x f eigendecomposition unless it cannot certify the rank
    tril = np.tril_indices(f) if any(m.ndim == 1 for _, _, m in entries) else None
    points = []
    entries.reverse()  # popped in file order, each triangle freed once built
    while entries:
        pid, w, m = entries.pop()
        try:
            a = _hermitian(m) if m.ndim == 2 else _hermitian_from_triangle(m, tril)
            op = OperatorPoint._from_factors(a, *_range_parts(a, 2 * n, tolerances))
            points.append((pid, w, op))
        except ValidationError as exc:
            raise ValidationError(f"point {pid!r}: {exc}") from None
    return CausalFermionSystem(n, points, tolerances=tolerances, metadata=metadata)
