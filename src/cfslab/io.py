"""System files: a JSON format for finite systems.

:func:`write_system` always writes format version "3".  A generated point
(see :class:`cfslab.core.OperatorPoint`) is stored as ``"psi"``, the base64
of its r x f wave evaluation as row-major little-endian complex128
(``"<c16"``), and ``"form"``, the base64 of its r x r spin form: 16 kB
against a triangle's 502 kB at r = 4, f = 250.  The reader decomposes it
through its r x r factor, with no f x f array.  Any other point is stored
as ``"matrix"``, the base64 of its row-major ``<c16`` lower triangle,
completed Hermitially on load: equal values, but the symmetrization may
flip the sign of a zero, where a wave point reads back to the same bits.
Version "2" files hold only such triangles, and version "1" files lists of
[re, im] pairs, of the lower triangle or of the full row-major matrix.  The
reader checks and symmetrizes each matrix as the point constructor does, and
decomposes it with the range finder.
"""

from __future__ import annotations

import base64
import json
import math

from .core import CausalFermionSystem, OperatorPoint, Tolerances, _hermitian, _range_parts
from .errors import ValidationError

import numpy as np

__all__ = ["read_system", "system_to_json", "write_system"]

FORMAT_VERSION = "3"
READ_VERSIONS = ("1", "2", FORMAT_VERSION)


def _blob(values: np.ndarray) -> str:
    return base64.b64encode(values.astype("<c16").tobytes()).decode("ascii")


def _point_members(op: OperatorPoint, tril) -> str:
    """A point's stored arrays, as the JSON members after its weight."""
    if op._waves is None:
        return f'"matrix": "{_blob(op._matrix[tril])}"'
    psi, form = op._waves
    return f'"psi": "{_blob(psi)}",\n   "form": "{_blob(form)}"'


def _complex(data: bytes, count: int, pid: str, name: str) -> np.ndarray:
    """``count`` complex128 values from the bytes of a ``name`` blob."""
    if len(data) != 16 * count:
        raise ValidationError(
            f"point {pid!r}: {name} blob has {len(data)} bytes, expected {16 * count}"
        )
    return np.frombuffer(data, dtype="<c16").astype(np.complex128, copy=False)


def _waves_from_entry(entry: dict, f: int, pid: str):
    """A version 3 point's wave evaluation (r x f) and spin form (r x r)."""
    data = base64.b64decode(_require(entry, "form"), validate=True)
    r = math.isqrt(len(data) // 16)
    if r == 0 or len(data) != 16 * r * r:
        raise ValidationError(
            f"point {pid!r}: form blob has {len(data)} bytes, not those of a square matrix"
        )
    psi = _complex(base64.b64decode(entry["psi"], validate=True), r * f, pid, "psi")
    return psi.reshape(r, f), _complex(data, r * r, pid, "form").reshape(r, r)


def _matrix_from_entry(raw, f: int, pid: str) -> np.ndarray:
    """A point's stored lower triangle, flat, or a version 1 full matrix."""
    n_low = f * (f + 1) // 2
    if isinstance(raw, str):
        return _complex(base64.b64decode(raw, validate=True), n_low, pid, "matrix")
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


def _scattered(low: np.ndarray, tril) -> np.ndarray:
    """The matrix with stored lower triangle ``low`` (row-major, at ``tril``)
    and its conjugate above; the diagonal keeps the stored values."""
    rows, cols = tril
    m = np.empty((rows[-1] + 1,) * 2, dtype=np.complex128)
    m[cols, rows] = low.conj()
    m[rows, cols] = low
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
    matrices = any(e.op._waves is None for e in system.points)
    tril = np.tril_indices(system.f) if matrices else None
    points = ",\n".join(
        f'  {{\n   "id": {json.dumps(e.id)},\n   "weight": {json.dumps(e.weight)},\n'
        f'   {_point_members(e.op, tril)}\n  }}'
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
    """Parse and validate a system file of format version 1, 2 or 3.

    ``eig_rel``, ``imag_rel`` and ``zero_abs``, where not None, replace the
    file's own tolerances before any point is built: ``zero_abs`` decides
    every point's rank.

    Raises
    ------
    ValidationError
        On malformed JSON (with line and column), missing fields, an empty
        point list, n or f below 1, a point with neither ``"psi"`` nor
        ``"matrix"``, ``"psi"`` in a version 1 or 2 file, a blob that is not
        base64 of the right length, or violated invariants (Hermiticity of a
        matrix or form, finite entries, signature bounds, weights).
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
            if "psi" in entry:
                if version != FORMAT_VERSION:
                    raise ValidationError(f"point {pid!r}: psi needs format version 3")
                stored = _waves_from_entry(entry, f, pid)
            elif "matrix" in entry:
                stored = _matrix_from_entry(entry["matrix"], f, pid)
            else:
                raise ValidationError(f"point {pid!r} has neither psi nor matrix")
            entries.append((pid, weight, stored))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed system file: {exc}") from None
    del doc  # the decoded arrays replace its text before any point is built
    if not entries:
        raise ValidationError("system file has no points")
    # a point has rank at most 2n; the range finder reads a matrix point's
    # image without an f x f eigendecomposition unless it cannot certify it
    triangles = any(isinstance(m, np.ndarray) and m.ndim == 1 for _, _, m in entries)
    tril = np.tril_indices(f) if triangles else None
    points = []
    entries.reverse()  # popped in file order, each triangle freed once built
    while entries:
        pid, w, m = entries.pop()
        try:
            if isinstance(m, tuple):
                op = OperatorPoint(tol=tolerances, waves=m)
            else:
                a = _hermitian(m if m.ndim == 2 else _scattered(m, tril))
                op = OperatorPoint._from_factors(a, *_range_parts(a, 2 * n, tolerances))
            points.append((pid, w, op))
        except ValidationError as exc:
            raise ValidationError(f"point {pid!r}: {exc}") from None
    return CausalFermionSystem(n, points, tolerances=tolerances, metadata=metadata)
