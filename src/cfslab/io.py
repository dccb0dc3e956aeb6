"""System files: a JSON format for finite systems.

Complex entries are stored as [re, im] pairs; matrices may be given as the
full row-major list or as the lower triangle only, which is completed
Hermitially on load.  Files written by :func:`write_system` always use the
lower triangle.  Parsing and emitting round-trip bit-exactly on the decimal
representation.
"""

from __future__ import annotations

import json

from .core import CausalFermionSystem, OperatorPoint, Tolerances
from .errors import ValidationError

import numpy as np

__all__ = ["read_system", "system_to_json", "write_system"]

FORMAT_VERSION = "1"


def _matrix_to_lower(matrix) -> list:
    out = []
    f = matrix.shape[0]
    for i in range(f):
        for j in range(i + 1):
            z = matrix[i, j]
            out.append([float(z.real), float(z.imag)])
    return out


def _matrix_from_pairs(pairs, f: int, pid: str) -> np.ndarray:
    n_low = f * (f + 1) // 2
    if len(pairs) == n_low:
        m = np.zeros((f, f), dtype=np.complex128)
        it = iter(pairs)
        for i in range(f):
            for j in range(i + 1):
                re, im = next(it)
                m[i, j] = complex(re, im)
                if i != j:
                    m[j, i] = complex(re, -im)
        return m
    if len(pairs) == f * f:
        flat = np.array([complex(re, im) for re, im in pairs])
        m = flat.reshape(f, f)
        defect = np.abs(m - m.conj().T).max()
        if defect > 1e-12 * max(np.abs(m).max(), 1e-300):
            raise ValidationError(
                f"point {pid!r}: matrix is not Hermitian (defect {defect:.3e})"
            )
        return m
    raise ValidationError(
        f"point {pid!r}: matrix has {len(pairs)} entries, expected "
        f"{n_low} (lower triangle) or {f * f} (full)"
    )


def system_to_json(system: CausalFermionSystem) -> str:
    """Serialize a system; deterministic for identical systems."""
    doc = {
        "version": FORMAT_VERSION,
        "n": system.n,
        "f": system.f,
        "tolerances": system.tolerances.as_dict(),
        "metadata": system.metadata,
        "points": [
            {
                "id": e.id,
                "weight": e.weight,
                "matrix": _matrix_to_lower(e.op.matrix),
            }
            for e in system.points
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def write_system(system: CausalFermionSystem, path) -> None:
    with open(path, "w") as fh:
        fh.write(system_to_json(system))


def _require(doc: dict, key: str):
    if key not in doc:
        raise ValidationError(f"system file lacks the field {key!r}")
    return doc[key]


def read_system(path) -> CausalFermionSystem:
    """Parse and validate a system file.

    Raises
    ------
    ValidationError
        On malformed JSON (with line and column), missing fields, an empty
        point list, n or f below 1, or violated invariants (Hermiticity,
        signature bounds, weights).
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    # Entries of the wrong type or shape surface as TypeError or ValueError
    # from the conversions below; one handler turns them into input errors.
    # Operators are built after it, so that a LinAlgError (a ValueError) from
    # their eigendecomposition still reports a numeric failure.
    try:
        version = _require(doc, "version")
        if version != FORMAT_VERSION:
            raise ValidationError(f"unsupported format version {version!r}")
        n = int(_require(doc, "n"))
        f = int(_require(doc, "f"))
        if n < 1 or f < 1:
            raise ValidationError(f"need n >= 1 and f >= 1, got n={n}, f={f}")
        tol_doc = doc.get("tolerances", {})
        tolerances = Tolerances(**tol_doc) if tol_doc else Tolerances()
        entries = []
        for entry in _require(doc, "points"):
            pid = str(_require(entry, "id"))
            weight = float(_require(entry, "weight"))
            matrix = _matrix_from_pairs(_require(entry, "matrix"), f, pid)
            entries.append((pid, weight, matrix))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed system file: {exc}") from None
    if not entries:
        raise ValidationError("system file has no points")
    points = [(pid, w, OperatorPoint(m, tolerances)) for pid, w, m in entries]
    return CausalFermionSystem(
        n, points, tolerances=tolerances, metadata=doc.get("metadata", {})
    )
