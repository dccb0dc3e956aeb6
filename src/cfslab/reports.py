"""Deterministic report formatting: CSV, DOT, and JSON writers.

All floating-point output uses 17 significant digits, rows follow the
system's point order, and every report embeds the tolerance block it was
produced with, so identical inputs yield byte-identical reports.
"""

from __future__ import annotations

import json

import numpy as np

from .core import _SYMBOLS, Tolerances
from .causal import CausalGraph
from .pairs import PairAnalysis

__all__ = [
    "classification_csv",
    "connection_json",
    "convergence_csv",
    "distance_csv",
    "dot_graph",
    "fmt",
    "lattice_json",
    "order_csv",
]


#: 17-significant-digit decimal; infinities as 'inf'.  A bound method
#: rather than a function, so that mapping it over a matrix's cells adds no
#: Python call frame per cell.
fmt = "%.17g".__mod__


def _tolerance_header(tol: Tolerances) -> list[str]:
    return [
        f"# eig_rel={fmt(tol.eig_rel)}",
        f"# imag_rel={fmt(tol.imag_rel)}",
        f"# zero_abs={fmt(tol.zero_abs)}",
    ]


# Cell strings by causal code (row) and 1 - orientation sign (column).
_CELLS = np.char.add(_SYMBOLS[:, None], np.array(["+", "0", "-"]))
# Order cells by relation (False, True).
_BITS = np.array(["0", "1"])


def classification_csv(analysis: PairAnalysis, include_diagonal: bool = False) -> str:
    """Causal class matrix: entries like 'T+' (class plus direction sign).

    The diagonal reports the self relation only when requested, '-'
    otherwise.
    """
    lines = _tolerance_header(analysis.tolerances)
    ids = analysis.ids
    lines.append("id," + ",".join(ids))
    cells = _CELLS[analysis.codes, 1 - analysis.orientation]
    if not include_diagonal:
        np.fill_diagonal(cells, "-")
    # Joined row by row: converting the whole matrix to lists at once
    # would hold every cell as a Python string.
    for pid, row in zip(ids, cells):
        lines.append(pid + "," + ",".join(row.tolist()))
    return "\n".join(lines) + "\n"


def distance_csv(ids, dmat: np.ndarray, tol: Tolerances, scales) -> str:
    lines = _tolerance_header(tol)
    lines.append(f"# l_min={fmt(scales.l_min)}")
    lines.append(f"# l_max={fmt(scales.l_max)}")
    lines.append("id," + ",".join(ids))
    for pid, row in zip(ids, dmat.tolist()):
        lines.append(pid + "," + ",".join(map(fmt, row)))
    return "\n".join(lines) + "\n"


def order_csv(ids, dmat: np.ndarray, tol: Tolerances) -> str:
    """Partial-order matrix: 1 where the row point precedes the column point."""
    lines = _tolerance_header(tol)
    lines.append("id," + ",".join(ids))
    cells = _BITS[((dmat > 0) | np.eye(len(ids), dtype=bool)).view(np.uint8)]
    for pid, row in zip(ids, cells):
        lines.append(pid + "," + ",".join(row.tolist()))
    return "\n".join(lines) + "\n"


def dot_graph(graph: CausalGraph, tol: Tolerances) -> str:
    lines = ["//" + h[1:] for h in _tolerance_header(tol)]
    lines.append("digraph causal {")
    for pid in graph.ids:
        lines.append(f'  "{pid}";')
    for u, v, w in graph.edges():
        lines.append(f'  "{u}" -> "{v}" [label="{fmt(w)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_json(sets, tol: Tolerances) -> str:
    doc = {
        "tolerances": tol.as_dict(),
        "closed_sets": [list(s) for s in sets],
    }
    return json.dumps(doc, indent=1) + "\n"


def _matrix_entries(matrix: np.ndarray) -> list:
    m = np.asarray(matrix)
    return np.stack((m.real, m.imag), -1).tolist()


def connection_json(records, tol: Tolerances, composite, extras: dict) -> str:
    doc: dict = {"tolerances": tol.as_dict(), "segments": records}
    doc["composite"] = _matrix_entries(composite)
    doc.update(extras)
    return json.dumps(doc, indent=1) + "\n"


def convergence_csv(rows, tol: Tolerances) -> str:
    """Table of transport deviations over (eps, refinement) pairs."""
    lines = _tolerance_header(tol)
    lines.append("eps,n_steps,spin_deviation,frame_deviation,max_segment_residual")
    for r in rows:
        lines.append(
            ",".join(
                [
                    fmt(r["eps"]),
                    str(r["n_steps"]),
                    fmt(r["spin_deviation"]),
                    fmt(r["frame_deviation"]),
                    fmt(r["max_segment_residual"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"
