"""System files, report determinism, and the command-line interface."""

import base64
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfslab.causal import CausalGraph, LengthScales, distance_matrix
from cfslab.cli import main, validate_system
from cfslab import cli, minkowski, pairs, reports
from cfslab.core import (
    CausalFermionSystem,
    OperatorPoint,
    Tolerances,
    _hermitian,
    classify,
    time_orientation,
)
from cfslab.errors import ValidationError
from cfslab.io import (
    _hermitian_from_triangle,
    _matrix_from_entry,
    read_system,
    system_to_json,
    write_system,
)
from cfslab.pairs import PairAnalysis
from cfslab.reports import classification_csv, distance_csv, fmt, order_csv

from conftest import (
    mixed_rank_system,
    nearby_point,
    random_point,
    random_regular_point,
    random_regular_system,
)


def _pairs(values) -> list:
    """[re, im] pairs of complex values, as a version 1 file lists them."""
    return [[float(z.real), float(z.imag)] for z in values]


def _blob(values) -> str:
    """The base64 of complex values, as a version 2 file stores a triangle."""
    return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode()


def _bad_triangle(k: int, z: complex) -> list:
    """A 3 x 3 lower triangle with entry ``k`` set to ``z``, as a version 2
    blob and as a version 1 lower list."""
    low = np.array([2.0, 0.5 - 0.25j, -1.0, 0.0, 0.1j, 0.5])
    low[k] = z
    return [_blob(low), _pairs(low)]


def _v1_doc(system, full=False) -> dict:
    """A version 1 document of ``system``: lower-triangle or full pair lists."""
    doc = json.loads(system_to_json(system))
    doc["version"] = "1"
    for point, e in zip(doc["points"], system.points):
        m = e.op.matrix
        point["matrix"] = _pairs(m.ravel() if full else m[np.tril_indices(system.f)])
    return doc


class TestSystemFile:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(80)
        system = random_regular_system(4, 8, 2, rng)
        path = tmp_path / "sys.json"
        write_system(system, path)
        loaded = read_system(path)
        assert system_to_json(loaded) == path.read_text()
        assert loaded.ids == system.ids
        for a, b in zip(loaded.points, system.points):
            assert np.array_equal(a.op.matrix, b.op.matrix)

    def test_v2_blob_layout(self):
        rng = np.random.default_rng(86)
        system = random_regular_system(2, 5, 2, rng)
        doc = json.loads(system_to_json(system))
        assert doc["version"] == "2"
        for point, e in zip(doc["points"], system.points):
            low = np.frombuffer(base64.b64decode(point["matrix"]), dtype="<c16")
            assert low.tobytes() == e.op.matrix[np.tril_indices(5)].astype("<c16").tobytes()

    def test_v1_lower_v1_full_and_v2_read_alike(self, tmp_path):
        rng = np.random.default_rng(87)
        base = random_regular_system(3, 6, 2, rng, weights=[1.0, 0.25, 3.5])
        # an imaginary -0.0 below the diagonal: re + 1j * im would drop its
        # sign, and only the bytes tell
        m = np.diag([2.0, 1.0, -1.0, -2.0, 0.0, 0.0]).astype(complex)
        m[3, 1] = complex(-0.5, -0.0)
        m[1, 3] = complex(-0.5, 0.0)
        points = [(e.id, e.weight, e.op) for e in base.points]
        points[0] = ("p0000", 1.0, OperatorPoint(m))
        system = CausalFermionSystem(2, points)
        texts = {
            "v1-lower": json.dumps(_v1_doc(system)),
            "v1-full": json.dumps(_v1_doc(system, full=True)),
            "v2": system_to_json(system),
        }
        for name, text in texts.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            loaded = read_system(path)
            assert [e.weight for e in loaded.points] == [1.0, 0.25, 3.5], name
            for a, b in zip(loaded.points, system.points):
                assert a.op.matrix.tobytes() == b.op.matrix.tobytes(), name
            assert system_to_json(loaded) == texts["v2"], name

    def test_diagonal_keeps_stored_value(self):
        # the matrix is _hermitian of the scattered one, whose diagonal holds
        # the stored value, imaginary part included, and not its conjugate
        low = np.array([1.0 + 1e-30j, 2.0 - 3.0j, -1.0 - 1e-30j])
        for raw in (_pairs(low), base64.b64encode(low.astype("<c16").tobytes()).decode()):
            stored = _matrix_from_entry(raw, 2, "a")
            assert stored.tobytes() == low.tobytes()
            m = _hermitian_from_triangle(stored, np.tril_indices(2))
            want = _hermitian(np.array([[low[0], low[1].conjugate()], low[1:]]))
            assert m.tobytes() == want.tobytes()

    _AWKWARD = [
        'quote " and backslash \\',
        "controls \x00 \x01 \n \t \x1f \x7f",
        "non-ASCII: M\u00fcller \u2202 \U0001d509",
        _blob([1.0 + 2.0j, -0.0]),
        'null\n}',
        '",\n   "matrix": "AAAA"\n  }',
    ]

    @staticmethod
    def _json_dumps_text(system) -> str:
        """The writer's text as ``json.dumps`` of the whole document."""
        tril = np.tril_indices(system.f)
        doc = {
            "version": "2",
            "n": system.n,
            "f": system.f,
            "tolerances": system.tolerances.as_dict(),
            "metadata": system.metadata,
            "points": [
                {"id": e.id, "weight": e.weight, "matrix": _blob(e.op.matrix[tril])}
                for e in system.points
            ],
        }
        return json.dumps(doc, indent=1) + "\n"

    def test_writer_matches_json_dumps(self):
        rng = np.random.default_rng(85)
        base = random_regular_system(len(self._AWKWARD), 5, 2, rng)
        weights = [0.1, 1e-300, 2.5e10, 1.0, 3.0, 7.25]
        points = [(pid, w, e.op) for pid, w, e in zip(self._AWKWARD, weights, base.points)]
        metadata = {
            text: {"points": [text, None, 1.5, {}], "matrix": text, "": []}
            for text in self._AWKWARD
        }
        for md in ({}, metadata, {"last": self._AWKWARD[4]}):
            system = CausalFermionSystem(2, points, metadata=md)
            assert system_to_json(system) == self._json_dumps_text(system)

    def test_writer_matches_json_dumps_on_a_mixture(self):
        doc = _GENERATE_DOCS["mixture"]
        systems = [minkowski.build_system(cli._minkowski_config(d)) for d in doc["components"]]
        system = minkowski.mix_systems(minkowski.MixtureSpec(tuple(systems), tuple(doc["weights"])))
        assert system_to_json(system) == self._json_dumps_text(system)

    @pytest.mark.parametrize("scale", [1.0, 2.0**1022], ids=["plain", "above-2**1022"])
    def test_triangles_read_as_hermitian_of_the_scattered_matrix(self, scale, tmp_path):
        # bit for bit, signed zeros included: the halving 0.5 * (...) is a
        # complex product, which need not keep the sign of a zero
        f = 7
        rows, cols = np.tril_indices(f)
        rng = np.random.default_rng(89)
        lows = []
        for _ in range(3):
            low = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
            kind = rng.integers(0, 5, rows.size)
            for k, z in enumerate([(-0.0, -0.0), (-0.0, 0.0), (-0.0, -0.75), (0.5, -0.0)]):
                low[kind == k] = complex(*z)
            diag = rows == cols
            # an imaginary part on the diagonal, inside the tolerance
            low[diag] = low[diag].real + 1j * 1e-14 * rng.standard_normal(f)
            lows.append(scale * low)
        assert np.abs(lows[0]).max() > 2.0**1022 or scale == 1.0
        want = []
        for low in lows:
            m = np.empty((f, f), dtype=complex)
            m[cols, rows] = low.conj()
            m[rows, cols] = low
            want.append(_hermitian(m).tobytes())
        for version, raws in (("2", map(_blob, lows)), ("1", map(_pairs, lows))):
            points = [{"id": f"p{k}", "weight": 1.0, "matrix": r} for k, r in enumerate(raws)]
            path = tmp_path / f"v{version}.json"
            path.write_text(json.dumps({"version": version, "n": f, "f": f, "points": points}))
            got = [e.op.matrix.tobytes() for e in read_system(path)]
            assert got == want, version

    @pytest.mark.parametrize(
        "raws, message",
        [
            (_bad_triangle(1, complex(np.nan, 0.0)), "point 'a': matrix has a non-finite entry"),
            (_bad_triangle(4, complex(0.0, -np.inf)), "point 'a': matrix has a non-finite entry"),
            (_bad_triangle(1, complex(1.5e308, 1.5e308)), "point 'a': matrix has a non-finite entry"),
            (
                _bad_triangle(2, complex(-1.0, 1.2345678e-6)),
                "point 'a': matrix is not self-adjoint: ||A - A*|| = 2.469e-06",
            ),
            (["AAAA!AAA"], "malformed system file: Only base64 data is allowed"),
            ([_blob(np.zeros(5))], "point 'a': matrix blob has 80 bytes, expected 96"),
        ],
        ids=["nan", "inf", "modulus-overflows", "diagonal-defect", "base64", "blob-length"],
    )
    def test_triangle_refusals_under_validate(self, raws, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for version, raw in zip("21", raws):
            point = {"id": "a", "weight": 1.0, "matrix": raw}
            path.write_text(json.dumps({"version": version, "n": 2, "f": 3, "points": [point]}))
            assert main(["validate", "--system", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "matrix, version, match",
        [
            (base64.b64encode(bytes(16 * 2)).decode(), "2", "blob has 32 bytes"),
            ("AAAA!AAA", "2", "malformed"),
            (5.0, "2", "base64 string or a list"),
            ({"re": 1.0}, "1", "base64 string or a list"),
            ([[1.0, 0.0, 0.0]] * 3, "1", "list of \\[re, im\\] pairs"),
            (None, "3", "unsupported format version '3'"),
        ],
        ids=["blob-length", "blob-base64", "number", "object", "triples", "version-3"],
    )
    def test_bad_matrix_or_version_rejected(self, matrix, version, match, tmp_path):
        doc = {
            "version": version,
            "n": 1,
            "f": 2,
            "points": [{"id": "a", "weight": 1.0, "matrix": matrix}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=match):
            read_system(path)

    def test_non_finite_blob_rejected(self, tmp_path):
        rng = np.random.default_rng(88)
        system = random_regular_system(1, 3, 1, rng)
        doc = json.loads(system_to_json(system))
        low = system.points[0].op.matrix[np.tril_indices(3)].astype("<c16")
        low[3] = complex(np.nan, 0.0)
        doc["points"][0]["matrix"] = base64.b64encode(low.tobytes()).decode()
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="non-finite"):
            read_system(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"version": "2", "metadata": {"name": "\xe9"}}')
        with pytest.raises(ValidationError, match="UTF-8"):
            read_system(path)

    def test_full_matrix_accepted(self, tmp_path):
        rng = np.random.default_rng(81)
        system = random_regular_system(1, 4, 1, rng)
        doc = json.loads(system_to_json(system))
        m = system.points[0].op.matrix
        doc["points"][0]["matrix"] = [
            [float(z.real), float(z.imag)] for z in m.ravel()
        ]
        path = tmp_path / "full.json"
        path.write_text(json.dumps(doc))
        loaded = read_system(path)
        assert np.allclose(loaded.points[0].op.matrix, m)

    def test_non_hermitian_full_matrix_rejected(self, tmp_path):
        doc = {
            "version": "1",
            "n": 1,
            "f": 2,
            "points": [
                {
                    "id": "a",
                    "weight": 1.0,
                    "matrix": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="point 'a': matrix is not self-adjoint"):
            read_system(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": "1",\n  "n": }')
        with pytest.raises(ValidationError) as err:
            read_system(path)
        assert "line 2" in str(err.value)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"version": "1", "n": 2}))
        with pytest.raises(ValidationError) as err:
            read_system(path)
        assert "'f'" in str(err.value)

    def test_wrong_entry_count(self, tmp_path):
        doc = {
            "version": "1",
            "n": 1,
            "f": 2,
            "points": [{"id": "a", "weight": 1.0, "matrix": [[1.0, 0.0]]}],
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            read_system(path)


class TestBoundedRankReader:
    """Files are read without an f x f eigendecomposition where the range
    finder can certify each point's rank, and with one where it cannot."""

    def test_cut_boundary_falls_back_to_eigh(self, tmp_path, eigh_shapes):
        # f = 48, n = 2: large enough for the range finder.  Diagonal points
        # in a permuted basis have exact eigenvalues, here within 1e-15 of
        # the cut 1e-12 but for the clear one.
        f, cut = 48, Tolerances().zero_abs
        spectra = {
            "clear": [1.0, 0.5, -0.5, -1.0],
            "above": [1.0, -1.0, 1.001 * cut],
            "below": [1.0, -1.0, 0.999 * cut],
            "neg_above": [1.0, -1.0, -1.001 * cut],
            "neg_below": [1.0, -1.0, -0.999 * cut],
        }
        perm = np.random.default_rng(91).permutation(f)
        points = []
        for pid, lams in spectra.items():
            diag = np.zeros(f)
            diag[: len(lams)] = lams
            points.append((pid, 1.0, OperatorPoint(np.diag(diag[perm]))))
        system = CausalFermionSystem(2, points)
        path = tmp_path / "cut.json"
        write_system(system, path)
        eigh_shapes.clear()
        loaded = read_system(path)
        assert eigh_shapes.count((f, f)) == len(spectra) - 1
        assert [loaded.point(pid).rank for pid in spectra] == [4, 3, 2, 3, 2]
        for e in loaded.points:
            want = system.point(e.id)
            assert (e.op.pos_eigs, e.op.neg_eigs) == (want.pos_eigs, want.neg_eigs)

    def test_dirac_sea_file_matches_memory(self, tmp_path, eigh_shapes):
        cfg = minkowski.MinkowskiConfig(
            kmax=2,
            sample_points=(
                (0.0, 0.0, 0.0, 0.0),
                (0.3, 0.1, -0.2, 0.05),
                (-0.25, 0.2, 0.1, -0.3),
                (0.1, -0.3, 0.25, 0.2),
            ),
        )
        system = minkowski.build_system(cfg)
        path = tmp_path / "sea.json"
        write_system(system, path)
        eigh_shapes.clear()
        loaded = read_system(path)
        assert system.f == 250 and (250, 250) not in eigh_shapes
        for a, b in zip(system.points, loaded.points):
            x, y = a.op, b.op
            assert (y.pos_eigs, y.neg_eigs) == (x.pos_eigs, x.neg_eigs) == (2, 2)
            lx, ly = x.nonzero_eigenvalues(), y.nonzero_eigenvalues()
            assert np.abs(ly - lx).max() <= 1e-12 * x.spectral_radius
            bx, by = x.image_basis(), y.image_basis()
            assert np.abs(by @ by.conj().T - bx @ bx.conj().T).max() <= 1e-12
        out = tmp_path / "reports"
        assert main(["classify", "--system", str(path), "--out", str(out)]) == 0
        assert (250, 250) not in eigh_shapes
        want = classification_csv(pairs.PairEngine(system).analyze())
        assert (out / "classification.csv").read_text() == want

    @pytest.mark.parametrize("signature, full_eighs", [((2, 1), 0), ((5, 4), 1)])
    def test_rank_above_2n_refused(self, signature, full_eighs, tmp_path, capsys, eigh_shapes):
        # n = 1 reads a test matrix of 6 columns: rank 3 is certified, rank 9
        # leaves a residual and takes the full eigendecomposition
        x = random_point(48, *signature, np.random.default_rng(92))
        with pytest.raises(ValidationError) as today:
            CausalFermionSystem(1, [("a", 1.0, x)])
        doc = json.loads(system_to_json(CausalFermionSystem(5, [("a", 1.0, x)])))
        doc["n"] = 1
        path = tmp_path / "rank.json"
        path.write_text(json.dumps(doc))
        eigh_shapes.clear()
        assert main(["validate", "--system", str(path)]) == 1
        assert eigh_shapes.count((48, 48)) == full_eighs
        assert capsys.readouterr().err == f"error: {today.value}\n"


class TestClassificationCsv:
    @staticmethod
    def reference_rows(analysis, include_diagonal):
        """Per-cell writer: class symbol plus direction sign."""
        sign = {1: "+", 0: "0", -1: "-"}
        rows = []
        for i, pid in enumerate(analysis.ids):
            row = [pid]
            for j in range(len(analysis.ids)):
                if i == j and not include_diagonal:
                    row.append("-")
                else:
                    row.append(analysis.symbol(i, j) + sign[int(analysis.orientation[i, j])])
            rows.append(",".join(row))
        return rows

    @pytest.mark.parametrize("include_diagonal", [False, True])
    def test_matches_per_cell_reference(self, include_diagonal):
        # Codes and signs chosen so that all nine (class, sign) cells occur
        # off the diagonal; random systems are almost never spacelike.
        k = np.arange(6)
        codes = ((k[:, None] + k[None, :]) % 3).astype(np.uint8)
        orientation = ((2 * k[:, None] + k[None, :]) % 3 - 1).astype(np.int8)
        off = ~np.eye(6, dtype=bool)
        assert len(set(zip(codes[off].tolist(), orientation[off].tolist()))) == 9
        ids = tuple(f"p{i}" for i in k)
        zeros = np.zeros((6, 6))
        analysis = PairAnalysis(ids, codes, orientation, zeros, zeros, Tolerances())
        lines = classification_csv(analysis, include_diagonal).splitlines()
        assert lines[3] == "id," + ",".join(ids)
        assert lines[4:] == self.reference_rows(analysis, include_diagonal)


class TestOrderCsv:
    def test_matches_per_cell_reference(self):
        # a 2-cycle between g1 and g2 makes its row infinite; g3 is isolated
        graph = CausalGraph(
            ["g0", "g1", "g2", "g3"], {(0, 1): 1.0, (1, 2): 0.5, (2, 1): 0.5}
        )
        dmat = distance_matrix(graph)
        assert np.isinf(dmat[0, 2]) and dmat[3].max() == 0.0
        lines = order_csv(graph.ids, dmat, Tolerances()).splitlines()
        want = [
            pid + "," + ",".join("1" if i == j or dmat[i, j] > 0 else "0" for j in range(4))
            for i, pid in enumerate(graph.ids)
        ]
        assert lines[3] == "id,g0,g1,g2,g3"
        assert lines[4:] == want


class TestDistanceCsv:
    def test_matches_per_cell_reference(self):
        def cell(value):
            if np.isinf(value):
                return "inf" if value > 0 else "-inf"
            return "%.17g" % value

        rng = np.random.default_rng(5)
        dmat = rng.uniform(0.0, 3.0, size=(5, 5)) ** 3
        dmat[np.eye(5, dtype=bool)] = 0.0
        dmat[0, 3] = dmat[2, 4] = np.inf
        dmat[1, 0] = -np.inf
        dmat[4] = 0.0
        ids = [f"g{i}" for i in range(5)]
        want = [pid + "," + ",".join(cell(v) for v in row) for pid, row in zip(ids, dmat)]
        lines = distance_csv(ids, dmat, Tolerances(), LengthScales(0.25, 2.5)).splitlines()
        assert lines[3:5] == ["# l_min=0.25", "# l_max=2.5"]
        assert lines[5] == "id," + ",".join(ids)
        assert lines[6:] == want
        assert fmt(np.inf) == "inf" and fmt(-np.inf) == "-inf" and fmt(0.0) == "0"


#: A valid one-point Minkowski config, the base of malformed variants.
_SEA = {"kind": "minkowski", "mass": 1.0, "kmax": 1, "sample_points": [[0.0, 0.0, 0.0, 0.0]]}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A generated Minkowski system file plus its config."""
    tmp = tmp_path_factory.mktemp("cli")
    config = {
        "kind": "minkowski",
        "mass": 1.0,
        "eps": 1e-3,
        "torus_radius": 0.8,
        "kmax": 1,
        "sample_points": [
            [0.0, 0.02, 0.0, 0.0],
            [0.22, 0.0, 0.0, 0.0],
            [0.44, 0.015, 0.0, 0.0],
        ],
    }
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(config))
    sys_path = tmp / "system.json"
    assert main(["generate", "--config", str(cfg_path), "--out", str(sys_path)]) == 0
    return tmp, cfg_path, sys_path


class TestCli:
    def test_validate_ok(self, generated):
        _, _, sys_path = generated
        assert main(["validate", "--system", str(sys_path)]) == 0

    def test_classify_deterministic_across_workers(self, generated, tmp_path):
        _, _, sys_path = generated
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert (
            main(
                ["classify", "--system", str(sys_path), "--out", str(out1), "--workers", "1"]
            )
            == 0
        )
        assert (
            main(
                ["classify", "--system", str(sys_path), "--out", str(out2), "--workers", "2"]
            )
            == 0
        )
        b1 = (out1 / "classification.csv").read_bytes()
        b2 = (out2 / "classification.csv").read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize(
        "flags, want",
        [([], (1e-4, 1e-4, 1e-12)), (["--eig-rel", "1e-6"], (1e-6, 1e-4, 1e-12))],
    )
    def test_tolerance_flags_override_file(self, flags, want, tmp_path):
        # flags not given keep the file's own tolerance block
        rng = np.random.default_rng(6)
        base = random_regular_system(3, 6, 1, rng)
        system = CausalFermionSystem(
            1,
            [(e.id, e.weight, e.op) for e in base.points],
            tolerances=Tolerances(eig_rel=1e-4, imag_rel=1e-4),
        )
        sys_path = tmp_path / "system.json"
        write_system(system, sys_path)
        out = tmp_path / "cls"
        assert main(["classify", "--system", str(sys_path), "--out", str(out), *flags]) == 0
        header = (out / "classification.csv").read_text().splitlines()[:3]
        names = ("eig_rel", "imag_rel", "zero_abs")
        assert header == [f"# {name}={fmt(value)}" for name, value in zip(names, want)]

    def test_classification_matrix_layout(self, generated, tmp_path):
        _, _, sys_path = generated
        out = tmp_path / "cls"
        main(["classify", "--system", str(sys_path), "--out", str(out)])
        lines = [
            l
            for l in (out / "classification.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        header = lines[0].split(",")
        assert header == ["id", "p0000", "p0001", "p0002"]
        row0 = lines[1].split(",")
        assert row0[1] == "-"  # diagonal placeholder
        assert row0[2][0] in "STL" and row0[2][1] in "+-0"

    def test_include_diagonal(self, generated, tmp_path):
        _, _, sys_path = generated
        out = tmp_path / "diag"
        main(
            [
                "classify",
                "--system",
                str(sys_path),
                "--out",
                str(out),
                "--include-diagonal",
            ]
        )
        lines = [
            l
            for l in (out / "classification.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert lines[1].split(",")[1] != "-"

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_distance_and_order(self, generated, tmp_path):
        _, _, sys_path = generated
        out = tmp_path / "dist"
        code = main(
            [
                "distance",
                "--system",
                str(sys_path),
                "--lmin",
                "3.0",
                "--lmax",
                "3.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        dot = (out / "graph.dot").read_text()
        assert dot.startswith("// eig_rel=")
        assert dot.splitlines()[3] == "digraph causal {"
        assert '"p0002" -> "p0001"' in dot
        distances = (out / "distances.csv").read_text()
        assert "inf" not in distances
        order = (out / "order.csv").read_text()
        assert order.splitlines()[-1].startswith("p0002")

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_lattice(self, generated, tmp_path):
        _, _, sys_path = generated
        out = tmp_path / "lat"
        code = main(
            [
                "lattice",
                "--system",
                str(sys_path),
                "--lmin",
                "3.0",
                "--lmax",
                "3.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "lattice.json").read_text())
        assert [] in doc["closed_sets"]
        assert ["p0000", "p0001", "p0002"] in doc["closed_sets"]

    def test_connect_and_holonomy(self, generated, tmp_path):
        _, _, sys_path = generated
        out = tmp_path / "conn"
        code = main(
            [
                "connect",
                "--system",
                str(sys_path),
                "--path",
                "p0000,p0001,p0002",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "connection.json").read_text())
        assert len(doc["segments"]) == 2
        assert all(seg["unitarity"] < 1e-9 for seg in doc["segments"])

        out2 = tmp_path / "hol"
        code = main(
            [
                "holonomy",
                "--system",
                str(sys_path),
                "--triangle",
                "p0000,p0001,p0002",
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        doc = json.loads((out2 / "holonomy.json").read_text())
        assert doc["unitarity"] < 1e-9

    def test_matrix_reports_match_per_entry_form(self, generated, tmp_path, monkeypatch):
        # connection.json and holonomy.json against the composite written
        # one [re, im] entry at a time, signed zeros, NaN and inf included
        def per_entry(matrix):
            return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]

        m = (np.arange(16) / 3 - 1j * np.arange(16) / 7).reshape(4, 4)
        m[0, 1], m[2, 3] = complex(-0.0, -0.0), complex(np.nan, np.inf)
        doc = {"tolerances": Tolerances().as_dict(), "segments": [], "composite": per_entry(m)}
        assert reports.connection_json([], Tolerances(), m, {}) == json.dumps(doc, indent=1) + "\n"
        assert "[\n    -0.0,\n    -0.0\n   ]" in reports.connection_json([], Tolerances(), m, {})
        _, _, sys_path = generated
        argvs = {
            "connection.json": ["connect", "--path", "p0000,p0001,p0002"],
            "holonomy.json": ["holonomy", "--triangle", "p0000,p0001,p0002"],
        }
        written = {}
        for form in ("array", "per-entry"):
            if form == "per-entry":
                monkeypatch.setattr(reports, "_matrix_entries", per_entry)
            for name, argv in argvs.items():
                out = tmp_path / form
                assert main([*argv, "--system", str(sys_path), "--out", str(out)]) == 0
                written.setdefault(name, []).append((out / name).read_bytes())
        assert all(array == entries for array, entries in written.values())

    def test_connect_refuses_other_damping_kernels(self, generated, tmp_path, capsys):
        _, _, sys_path = generated
        doc = json.loads(sys_path.read_text())
        doc["metadata"]["damping"] = "gaussian"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        args = ["connect", "--system", str(old), "--path", "p0000,p0001,p0002"]
        assert main([*args, "--out", str(tmp_path / "conn")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "gaussian" in err[0]

    def test_converge(self, generated, tmp_path):
        _, cfg_path, _ = generated
        out = tmp_path / "conv"
        code = main(
            [
                "converge",
                "--config",
                str(cfg_path),
                "--eps-list",
                "8e-3,4e-3",
                "--refine-list",
                "2,4",
                "--duration",
                "0.4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("eps,n_steps")
        assert len(data) == 5

    def test_exit_codes(self, generated, tmp_path):
        _, _, sys_path = generated
        # usage error
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2
        # validation error: missing file
        assert main(["validate", "--system", str(tmp_path / "nope.json")]) == 1
        # numeric failure: holonomy over a non-connectable triple
        rng = np.random.default_rng(82)
        bad = CausalFermionSystem(
            1,
            [
                ("a", 1.0, OperatorPoint(np.diag([1.0, -1.0, 0.0, 0.0]))),
                ("b", 1.0, OperatorPoint(np.diag([0.0, 0.0, 1.0, -1.0]))),
                ("c", 1.0, OperatorPoint(np.diag([1.0, 0.0, 0.0, -1.0]))),
            ],
        )
        bad_path = tmp_path / "bad.json"
        write_system(bad, bad_path)
        code = main(
            ["holonomy", "--system", str(bad_path), "--triangle", "a,b,c", "--out", str(tmp_path)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "config, argv, code",
        [
            ([_SEA], ["generate"], 1),
            ({"kind": "mixture", "weights": [1.0]}, ["generate"], 1),
            ({**_SEA, "sample_points": [[0.0, 0.0, 0.0]]}, ["generate"], 1),
            ({**_SEA, "mass": "a"}, ["generate"], 1),
            ({**_SEA, "kmax": 1.5}, ["generate"], 1),
            (
                {"kind": "mixture", "weights": [0.5, 0.5], "components": [_SEA, {**_SEA, "kmax": 0}]},
                ["generate"],
                1,
            ),
            ({**_SEA, "kind": "bogus"}, ["converge", "--eps-list", "0.001", "--refine-list", "2"], 1),
            (
                {"kind": "mixture", "weights": [1.0], "components": [{**_SEA, "kind": "mixture"}]},
                ["generate"],
                1,
            ),
            (_SEA, ["converge", "--eps-list", "0.001,abc", "--refine-list", "2"], 2),
            (_SEA, ["converge", "--eps-list", "0.001", "--refine-list", "0"], 2),
            *(
                (_SEA, ["converge", "--eps-list", "0.001", "--refine-list", "2", f"--duration={d}"], c)
                for d, c in (("0", 2), ("-1", 2), ("nan", 2), ("1e300", 1))
            ),
            ({**_SEA, "torus_radius": 1e-300}, ["generate"], 1),
            ({**_SEA, "torus_radius": 1e300}, ["generate"], 1),
            (None, ["connect", "--path", "p0000,zzz"], 1),
            (None, ["holonomy", "--triangle", "p0000,p0001,zzz"], 1),
            (None, ["classify", "--workers", "-3"], 2),
            (None, ["distance", "--lmin", "3", "--lmax", "3.5", "--workers", "0"], 2),
            (None, ["lattice", "--lmin", "3", "--lmax", "3.5", "--max-points", "-1"], 2),
            (None, ["lattice", "--lmin", "3", "--lmax", "3.5", "--max-points", "0"], 2),
        ],
        ids=[
            "array-config",
            "mixture-without-components",
            "three-coordinates",
            "string-mass",
            "fractional-kmax",
            "mixture-kmax-mismatch",
            "converge-unknown-kind",
            "mixture-of-mixtures",
            "eps-list-word",
            "refine-list-zero",
            "duration-zero",
            "duration-negative",
            "duration-nan",
            "duration-overflowing-interval",
            "torus-volume-underflow",
            "torus-volume-overflow",
            "connect-unknown-id",
            "holonomy-unknown-id",
            "workers-negative",
            "workers-zero",
            "max-points-negative",
            "max-points-zero",
        ],
    )
    def test_bad_input_fails_in_one_line(self, config, argv, code, generated, tmp_path, capsys):
        _, _, sys_path = generated
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        source = ["--config", str(cfg_path)] if config is not None else ["--system", str(sys_path)]
        try:
            got = main([*argv, *source, "--out", str(tmp_path / "out")])
        except SystemExit as exc:
            got = exc.code
        assert got == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--refine-list", "1e3"], "invalid int value: '1e3'"),
            (["--refine-list", "2", "--duration", "x"], "invalid float value: 'x'"),
        ],
    )
    def test_bad_number_flag_is_named(self, flag, message, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(_SEA))
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--config", str(cfg_path), "--eps-list", "0.001", *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag[-2]}: {message}\n")

    def test_overflowing_mode_normalization_names_torus_radius(self, tmp_path, capsys):
        # the torus volume is representable but f times the squared mode
        # normalization, a bound of the local correlation entries, is not
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**_SEA, "torus_radius": 1e-105}))
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "torus_radius" in err
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "patch",
        [
            {"points": [{"id": "a", "weight": 1.0, "matrix": [[1.0], [0.0, 0.0], [-1.0, 0.0]]}]},
            {"points": [{"id": "a", "weight": 1.0, "matrix": [["x", 0.0], [0.0, 0.0], [-1.0, 0.0]]}]},
            {"n": "two"},
            {"points": 5},
            {"points": []},
        ],
        ids=["short-entry", "string-entry", "string-n", "scalar-points", "no-points"],
    )
    def test_malformed_system_file(self, patch, tmp_path, capsys):
        point = {"id": "a", "weight": 1.0, "matrix": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}
        doc = {"version": "1", "n": 1, "f": 2, "points": [point], **patch}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--system", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "patch, point_patch",
        [
            ({"tolerances": {"eig_rel": float("nan")}}, {}),
            ({}, {"weight": float("nan"), "matrix": [[1.0, 0.0], [float("nan"), 0.0], [-1.0, 0.0]]}),
            ({}, {"matrix": [[1.0, 0.0], [float("inf"), 0.0], [-1.0, 0.0]]}),
            ({}, {"weight": float("inf")}),
        ],
        ids=["nan-tolerance", "nan-weight-and-entry", "inf-entry", "inf-weight"],
    )
    def test_non_finite_file_rejected(self, patch, point_patch, tmp_path, capsys):
        point = {"id": "a", "weight": 1.0, "matrix": [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]}
        points = [point, point | {"id": "b"} | point_patch]
        doc = {"version": "1", "n": 1, "f": 2, "points": points, **patch}
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--system", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", [["--eig-rel", "nan"], ["--zero-abs", "inf"]])
    def test_non_finite_flag_rejected(self, flag, generated, capsys):
        _, _, sys_path = generated
        assert main(["validate", "--system", str(sys_path), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1

    def test_zero_abs_flag_decides_ranks(self, tmp_path, capsys):
        # diag(1, -1, 1e-8): rank 3 under the default cutoff, 2 under 1e-6
        system = CausalFermionSystem(2, [("a", 1.0, OperatorPoint(np.diag([1.0, -1.0, 1e-8])))])
        two = tmp_path / "two.json"
        write_system(system, two)
        assert read_system(two).points[0].op.rank == 3
        read = read_system(two, zero_abs=1e-6)
        assert read.points[0].op.rank == 2 and read.tolerances == Tolerances(zero_abs=1e-6)
        # a file read with zero_abs=1e-6 fits n=1; the default cutoff counts
        # the third eigenvalue, which exceeds the spin dimension
        one = CausalFermionSystem(
            1,
            [("a", 1.0, OperatorPoint(np.diag([1.0, -1.0, 1e-8]), Tolerances(zero_abs=1e-6)))],
            tolerances=Tolerances(zero_abs=1e-6),
        )
        path = tmp_path / "cutoff.json"
        write_system(one, path)
        assert main(["validate", "--system", str(path)]) == 0
        assert main(["validate", "--system", str(path), "--zero-abs", "1e-12"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeding spin dimension" in err

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_zero_abs_flag_rescues_a_file_it_makes_valid(self, command, tmp_path, capsys):
        # diag(1, -1, 1e-8) with n=1 and the default tolerance block: the
        # default cutoff counts three eigenvalues, 1e-6 leaves two, which fit
        system = CausalFermionSystem(2, [("a", 1.0, OperatorPoint(np.diag([1.0, -1.0, 1e-8])))])
        doc = json.loads(system_to_json(system))
        path = tmp_path / "one.json"
        path.write_text(json.dumps({**doc, "n": 1}))
        argv = [command, "--system", str(path)]
        if command == "classify":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 1
        assert "exceeding spin dimension n=1" in capsys.readouterr().err
        assert main([*argv, "--zero-abs", "1e-6"]) == 0

    def test_zero_abs_flag_decomposes_each_point_once(self, tmp_path, eigh_shapes):
        system = random_regular_system(4, 6, 1, np.random.default_rng(20))
        path = tmp_path / "system.json"
        write_system(system, path)
        eigh_shapes.clear()
        assert main(["validate", "--system", str(path), "--zero-abs", "1e-10"]) == 0
        assert eigh_shapes.count((6, 6)) == len(system)

    @pytest.mark.parametrize("n, f", [(1, 0), (0, 2), (-1, 2)])
    def test_dimensions_below_one(self, n, f, tmp_path, capsys):
        doc = {"version": "1", "n": n, "f": f, "points": [{"id": "a", "weight": 1.0, "matrix": []}]}
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            read_system(path)
        assert main(["validate", "--system", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_generate_mixture(self, tmp_path):
        config = {
            "kind": "mixture",
            "weights": [0.5, 0.5],
            "components": [
                {
                    "kind": "minkowski",
                    "mass": 1.0,
                    "kmax": 0,
                    "sample_points": [[0, 0, 0, 0], [0.2, 0, 0, 0]],
                },
                {
                    "kind": "minkowski",
                    "mass": 1.3,
                    "kmax": 0,
                    "sample_points": [[0.1, 0, 0, 0]],
                },
            ],
        }
        cfg_path = tmp_path / "mix.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "mix_system.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        system = read_system(out)
        assert len(system) == 3
        assert system.ids == ("m0:p0000", "m0:p0001", "m1:p0000")

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_singular_sea_commands(self, tmp_path):
        # kmax=0 gives f=2 with n=2, so every point has rank 2 < 2n
        config = {
            "kind": "minkowski",
            "mass": 1.0,
            "kmax": 0,
            "sample_points": [[0, 0, 0, 0], [0.2, 0, 0, 0], [0.4, 0.05, 0, 0], [0.1, 0.3, 0, 0]],
        }
        cfg_path = tmp_path / "sea0.json"
        cfg_path.write_text(json.dumps(config))
        path = tmp_path / "sea0_system.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(path)]) == 0
        system = read_system(path)
        assert not system.is_regular()
        out = tmp_path / "out"
        assert main(["classify", "--system", str(path), "--out", str(out)]) == 0
        window = ["--lmin", "1.0", "--lmax", "20.0", "--out", str(out)]
        assert main(["distance", "--system", str(path), *window]) == 0
        assert main(["lattice", "--system", str(path), *window]) == 0
        lines = (out / "classification.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        sign = {1: "+", 0: "0", -1: "-"}
        tol = system.tolerances
        for i, ex in enumerate(system.points):
            for j, ey in enumerate(system.points):
                if i != j:
                    cls = classify(ex.op, ey.op, tol, n=system.n).symbol
                    assert rows[i][j + 1] == cls + sign[time_orientation(ex.op, ey.op, tol)]

    def test_validate_catches_violation(self):
        rng = np.random.default_rng(83)
        system = random_regular_system(3, 8, 2, rng)
        assert validate_system(system) == []
        assert validate_system(mixed_rank_system(40, 6, 2, rng)) == []

    def test_validate_checks_each_points_factors(self):
        # a point whose eigenvalues are paired with the wrong basis columns
        system = random_regular_system(3, 8, 2, np.random.default_rng(87))
        x = system.points[1].op
        bad = OperatorPoint._from_factors(
            x.matrix, x.image_basis()[:, ::-1].copy(), x.nonzero_eigenvalues().copy(),
            x.spectral_radius,
        )
        points = [(e.id, e.weight, bad if e.op is x else e.op) for e in system.points]
        failures = validate_system(CausalFermionSystem(2, points))
        assert failures[0].startswith("point p0001: image basis and eigenvalues miss the matrix")
        assert not any(f.startswith("point ") for f in failures[1:])

    def test_numeric_failure_prints_one_line(self, tmp_path, capsys):
        # entries of about 1e200 overflow in the pair kernel; numpy's
        # floating-point warnings must not precede the failure line
        big = np.diag([1e200, -1e200, 0.0])
        coupling = np.zeros((3, 3))
        coupling[0, 1] = coupling[1, 0] = 1e199
        points = [("a", 1.0, OperatorPoint(big)), ("b", 1.0, OperatorPoint(big + coupling))]
        path = tmp_path / "huge.json"
        write_system(CausalFermionSystem(1, points), path)
        for command in (
            ["validate", "--system", str(path)],
            ["classify", "--system", str(path), "--out", str(tmp_path)],
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(command) == 3
            assert [w.category for w in caught] == []
            err = capsys.readouterr().err
            assert err.startswith("numeric failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, argv, code",
        [
            ({**_SEA, "mass": 1e308}, ["generate"], 1),
            (_SEA, ["converge", "--eps-list", "1e300", "--refine-list", "2"], 3),
            ({**_SEA, "mass": 20.0, "kmax": 0}, ["generate"], 0),
        ],
        ids=["generate-fails", "converge-fails", "generate-succeeds"],
    )
    def test_config_warning_shown_only_on_success(self, config, argv, code, tmp_path):
        # "eps * mass is not small": run as from the shell, in a separate
        # process, so that the warning reaches stderr and not pytest's capture
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        cli = [sys.executable, "-m", "cfslab.cli", *argv]
        proc = subprocess.run(
            [*cli, "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == code
        if code:
            assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        else:
            assert "UserWarning: eps * mass" in proc.stderr

    @pytest.mark.parametrize("first, second", [(2, 35), (35, 2)])
    # fields of (codes, orient, cvals, specrad), which pairs._pair_block
    # returns after the product spectra
    @pytest.mark.parametrize(
        "field, message", [(2, "antisymmetry defect"), (0, "classification asymmetry")]
    )
    def test_validate_computes_both_orders(self, monkeypatch, first, second, field, message):
        # Corrupt the kernel's result for the one ordered pair (x, y); each
        # order is computed on its own, so only a check of both orders sees
        # the corruption.
        rng = np.random.default_rng(86)
        system = random_regular_system(40, 6, 2, rng)
        x, y = system.points[first].op, system.points[second].op
        lx, ly = x.nonzero_eigenvalues(), y.nonzero_eigenvalues()
        pair_block = pairs._pair_block

        def corrupted(g, firsts, seconds, tol):
            out = pair_block(g, firsts, seconds, tol)
            for k in range(len(g)):
                if np.array_equal(firsts[k], lx) and np.array_equal(seconds[k], ly):
                    # the next class for codes, a change of 1 or 2 for cvals
                    values = out[field + 1]
                    values[k] = (values[k] + 1) % 3
            return out

        monkeypatch.setattr(pairs, "_pair_block", corrupted)
        failures = validate_system(system)
        ids = sorted([system.ids[first], system.ids[second]])
        assert len(failures) == 1
        assert failures[0].startswith(f"pair ({ids[0]},{ids[1]}): {message}")

    def test_validate_takes_two_overlaps_per_tile(self, monkeypatch):
        # one engine, and per upper tile of the pair matrix one overlap for
        # each order of its pairs; a diagonal tile holds both orders in one
        system = random_regular_system(40, 6, 2, np.random.default_rng(88))
        overlaps, init = pairs._overlaps, pairs.PairEngine.__init__
        calls, engines = [], []

        def counted_overlaps(*args):
            calls.append(args[1:])
            return overlaps(*args)

        def counted_init(engine, *args, **kwargs):
            engines.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(pairs, "_overlaps", counted_overlaps)
        monkeypatch.setattr(pairs.PairEngine, "__init__", counted_init)
        assert validate_system(system) == []
        assert len(engines) == 1
        # 40 points: diagonal tiles [0, 32)^2 and [32, 40)^2, one tile between
        diagonal, off = [(0, 32, 0, 32), (32, 40, 32, 40)], [(0, 32, 32, 40), (32, 40, 0, 32)]
        assert sorted(calls) == sorted(diagonal + off)


#: ``generate`` configs: a kmax=2 Dirac sea (f = 250) off the time axis, and
#: a mixture of two kmax=1 seas with different masses and lengths.
_GENERATE_DOCS = {
    "sea": {
        "kind": "minkowski",
        "mass": 1.0,
        "eps": 1e-3,
        "torus_radius": 0.8,
        "kmax": 2,
        "sample_points": [
            [0.0, 0.0, 0.0, 0.0],
            [0.2, 0.1, -0.05, 0.0],
            [-0.3, 0.0, 0.25, 0.1],
            [0.1, -0.2, 0.0, 0.3],
        ],
    },
    "mixture": {
        "kind": "mixture",
        "weights": [0.25, 0.75],
        "components": [
            {
                "kind": "minkowski",
                "kmax": 1,
                "torus_radius": 0.8,
                "sample_points": [[0.0, 0.0, 0.0, 0.0], [0.15, 0.2, 0.0, 0.0], [0.3, 0.0, 0.1, 0.0]],
                "weights": [1.0, 2.0, 0.5],
            },
            {
                "kind": "minkowski",
                "mass": 1.3,
                "eps": 2e-3,
                "kmax": 1,
                "sample_points": [[0.1, 0.0, 0.0, -0.2], [-0.1, 0.05, 0.0, 0.0]],
            },
        ],
    },
}


class TestGenerate:
    """``generate`` builds every point but the first of a config as its
    translate; the file holds only matrices, so it must equal what the
    per-point ``build_system`` writes."""

    @staticmethod
    def _configs(doc) -> list:
        docs = doc["components"] if doc["kind"] == "mixture" else [doc]
        return [cli._minkowski_config(d) for d in docs]

    def _expected(self, doc, path) -> bytes:
        systems = [minkowski.build_system(cfg) for cfg in self._configs(doc)]
        if doc["kind"] == "mixture":
            spec = minkowski.MixtureSpec(tuple(systems), tuple(doc["weights"]))
            systems = [minkowski.mix_systems(spec)]
        write_system(systems[0], path)
        return path.read_bytes()

    @pytest.mark.parametrize("name", sorted(_GENERATE_DOCS))
    def test_same_bytes_as_build_system(self, name, tmp_path, eigh_shapes):
        doc = _GENERATE_DOCS[name]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        eigh_shapes.clear()
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "got.json")]) == 0
        made = list(eigh_shapes)
        assert (tmp_path / "got.json").read_bytes() == self._expected(doc, tmp_path / "want.json")
        # no f x f eigendecomposition: the range finder decomposes each
        # config's first point, and the others are its translates
        assert not {(c.f, c.f) for c in self._configs(doc)} & set(made)

    @pytest.mark.parametrize("name", sorted(_GENERATE_DOCS))
    def test_one_blas_thread_writes_the_same_bytes(self, name, tmp_path):
        doc = _GENERATE_DOCS[name]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cfslab.cli", "generate",
             "--config", str(cfg_path), "--out", str(tmp_path / "got.json")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "got.json").read_bytes() == self._expected(doc, tmp_path / "want.json")


class TestIoCrossCheck:
    def test_loaded_system_agrees_with_original(self, tmp_path):
        rng = np.random.default_rng(84)
        base = random_regular_point(8, 2, rng)
        system = CausalFermionSystem(
            2,
            [("x", 1.0, base), ("y", 0.5, nearby_point(base, rng))],
            metadata={"generator": "test"},
        )
        path = tmp_path / "pair.json"
        write_system(system, path)
        loaded = read_system(path)
        assert loaded.metadata["generator"] == "test"
        from cfslab.core import classify, time_direction

        assert classify(loaded.point("x"), loaded.point("y"), n=2) is classify(
            system.point("x"), system.point("y"), n=2
        )
        assert time_direction(loaded.point("x"), loaded.point("y")) == pytest.approx(
            time_direction(system.point("x"), system.point("y")), abs=1e-12
        )


def _fuzz_documents() -> dict:
    """Valid two-point systems (n=1): at f=3 as a version 1 and a version 2
    document, and at f=24, where the reader takes the range finder, as a
    version 2 document."""
    system = random_regular_system(2, 3, 1, np.random.default_rng(89))
    large = random_regular_system(2, 24, 1, np.random.default_rng(89))
    return {
        "1": _v1_doc(system),
        "2": json.loads(system_to_json(system)),
        "2, f=24": json.loads(system_to_json(large)),
    }


_FUZZ_DOCS = _fuzz_documents()
_KEY_PATHS = [
    ("version",), ("n",), ("f",), ("tolerances",), ("tolerances", "eig_rel"),
    ("tolerances", "zero_abs"), ("metadata",), ("points",), ("points", 0),
    ("points", 1, "id"), ("points", 0, "weight"), ("points", 1, "matrix"),
]
_PAIR_PATHS = [("points", 0, "matrix", 2), ("points", 1, "matrix", 5, 1)]
_VALUES = [
    None, True, 0, -1, 2.5, float("nan"), float("inf"), "x", "", "AAAA", [], [0], [[0.0, 0.0]],
    {}, {"eig_rel": 1.0},
]


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


@st.composite
def mutated_files(draw) -> str:
    """The text of a valid system file after one mutation."""
    name = draw(st.sampled_from(sorted(_FUZZ_DOCS)))
    doc = copy.deepcopy(_FUZZ_DOCS[name])
    kind = draw(st.sampled_from(["drop", "retype", "version", "truncate", "blob"]))
    if kind == "drop":
        parent, key = _at(doc, draw(st.sampled_from(_KEY_PATHS)))
        del parent[key]
    elif kind == "retype":
        paths = _KEY_PATHS + (_PAIR_PATHS if name == "1" else [])
        parent, key = _at(doc, draw(st.sampled_from(paths)))
        parent[key] = draw(st.sampled_from(_VALUES))
    elif kind == "version":
        doc["version"] = draw(st.sampled_from(["1", "2", "3", "", 2, None]))
    elif kind == "blob":
        doc = copy.deepcopy(_FUZZ_DOCS[draw(st.sampled_from(["2", "2, f=24"]))])
        point = doc["points"][draw(st.integers(0, 1))]
        blob = point["matrix"]
        k = draw(st.integers(0, len(blob) - 1))
        if draw(st.booleans()):
            blob = blob[:k] + draw(st.sampled_from("A/+=9z!* \né")) + blob[k + 1 :]
        else:
            blob = blob[k:] if draw(st.booleans()) else blob[:k]
        point["matrix"] = blob
    text = json.dumps(doc, indent=1)
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


class TestReaderFuzz:
    def test_large_document_takes_the_range_finder(self, tmp_path, eigh_shapes):
        path = tmp_path / "large.json"
        path.write_text(json.dumps(_FUZZ_DOCS["2, f=24"]))
        eigh_shapes.clear()
        assert read_system(path).points[0].op.rank == 2
        assert (24, 24) not in eigh_shapes

    @settings(max_examples=300, deadline=None, database=None)
    @given(text=mutated_files())
    def test_mutated_file_fails_cleanly(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--system", str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        if code == 0:
            assert out.startswith("ok: ") and err == ""
        elif code == 1 and err:
            # the file was refused: one line, nothing else
            assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
        elif code == 1:
            # the file was read, and the invariant suite reports what it found
            assert all(line.startswith("violation: ") for line in out.splitlines())
        else:
            assert code == 3 and err.startswith("numeric failure: ") and err.count("\n") == 1
            with pytest.raises(np.linalg.LinAlgError):
                validate_system(read_system(path))


#: Valid generator configs at cheap sizes (kmax <= 1, at most 4 points).
_CONFIG_DOCS = {
    "minkowski": {
        "kind": "minkowski",
        "mass": 1.0,
        "eps": 1e-3,
        "torus_radius": 0.8,
        "kmax": 1,
        "sample_points": [
            [0.0, 0.0, 0.0, 0.0],
            [0.2, 0.0, 0.0, 0.0],
            [0.05, 0.3, 0.0, 0.0],
            [0.1, 0.0, 0.2, 0.1],
        ],
        "weights": [1.0, 0.5, 2.0, 1.0],
    },
    "mixture": {
        "kind": "mixture",
        "weights": [0.5, 0.5],
        "components": [
            {"kmax": 1, "sample_points": [[0.0, 0.0, 0.0, 0.0]]},
            {"kmax": 1, "sample_points": [[0.3, 0.0, 0.1, 0.0]]},
        ],
    },
}
_CONFIG_PATHS = {
    "minkowski": [
        ("kind",), ("mass",), ("eps",), ("torus_radius",), ("kmax",), ("max_f",),
        ("weights",), ("weights", 1), ("sample_points",), ("sample_points", 2),
        ("sample_points", 3, 0), ("sample_points", 1, 3), ("extra",),
    ],
    "mixture": [
        ("kind",), ("weights",), ("weights", 0), ("components",), ("components", 1),
        ("components", 0, "kmax"), ("components", 1, "mass"),
        ("components", 1, "sample_points", 0, 1),
    ],
}
# no value here may make kmax exceed 1
_CONFIG_VALUES = [
    None, True, 0, 1, -1, 0.5, 1e-300, 1e300, float("nan"), float("inf"), "x", "",
    "mixture", [], [0.0, 0.0, 0.0, 0.0], [[0.0, 0.0, 0.0, 0.0]], {}, {"kmax": 0},
]
_EPS_FLAGS = ["1e-3", "2e-3,4e-3", "0", "-1e-3", "nan", "inf", "1e300", "1e-300", "abc", "", ",", "1e-3,"]
_REFINE_FLAGS = ["1", "2", "4", "2,4", "0", "-2", "3.5", "x", "", "4,"]
_DURATION_FLAGS = [None, "0.6", "0.2", "1e-300", "5e-324", "1e300", "0", "-1", "nan", "inf", "abc"]


@st.composite
def mutated_commands(draw) -> tuple:
    """A ``generate`` or ``converge`` command, as config text and the flags
    after ``--config``, with its config document mutated once or not at all
    and, for ``converge``, flag values drawn from valid and invalid ones."""
    command = draw(st.sampled_from(["generate", "converge"]))
    name = "minkowski" if command == "converge" else draw(st.sampled_from(sorted(_CONFIG_DOCS)))
    doc = copy.deepcopy(_CONFIG_DOCS[name])
    kind = draw(st.sampled_from(["none", "drop", "retype", "document", "truncate"]))
    if kind in ("drop", "retype"):
        parent, key = _at(doc, draw(st.sampled_from(_CONFIG_PATHS[name])))
        if kind == "retype":
            parent[key] = draw(st.sampled_from(_CONFIG_VALUES))
        elif isinstance(parent, list) or key in parent:
            del parent[key]
    elif kind == "document":
        doc = draw(st.sampled_from(_CONFIG_VALUES))
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    flags = []
    if command == "converge":
        flags = [
            "--eps-list", draw(st.sampled_from(_EPS_FLAGS)),
            "--refine-list", draw(st.sampled_from(_REFINE_FLAGS)),
        ]
        duration = draw(st.sampled_from(_DURATION_FLAGS))
        if duration is not None:
            flags.append(f"--duration={duration}")
    return command, text, flags


def _transport_documents() -> dict:
    """Valid system files for ``connect`` and ``holonomy``: four points of a
    kmax=1 Dirac sea, which gets Clifford-frame splices, and three random
    points, which get none."""
    cfg = minkowski.MinkowskiConfig(
        kmax=1,
        torus_radius=0.8,
        sample_points=((0, 0, 0, 0), (0.1, 0, 0, 0), (0.2, 0.02, 0, 0), (0.3, 0, 0.03, 0)),
    )
    sea = minkowski.build_system(cfg)
    points = random_regular_system(3, 6, 2, np.random.default_rng(90))
    return {"sea": json.loads(system_to_json(sea)), "random": json.loads(system_to_json(points))}


_TRANSPORT_DOCS = _transport_documents()
_TRANSPORT_PATHS = [
    ("n",), ("tolerances", "imag_rel"), ("tolerances", "zero_abs"), ("points", 1, "id"),
    ("points", 2, "weight"), ("metadata",), ("metadata", "generator"), ("metadata", "eps"),
    ("metadata", "mass"), ("metadata", "kmax"), ("metadata", "torus_radius"),
    ("metadata", "coordinates"), ("metadata", "coordinates", "p0001"),
    ("metadata", "coordinates", "p0002", 1), ("metadata", "damping"),
]
_TRANSPORT_VALUES = _VALUES + [
    "minkowski", 1e300, 1e-300, [0.0, 0.0, 0.0, 0.0], {"p0000": [0.0, 0.0, 0.0, 0.0]},
]
_PATH_FLAGS = [
    "p0000,p0001", "p0000,p0001,p0002,p0003", "p0003,p0001,p0003", "p0000,p0000", "p0000",
    "p0000,p0001,p0000", "p0000,,p0001", "p9999,p0000", ",", "",
]
_TRIANGLE_FLAGS = [
    "p0000,p0001,p0002", "p0001,p0002,p0000", "p0000,p0000,p0001", "p0000,p0001",
    "p0000,p0001,p0002,p0001", "p0000,p0001,x", ",,", "",
]
_CONNECT = ["connect", "--path", "p0000,p0001"]
_HOLONOMY = ["holonomy", "--triangle", "p0000,p0001,p0002"]
_TOL_FLAGS = [None, "1e-9", "1e-4", "1e-3", "0", "-1", "nan", "inf", "1e300", "1e-300", "abc"]


@st.composite
def mutated_transport_commands(draw) -> tuple:
    """A ``connect`` or ``holonomy`` command, as system file text and its
    flags, with the system document mutated once or not at all, the other
    document's metadata grafted on, and path and tolerance flags drawn from
    valid and invalid values."""
    command = draw(st.sampled_from(["connect", "holonomy"]))
    name = draw(st.sampled_from(sorted(_TRANSPORT_DOCS)))
    doc = copy.deepcopy(_TRANSPORT_DOCS[name])
    kind = draw(st.sampled_from(["none", "drop", "retype", "graft", "truncate"]))
    if kind in ("drop", "retype"):
        try:
            parent, key = _at(doc, draw(st.sampled_from(_TRANSPORT_PATHS)))
        except KeyError:
            # the random file's metadata has no coordinates: mutate it whole
            parent, key = doc, "metadata"
        if kind == "retype":
            parent[key] = draw(st.sampled_from(_TRANSPORT_VALUES))
        elif isinstance(parent, list) or key in parent:
            del parent[key]
    elif kind == "graft":
        other = "random" if name == "sea" else "sea"
        doc["metadata"] = copy.deepcopy(_TRANSPORT_DOCS[other]["metadata"])
    text = json.dumps(doc)
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    if command == "connect":
        flags = ["--path", draw(st.sampled_from(_PATH_FLAGS))]
    else:
        flags = ["--triangle", draw(st.sampled_from(_TRIANGLE_FLAGS))]
    for flag in ("--eig-rel", "--imag-rel", "--zero-abs"):
        value = draw(st.sampled_from(_TOL_FLAGS))
        if value is not None:
            flags.append(f"{flag}={value}")
    return command, text, flags


def _run_cleanly(argv) -> int:
    """Exit code of ``main(argv)`` after checking the exit-code contract: no
    traceback, ``wrote`` on success, one stderr line and nothing else on
    failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert code in (0, 1, 2, 3)
    if code == 0:
        # a config warning ("eps * mass is not small") may follow success
        assert out.startswith("wrote ")
    else:
        assert out == "" and err.count("\n") == 1
    return code


class TestCommandFuzz:
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=mutated_commands())
    def test_mutated_command_fails_cleanly(self, case, tmp_path_factory):
        command, text, flags = case
        tmp = tmp_path_factory.getbasetemp()
        cfg_path = tmp / "fuzz-config.json"
        cfg_path.write_text(text, encoding="utf-8")
        out_path = tmp / ("fuzz-system.json" if command == "generate" else "fuzz-out")
        _run_cleanly([command, "--config", str(cfg_path), *flags, "--out", str(out_path)])

    @settings(max_examples=300, deadline=None, database=None)
    @given(case=mutated_transport_commands())
    def test_mutated_transport_command_fails_cleanly(self, case, tmp_path_factory):
        command, text, flags = case
        tmp = tmp_path_factory.getbasetemp()
        path = tmp / "fuzz-transport.json"
        path.write_text(text, encoding="utf-8")
        _run_cleanly([command, "--system", str(path), *flags, "--out", str(tmp / "fuzz-out")])

    @pytest.mark.parametrize(
        "name, path, value, argv, code",
        [
            ("random", None, None, _CONNECT, 3),
            ("sea", ("metadata", "eps"), None, _CONNECT, 1),
            ("sea", ("metadata", "kmax"), 0, _CONNECT, 1),
            ("sea", ("metadata", "coordinates"), [0.0, 0.0, 0.0, 0.0], _CONNECT, 1),
            ("sea", ("metadata", "coordinates", "p0001"), None, _HOLONOMY, 1),
            ("sea", ("metadata", "coordinates", "p0002", 1), "x", _HOLONOMY, 1),
            ("sea", ("metadata", "coordinates", "p0001", 1), None, _CONNECT, 1),
        ],
        ids=[
            "non-positive-chain-spectrum", "metadata-without-eps", "metadata-kmax-off-f",
            "coordinates-list", "coordinates-without-point", "coordinate-word", "three-coordinates",
        ],
    )
    def test_transport_breach_fails_in_one_line(self, name, path, value, argv, code, tmp_path):
        # a multi-line spectrum in the message, or generator metadata that
        # reached a KeyError, TypeError or ValueError
        doc = copy.deepcopy(_TRANSPORT_DOCS[name])
        if path is not None:
            parent, key = _at(doc, path)
            if value is None:
                del parent[key]
            else:
                parent[key] = value
        sys_path = tmp_path / "system.json"
        sys_path.write_text(json.dumps(doc))
        argv = [argv[0], "--system", str(sys_path), *argv[1:], "--out", str(tmp_path)]
        assert _run_cleanly(argv) == code
