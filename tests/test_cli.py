"""End-to-end command line tests: every command through main(argv)."""

import cmath
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from scatterpoly import jacobi, quadrature, scattering, transform
from scatterpoly.cli import (
    MAX_GRAM_SUM,
    MAX_GRID_CELLS,
    MAX_MOMENT_SUM,
    MAX_TABLE_SUM,
    MAX_TRUNC,
    MAX_VERIFY_SUM,
    NonFiniteOutputError,
    Table,
    _grid_table,
    _resolve_input,
    _sign_mismatches,
    format_float,
    format_floats,
    main,
    render_json,
)
from scatterpoly.scattering import (
    PQIndex,
    basis_indices,
    jacobi_form,
    rodrigues,
)

from helpers import profile_value, radial_profile


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_grid_csv(path, f, n_radial, n_angular, theta0=0.0):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "theta", "re", "im"])
        for i in range(n_radial):
            r = i / n_radial
            for j in range(n_angular):
                theta = theta0 + 2.0 * math.pi * j / n_angular
                value = f(r, theta)
                writer.writerow([repr(r), repr(theta), repr(value.real), repr(value.imag)])


def table_rows(table):
    """A table's CSV rows as the writer emits them, header first."""
    text = "".join(table.csv_blocks())
    assert text.endswith("\r\n")
    return list(csv.reader(io.StringIO(text)))


#: Values whose rendering is easy to get wrong: signed zeros, subnormals, extremes.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]


class TestGridRows:
    def test_matches_per_cell_formatting(self):
        rng = np.random.default_rng(5)
        r = np.concatenate([[0.0], rng.uniform(0, 1, 4)])
        theta = np.concatenate([[0.0], rng.uniform(0, 7, 6)])
        values = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        values[0, 0] = complex(-0.0, -0.0)
        values[1, :] = [complex(x, -x) for x in SPECIAL_FLOATS]
        expected = [["r", "theta", "re", "im"]] + [
            [format_float(r[i]), format_float(theta[j]),
             format_float(values[i, j].real), format_float(values[i, j].imag)]
            for i in range(5)
            for j in range(7)
        ]
        assert table_rows(_grid_table(r, theta, values)) == expected

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf)])
    def test_refuses_non_finite_cell(self, bad):
        values = np.zeros((2, 3), dtype=complex)
        values[1, 2] = bad
        with pytest.raises(NonFiniteOutputError):
            _grid_table(np.array([0.0, 0.5]), np.array([0.0, 1.0, 2.0]), values)


class TestFormatting:
    def test_negative_zero_collapses(self):
        assert format_float(-0.0) == "0"

    def test_seventeen_digits(self):
        assert format_float(math.pi) == "3.1415926535897931"

    def test_bulk_formatting_matches_per_value(self):
        # reference: one "%.17g" per value, with -0.0 turned into 0.0 first
        values = SPECIAL_FLOATS + [math.pi, -1 / 3, 1e-300, 123456789.0, 2.0**-1074 * 3]
        expected = ["%.17g" % (0.0 if x == 0.0 else x) for x in values]
        assert format_floats(values) == expected
        assert format_floats(np.array(values).reshape(3, 4)) == expected
        assert [format_float(x) for x in values] == expected

    def test_zeros_written_directly_match_the_per_value_format(self):
        # mostly zeros (a Gram block), and dense; -0.0 is written as 0
        special = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, math.pi, 2.0**-1022]
        dense = np.random.default_rng(2).normal(size=64).tolist()
        for values in (special, special + [0.0] * 40, dense, dense[:5] + [-0.0] * 3):
            assert format_floats(values) == ["%.17g" % (v + 0.0) for v in values]
        assert format_floats(np.zeros((3, 2))) == ["0"] * 6

    def test_csv_quoting_matches_the_csv_module(self):
        labels = ["1,1", 'say "hi"', "line\nbreak", "cr\r", "plain", ""]
        table = Table(["index", *labels], [labels], np.zeros((6, 6)), records=False)
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(
            [["index", *labels]] + [[label] + ["0"] * 6 for label in labels]
        )
        assert "".join(table.csv_blocks()) == expected.getvalue()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_bulk_formatting_rejects_non_finite(self, value):
        with pytest.raises(NonFiniteOutputError):
            format_floats([1.0, value])

    def test_render_json_sorted_stable(self):
        text = render_json({"b": [1.5, True, None], "a": "x"})
        assert json.loads(text) == {"b": [1.5, True, None], "a": "x"}

    def test_render_json_rejects_unknown(self):
        with pytest.raises(TypeError):
            render_json({"a": object()})

    def test_render_json_numpy_scalars_as_python_values(self):
        values = [np.bool_(True), np.int64(-3), np.float32(0.5), np.float64(-0.0)]
        assert render_json(values) == render_json([True, -3, 0.5, 0.0])
        with pytest.raises(NonFiniteOutputError):
            render_json([np.float32("nan")])

    def test_sign_table_renders_as_its_records(self):
        # verify's sign table: ints, true/false, a float and a zero
        records = [
            dict(p=1, q=2, resolved_sign=-1, rule_sign=1, agrees=False, mismatch=0.0),
            dict(p=3, q=3, resolved_sign=1, rule_sign=1, agrees=True, mismatch=2.5e-16),
        ]
        keys = ["p", "q", "resolved_sign", "rule_sign", "agrees"]
        text = [[json.dumps(record[key]) for record in records] for key in keys]
        table = Table([*keys, "mismatch"], text, [[record["mismatch"]] for record in records])
        assert render_json({"sign_table": table}) == render_json({"sign_table": records})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_render_json_rejects_non_finite(self, value):
        with pytest.raises(NonFiniteOutputError):
            render_json({"x": value})


class TestEval:
    def test_default_output_and_values(self, capsys):
        assert main(["eval", "1", "1", "--grid", "3x4"]) == 0
        out = capsys.readouterr().out
        assert "phi_1_1_grid.csv" in out
        rows = read_csv("phi_1_1_grid.csv")
        assert rows[0] == ["r", "theta", "re", "im"]
        assert len(rows) == 1 + 3 * 4
        for row in rows[1:]:
            r = float(row[0])
            assert float(row[2]) == pytest.approx(1.0 - r * r, abs=1e-15)
            assert float(row[3]) == 0.0

    def test_second_index_value(self):
        # phi^(2,1) = 2 zbar (1 - z zbar): at r = 1/2, theta = 0 that is 3/4
        assert main(["eval", "2", "1", "--grid", "2x4"]) == 0
        rows = read_csv("phi_2_1_grid.csv")
        assert float(rows[5][2]) == pytest.approx(0.75)
        assert float(rows[5][3]) == pytest.approx(0.0, abs=1e-16)

    def test_json_format(self, tmp_path):
        assert main(["eval", "1", "2", "--grid", "2x2", "--format", "json", "--out", "o.json"]) == 0
        payload = read_json("o.json")
        assert payload["p"] == 1 and payload["q"] == 2
        assert len(payload["grid"]) == 4
        assert payload["grid"][0] == {"r": 0.0, "theta": 0.0, "re": 0.0, "im": 0.0}

    def test_byte_identical_reruns(self):
        assert main(["eval", "2", "3"]) == 0
        first = Path("phi_2_3_grid.csv").read_bytes()
        assert main(["eval", "2", "3"]) == 0
        assert Path("phi_2_3_grid.csv").read_bytes() == first

    def test_rejects_zero_index(self, capsys):
        assert main(["eval", "0", "1"]) == 2
        assert "min{p,q} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["3", "3x", "x4", "ax4", "1x4", "4x1"])
    def test_rejects_bad_grid(self, spec, capsys):
        assert main(["eval", "1", "1", "--grid", spec]) == 2
        assert "grid" in capsys.readouterr().err


class TestTable:
    def test_prints_exact_polynomial(self, capsys):
        assert main(["table", "2", "1"]) == 0
        out = capsys.readouterr().out
        assert out == rodrigues(PQIndex(2, 1)).to_text() + "\n"
        assert "zbar" in out

    def test_writes_file(self, capsys):
        assert main(["table", "1", "1", "--out", "poly.txt"]) == 0
        assert Path("poly.txt").read_text() == rodrigues(PQIndex(1, 1)).to_text() + "\n"


    def test_limit_on_exact_work(self, capsys):
        assert main(["table", "1", str(MAX_TABLE_SUM - 1), "--out", "top.txt"]) == 0
        assert main(["table", "1", str(MAX_TABLE_SUM)]) == 2
        assert str(MAX_TABLE_SUM) in capsys.readouterr().err


class TestVerify:
    def test_passes_and_reports(self, capsys):
        assert main(["verify", "6"]) == 0
        out = capsys.readouterr().out
        for name in (
            "route_equivalence",
            "eigenrelation",
            "boundary_vanishing",
            "jacobi_sign",
            "gram_diagonality",
        ):
            assert f"{name}: pass" in out
        report = read_json("verify_report.json")
        assert report["all_pass"] is True
        assert report["max_sum"] == 6
        assert report["checks"]["route_equivalence"]["indices_checked"] == 15
        assert report["checks"]["route_equivalence"]["failures"] == []

    def test_sign_table_flags_even_max(self):
        main(["verify", "5"])
        report = read_json("verify_report.json")
        by_index = {(row["p"], row["q"]): row for row in report["sign_table"]}
        assert by_index[(2, 2)]["agrees"] is False
        assert by_index[(2, 2)]["resolved_sign"] == -1
        # (1,2) also has even max{p,q}, (2,3) odd: only the latter agrees
        assert by_index[(1, 2)]["agrees"] is False
        assert by_index[(2, 3)]["agrees"] is True
        assert all(row["mismatch"] <= 1e-12 for row in report["sign_table"])

    def test_deterministic_report(self):
        main(["verify", "4", "--out", "a.json"])
        main(["verify", "4", "--out", "b.json"])
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()

    def test_rejects_small_max_sum(self, capsys):
        assert main(["verify", "1"]) == 2
        assert capsys.readouterr().err == "error: max_sum must be >= 2\n"

    def test_sign_mismatch_matches_the_fraction_reference(self):
        # reference: exact values as Fractions, one scalar evaluation per
        # radius; the report must agree to the last bit
        indices = basis_indices(12)
        for idx, mismatch in zip(indices, _sign_mismatches(indices)):
            _, profile = radial_profile(rodrigues(idx))
            form = jacobi_form(idx)
            exact = [float(profile_value(profile, Fraction(k, 11))) for k in range(1, 11)]
            scale = max(1.0, max(abs(v) for v in exact))
            worst = max(abs(form.radial_value(k / 11) - v) for k, v in zip(range(1, 11), exact))
            assert mismatch == worst / scale

    def test_reads_no_dense_gram_matrix(self, monkeypatch):
        def dense(matrix):
            raise AssertionError("verify built the dense Gram matrix")

        monkeypatch.setattr(quadrature.GramMatrix, "entries", property(dense))
        assert main(["verify", "24"]) == 0
        assert read_json("verify_report.json")["checks"]["gram_diagonality"]["pass"] is True

    def test_limit_on_exact_work(self, capsys):
        assert main(["verify", str(MAX_VERIFY_SUM + 1)]) == 2
        assert str(MAX_VERIFY_SUM) in capsys.readouterr().err
        assert not os.path.exists("verify_report.json")

    def test_cold_verify_runs_one_table_per_node_set(self, monkeypatch):
        # the construction check's radii, the sign table's radii k/11 and the
        # Gram nodes: the records are looked up after the checks, not before
        node_sets = []
        table = jacobi.jacobi_table

        def counted(m, max_degree, x):
            node_sets.append(np.asarray(x).tobytes())
            return table(m, max_degree, x)

        monkeypatch.setattr(jacobi, "jacobi_table", counted)
        jacobi_form.cache_clear()
        assert main(["verify", "12"]) == 0
        assert len(node_sets) == len(set(node_sets)) == 3


class TestGram:
    def test_csv_diagonal(self, capsys):
        assert main(["gram", "3"]) == 0
        assert "max off-diagonal" in capsys.readouterr().out
        rows = read_csv("gram_3.csv")
        assert rows[0] == ["index", "1,1", "1,2", "2,1"]
        diag = [float(rows[i + 1][i + 1]) for i in range(3)]
        expected = [math.pi / 2, math.pi / 6, 2 * math.pi / 3]
        for got, want in zip(diag, expected):
            assert got == pytest.approx(want, rel=1e-12)

    def test_single_entry(self):
        assert main(["gram", "2"]) == 0
        rows = read_csv("gram_2.csv")
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_json_payload(self):
        assert main(["gram", "3", "--format", "json", "--out", "g.json"]) == 0
        payload = read_json("g.json")
        assert payload["indices"] == [[1, 1], [1, 2], [2, 1]]
        assert len(payload["entries"]) == 3


class TestMoments:
    def test_slope_near_pi(self, capsys):
        assert main(["moments", "0", "0"]) == 0
        out = capsys.readouterr().out
        assert "moments_0_0.csv" in out
        slope = float(out.rsplit(":", 1)[1])
        assert abs(slope - math.pi) <= 0.01 * math.pi
        rows = read_csv("moments_0_0.csv")
        values = [float(row[1]) for row in rows[1:]]
        assert values == sorted(values)

    def test_json_ladder(self):
        assert main(
            ["moments", "1", "0", "--eps-ladder", "1e-2,1e-3", "--format", "json", "--out", "m.json"]
        ) == 0
        payload = read_json("m.json")
        assert [entry["eps"] for entry in payload["ladder"]] == [1e-2, 1e-3]
        assert payload["ladder"][1]["value"] > payload["ladder"][0]["value"]
        assert payload["slope"] > 0

    def test_rejects_negative_exponent(self, capsys):
        assert main(["moments", "--", "-1", "0"]) == 2

    @pytest.mark.parametrize(
        "ladder", ["", "0.5,foo", "2.0", "0", "1e-3", "1e-3,1e-3", "1e-320", "1e-3,1e-320"]
    )
    def test_rejects_bad_ladder(self, ladder, capsys):
        assert main(["moments", "0", "0", "--eps-ladder", ladder]) == 2

    @pytest.mark.parametrize(
        "ladder,rule",
        [("1e-3", "two distinct"), ("1e-3,1e-3", "two distinct"),
         ("1e-3,1e-320", repr(sys.float_info.min))],
    )
    def test_ladder_error_names_the_rule(self, ladder, rule, capsys):
        assert main(["moments", "0", "0", "--eps-ladder", ladder]) == 2
        err = capsys.readouterr().err
        assert "--eps-ladder" in err and rule in err
        assert os.listdir() == []


class TestExpand:
    def test_basis_member_is_delta(self, capsys):
        assert main(["expand", "builtin:phi_2_3", "--trunc", "8"]) == 0
        assert "L2 residual" in capsys.readouterr().out
        payload = read_json("expansion.json")
        assert payload["input"] == "builtin:phi_2_3"
        assert payload["truncation"] == 8
        assert payload["l2_residual"] < 1e-9
        assert payload["boundary_max"] == 0.0
        for record in payload["coefficients"]:
            target = 1.0 if (record["p"], record["q"]) == (2, 3) else 0.0
            assert abs(record["re"] - target) < 1e-9
            assert abs(record["im"]) < 1e-9

    def test_radial_bump_exact_coefficients(self):
        assert main(["expand", "builtin:radial_bump", "--trunc", "4", "--out", "b.json"]) == 0
        payload = read_json("b.json")
        table = {(r["p"], r["q"]): complex(r["re"], r["im"]) for r in payload["coefficients"]}
        assert table[(1, 1)] == pytest.approx(2 / 3, abs=1e-12)
        assert table[(2, 2)] == pytest.approx(1 / 3, abs=1e-12)

    def test_csv_output_and_grid(self):
        assert main(
            ["expand", "builtin:phi_1_1", "--trunc", "4", "--format", "csv", "--grid", "4x8"]
        ) == 0
        rows = read_csv("expansion.csv")
        assert rows[0] == ["p", "q", "re", "im"]
        grid_rows = read_csv("expansion_grid.csv")
        assert len(grid_rows) == 1 + 4 * 8

    def test_byte_order_mark(self):
        # a spreadsheet export starts with one: the same coefficients, byte for byte
        assert main(["eval", "2", "3", "--grid", "16x32", "--out", "grid.csv"]) == 0
        Path("bom.csv").write_bytes(b"\xef\xbb\xbf" + Path("grid.csv").read_bytes())
        assert main(["expand", "grid.csv", "--format", "csv", "--out", "plain.csv"]) == 0
        assert main(["expand", "bom.csv", "--format", "csv", "--out", "bom_out.csv"]) == 0
        assert Path("bom_out.csv").read_bytes() == Path("plain.csv").read_bytes()

    def test_byte_identical_reruns(self):
        main(["expand", "builtin:phi_1_2", "--trunc", "6"])
        first = Path("expansion.json").read_bytes()
        main(["expand", "builtin:phi_1_2", "--trunc", "6"])
        assert Path("expansion.json").read_bytes() == first

    def test_grid_csv_round_trip(self):
        # dense sampled basis function in, near-delta coefficients out; the
        # tolerance absorbs the bilinear interpolation error, and the radial
        # sampling is dense enough that the edge clamp past the last node
        # stays below it
        f = lambda r, t: complex(-(1.0 - r * r) * r * math.cos(t), -(1.0 - r * r) * r * math.sin(t))
        write_grid_csv("input.csv", f, 256, 128)
        assert main(["expand", "input.csv", "--trunc", "6", "--out", "rt.json"]) == 0
        payload = read_json("rt.json")
        table = {(r["p"], r["q"]): complex(r["re"], r["im"]) for r in payload["coefficients"]}
        assert abs(table[(1, 2)] - 1.0) < 2e-3
        for key, value in table.items():
            if key != (1, 2):
                assert abs(value) < 2e-3

    def test_signed_angles_expand_like_unsigned_ones(self):
        # the same nodes written with theta in [-pi, pi): before angles were
        # shifted into one turn, theta in (pi, 2 pi) took the value at theta = pi
        f = lambda r, t: (1.0 - r * r) * r * cmath.exp(1j * t)
        write_grid_csv("unsigned.csv", f, 48, 96)
        write_grid_csv("signed.csv", f, 48, 96, theta0=-math.pi)
        tables = []
        for name in ("unsigned", "signed"):
            assert main(["expand", f"{name}.csv", "--trunc", "6", "--out", f"{name}.json"]) == 0
            rows = read_json(f"{name}.json")["coefficients"]
            tables.append({(r["p"], r["q"]): complex(r["re"], r["im"]) for r in rows})
        unsigned, signed = tables
        assert abs(unsigned[(1, 2)] + 1.0) < 1e-2
        assert max(abs(signed[key] - value) for key, value in unsigned.items()) < 1e-12

    def test_residual_decreases_through_csv_pipeline(self):
        # cubic rim factor keeps the interpolant's edge clamp far below the
        # truncation error being compared
        f = lambda r, t: complex((1.0 - r * r) ** 3 * math.exp(-3.0 * r * r))
        write_grid_csv("smooth.csv", f, 96, 192)
        residuals = []
        for trunc in (8, 12):
            assert main(["expand", "smooth.csv", "--trunc", str(trunc), "--out", "s.json"]) == 0
            residuals.append(read_json("s.json")["l2_residual"])
        assert residuals[1] < residuals[0]

    @pytest.mark.parametrize("trunc", [2, 3, 8, 16, 32])
    def test_nonzero_rim_has_a_divergent_residual(self, trunc, capsys):
        # f = 1 has infinite weighted norm, so no residual is a number
        assert main(["expand", "builtin:one", "--trunc", str(trunc)]) == 0
        assert "L2 residual divergent (rim amplitude 1)" in capsys.readouterr().out
        payload = read_json("expansion.json")
        assert payload["l2_residual"] is None
        assert payload["l2_residual_divergent"] is True
        assert payload["rim_amplitude"] == 1.0
        assert payload["boundary_max"] == 0.0

    @pytest.mark.parametrize("spec", ["builtin:radial_bump", "builtin:phi_3_2"])
    def test_rim_vanishing_target_keeps_its_keys(self, spec):
        assert main(["expand", spec, "--trunc", "6"]) == 0
        payload = read_json("expansion.json")
        keys = ["input", "truncation", "coefficients", "l2_residual", "boundary_max"]
        assert list(payload) == keys
        assert 0.0 <= payload["l2_residual"] < 1e-9

    def test_rim_tolerance(self, monkeypatch):
        # just above the tolerance the residual is refused, at it it is printed
        for rim, divergent in ((2e-6, True), (1e-6, False)):
            monkeypatch.setattr(
                "scatterpoly.cli._resolve_input",
                lambda spec, rim=rim: ((lambda r, t: (1.0 - r * r) + rim * r**8 + 0j), spec),
            )
            assert main(["expand", "x", "--trunc", "4"]) == 0
            payload = read_json("expansion.json")
            assert payload.get("l2_residual_divergent", False) is divergent
            assert (payload["l2_residual"] is None) is divergent

    def test_rejects_unknown_builtin(self, capsys):
        assert main(["expand", "builtin:wave"]) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_rejects_small_truncation(self, capsys):
        assert main(["expand", "builtin:one", "--trunc", "1"]) == 2


class TestBuiltinInputs:
    @pytest.mark.parametrize("spec", ["builtin:one", "builtin:radial_bump", "builtin:phi_3_2"])
    def test_arrays_give_the_scalar_values(self, spec):
        f, _ = _resolve_input(spec)
        r = np.linspace(0.0, 0.99, 7)
        theta = np.linspace(-1.0, 7.0, 5)
        grid = np.broadcast_to(f(r[:, None], theta[None, :]), (7, 5))
        expected = np.array([[complex(f(ri, tj)) for tj in theta] for ri in r])
        assert np.array_equal(grid, expected)

    def test_csv_grid_sampled_once_per_grid(self, monkeypatch):
        write_grid_csv("input.csv", lambda r, t: complex(1.0 - r * r, r * math.sin(t)), 8, 16)
        f, _ = _resolve_input("input.csv")
        calls = []

        def counted(r, theta):
            calls.append(np.shape(r))
            return f(r, theta)

        monkeypatch.setattr("scatterpoly.cli._resolve_input", lambda spec: (counted, spec))
        assert main(["expand", "input.csv", "--trunc", "6", "--out", "c.json"]) == 0
        # one call for the projection grid and one for the rim; the grid stops
        # at r = 7/8, where f is not 0, so there is no residual grid
        assert calls == [(14, 1), (1, 1)]

    def test_rim_vanishing_target_sampled_once_per_grid(self, monkeypatch):
        f, _ = _resolve_input("builtin:radial_bump")
        calls = []

        def counted(r, theta):
            calls.append(np.shape(r))
            return f(r, theta)

        monkeypatch.setattr("scatterpoly.cli._resolve_input", lambda spec: (counted, spec))
        assert main(["expand", "builtin:radial_bump", "--trunc", "6"]) == 0
        # projection grid, rim, residual grid
        assert calls == [(14, 1), (1, 1), (24, 1)]


class TestSolve:
    def test_eigenvalue_division(self):
        assert main(["solve", "builtin:phi_2_3", "--trunc", "6"]) == 0
        payload = read_json("solution.json")
        table = {(r["p"], r["q"]): r["re"] for r in payload["coefficients"]}
        assert abs(table[(2, 3)] - 1.0 / 6.0) < 1e-9
        assert payload["boundary_max"] == 0.0

    def test_reconstruction_grid(self, capsys):
        assert main(["solve", "builtin:phi_1_1", "--trunc", "4", "--grid", "4x8"]) == 0
        out = capsys.readouterr().out
        assert "wrote solution.json" in out
        assert "wrote solution_grid.csv" in out
        rows = read_csv("solution_grid.csv")
        assert len(rows) == 33
        # u = phi / 1 for the first eigenfunction; r = 0 row carries value 1
        assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-9)


class TestGridFileErrors:
    def test_bad_header(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("x,y,re,im\n0,0,1,0\n")
        assert main(["expand", "bad.csv"]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_wrong_field_count(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n0,0,1,0\n0.5,0,1\n")
        assert main(["expand", "bad.csv"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_numeric_cell(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n0,abc,1,0\n")
        assert main(["expand", "bad.csv"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_incomplete_rectangle(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n0,0,1,0\n0,1,1,0\n0.5,0,1,0\n")
        assert main(["expand", "bad.csv"]) == 2
        assert "rectangle" in capsys.readouterr().err

    def test_boundary_radius_rejected(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n0,0,1,0\n1.0,0,1,0\n")
        assert main(["expand", "bad.csv"]) == 2
        assert "[0, 1)" in capsys.readouterr().err

    def test_empty_data(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n")
        assert main(["expand", "bad.csv"]) == 2
        assert "no data rows" in capsys.readouterr().err

    def test_repeated_node(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n0.1,0.0,1,0\n0.1,0.0,5,0\n")
        assert main(["expand", "bad.csv"]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: line 3" in err and "line 2" in err
        assert os.listdir() == ["bad.csv"]

    def test_angles_over_one_turn(self, capsys):
        rows = "".join(f"{r},{t},1,0\n" for r in (0, 0.5) for t in (0, 3.5, 7.0))
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n" + rows)
        assert main(["expand", "bad.csv"]) == 2
        assert "bad.csv: angular nodes span 7.0, more than 2 pi" in capsys.readouterr().err
        assert os.listdir() == ["bad.csv"]

    @pytest.mark.parametrize(
        "radii,angles", [((0.5,), (1.0,)), ((0.5,), (0.0, 1.0, 2.0)), ((0.0, 0.3, 0.6), (2.0,))]
    )
    @pytest.mark.parametrize("command", ["expand", "solve"])
    def test_under_two_by_two(self, command, radii, angles, capsys):
        rows = "".join(f"{r},{t},1,0\n" for r in radii for t in angles)
        with open("thin.csv", "w") as fh:
            fh.write("r,theta,re,im\n" + rows)
        assert main([command, "thin.csv", "--trunc", "4", "--out", "out.csv"]) == 2
        shape = f"{len(radii)}x{len(angles)}"
        assert capsys.readouterr().err == f"error: thin.csv: grid must be at least 2x2, got {shape}\n"
        assert os.listdir() == ["thin.csv"]

    def test_missing_file(self, capsys):
        assert main(["expand", "nope.csv"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_field_over_the_csv_limit(self, capsys):
        with open("bad.csv", "w") as fh:
            fh.write("r,theta,re,im\n0,0,1,0\n0.5,0,1," + "0" * (csv.field_size_limit() + 1) + "\n")
        assert main(["expand", "bad.csv"]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: line 3: field larger than field limit" in err
        assert os.listdir() == ["bad.csv"]

    def test_not_utf8(self, capsys):
        with open("bad.csv", "wb") as fh:
            fh.write(b"r,theta,re,im\n0,0,1,0\n0.5,0,\xff,0\n")
        assert main(["expand", "bad.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read bad.csv: 'utf-8' codec can't decode byte 0xff")
        assert os.listdir() == ["bad.csv"]

    def test_rows_over_the_limit(self, capsys, monkeypatch):
        # reading stops at the first row over the limit: the bad row after it is never parsed
        monkeypatch.setattr("scatterpoly.cli.MAX_GRID_CELLS", 4)
        rows = "".join(f"{r},{t},1,0\n" for r in (0, 0.5) for t in (0, 3))
        with open("big.csv", "w") as fh:
            fh.write("r,theta,re,im\n" + rows + "0.7,0,1,0\nx\n")
        assert main(["expand", "big.csv"]) == 2
        err = capsys.readouterr().err
        assert err == "error: big.csv: more than 4 data rows (limit on float work)\n"
        with open("big.csv", "w") as fh:  # at the limit, a blank line not counted
            fh.write("r,theta,re,im\n\n" + rows)
        assert main(["expand", "big.csv", "--trunc", "2"]) == 0

    def test_lines_over_the_limit(self, capsys, monkeypatch):
        # blank lines count too: reading stops at line 2 * 4 + 2, before the bad row
        monkeypatch.setattr("scatterpoly.cli.MAX_GRID_CELLS", 4)
        with open("blank.csv", "w") as fh:
            fh.write("r,theta,re,im\n" + "\n" * 20 + "x\n")
        assert main(["expand", "blank.csv"]) == 2
        err = capsys.readouterr().err
        assert err == "error: blank.csv: more than 9 lines (limit on float work)\n"

    @pytest.mark.parametrize(
        "row,field",
        [("0.1,3,nan,0", "re"), ("0.1,3,0,inf", "im"), ("0.1,-inf,0,0", "theta"),
         ("NaN,3,0,0", "r")],
    )
    def test_non_finite_cell(self, row, field, capsys):
        with open("bad.csv", "w") as fh:
            fh.write(f"r,theta,re,im\n0,3,1,0\n{row}\n")
        assert main(["expand", "bad.csv"]) == 2
        err = capsys.readouterr().err
        assert "bad.csv: line 3" in err and f"{field} is not finite" in err
        assert os.listdir() == ["bad.csv"]


class Reached(Exception):
    """Raised by a stub standing in for the float work a command starts."""


def reach(*args, **kwargs):
    raise Reached


class TestLimitsOnFloatWork:
    """At each limit the command gets to its float work; above it, exit 2
    naming the limit, with no file written."""

    def assert_refused(self, capsys, argv, limit):
        assert main(argv) == 2
        assert str(limit) in capsys.readouterr().err
        assert os.listdir() == []

    def test_gram(self, capsys, monkeypatch):
        monkeypatch.setattr(quadrature, "gram", reach)
        with pytest.raises(Reached):
            main(["gram", str(MAX_GRAM_SUM)])
        self.assert_refused(capsys, ["gram", str(MAX_GRAM_SUM + 1)], MAX_GRAM_SUM)

    @pytest.mark.parametrize(
        "command,work", [("expand", "expand"), ("solve", "solve_weighted_poisson")]
    )
    def test_truncation(self, command, work, capsys, monkeypatch):
        monkeypatch.setattr(transform, work, reach)
        with pytest.raises(Reached):
            main([command, "builtin:one", "--trunc", str(MAX_TRUNC), "--grid", "2x2"])
        self.assert_refused(capsys, [command, "builtin:one", "--trunc", str(MAX_TRUNC + 1)], MAX_TRUNC)

    @pytest.mark.parametrize("spelling", ["eval", "builtin"])
    def test_basis_index(self, spelling, capsys, monkeypatch):
        monkeypatch.setattr(transform, "polar_grid", reach)
        monkeypatch.setattr(transform, "expand", reach)

        def argv(p, q):
            if spelling == "eval":
                return ["eval", str(p), str(q)]
            return ["expand", f"builtin:phi_{p}_{q}"]

        with pytest.raises(Reached):
            main(argv(1, MAX_TRUNC - 1))
        self.assert_refused(capsys, argv(1, MAX_TRUNC), MAX_TRUNC)
        self.assert_refused(capsys, argv(MAX_TRUNC // 2, MAX_TRUNC // 2 + 1), MAX_TRUNC)

    @pytest.mark.parametrize("command", ["eval", "expand", "solve"])
    @pytest.mark.parametrize("n_angular", [512, MAX_GRID_CELLS // 2])
    def test_grid_cells(self, command, n_angular, capsys, monkeypatch):
        at = f"{MAX_GRID_CELLS // n_angular}x{n_angular}"
        assert MAX_GRID_CELLS % n_angular == 0
        # a grid of exactly one cell more, from the smallest factor of that count
        d = next(d for d in range(2, MAX_GRID_CELLS) if (MAX_GRID_CELLS + 1) % d == 0)
        above = f"{d}x{(MAX_GRID_CELLS + 1) // d}"
        monkeypatch.setattr(transform, "polar_grid", reach)
        monkeypatch.setattr(transform, "expand", reach)
        monkeypatch.setattr(transform, "solve_weighted_poisson", reach)
        head = ["eval", "1", "1"] if command == "eval" else [command, "builtin:one"]
        with pytest.raises(Reached):
            main(head + ["--grid", at])
        self.assert_refused(capsys, head + ["--grid", above], MAX_GRID_CELLS)

    @pytest.mark.parametrize("m", [0, MAX_MOMENT_SUM // 2, MAX_MOMENT_SUM])
    def test_moments(self, m, capsys):
        n = MAX_MOMENT_SUM - m
        assert main(["moments", str(m), str(n), "--format", "json", "--out", "m.json"]) == 0
        assert all(entry["value"] > 0 for entry in read_json("m.json")["ladder"])
        os.remove("m.json")
        capsys.readouterr()
        self.assert_refused(capsys, ["moments", str(m), str(n + 1)], MAX_MOMENT_SUM)


class TestParser:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "eval" in capsys.readouterr().out


class TestInternalFailures:
    """Internal failures exit 1 with one stderr line, never a traceback."""

    def assert_one_line_failure(self, capsys, argv, name):
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: internal failure: ")
        assert name in lines[0]

    def test_sign_validation_error(self, capsys, monkeypatch):
        def negated(idx, radii):
            numerators, common = reference(idx, radii)
            return [-n for n in numerators], common

        reference = scattering.radial_sum_values
        monkeypatch.setattr(scattering, "radial_sum_values", negated)
        scattering.jacobi_form.cache_clear()
        self.assert_one_line_failure(capsys, ["eval", "3", "2"], "SignValidationError")
        assert not os.path.exists("phi_3_2_grid.csv")

    def test_convergence_error(self, capsys, monkeypatch):
        # a Newton update that never shrinks: the root finder must give up
        monkeypatch.setattr(
            jacobi, "_legendre_pair", lambda n, x: (np.ones_like(x), np.zeros_like(x))
        )
        jacobi.gauss_legendre.cache_clear()
        self.assert_one_line_failure(capsys, ["moments", "0", "0"], "ConvergenceError")

    def test_angular_moment_cross_check(self, capsys, monkeypatch):
        # a wrong closed form makes the trapezoid cross-check disagree
        monkeypatch.setattr(quadrature, "_double_factorial", lambda k: 1)
        self.assert_one_line_failure(capsys, ["moments", "1", "0"], "ArithmeticError")
        assert not os.path.exists("moments_1_0.csv")

    def test_non_finite_result_writes_no_file(self, capsys, monkeypatch):
        monkeypatch.setattr("scatterpoly.transform.expansion_residual", lambda f, table: math.nan)
        self.assert_one_line_failure(
            capsys, ["expand", "builtin:phi_1_1", "--trunc", "4"], "NonFiniteOutputError"
        )
        assert not os.path.exists("expansion.json")


def reference_rendering(path):
    """The file's own parsed content rendered again by the reference rules:
    JSON through render_json, CSV through csv.writer with every numeric cell
    re-formatted by format_float and every label kept."""
    text = path.read_bytes().decode("utf-8")
    if path.suffix == ".json":
        return render_json(json.loads(text)) + "\n"

    def cell(value):
        try:
            return format_float(float(value))
        except ValueError:
            return value

    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows([cell(v) for v in row] for row in csv.reader(io.StringIO(text)))
    return buffer.getvalue()


class TestLayout:
    """Every output equals the reference rendering of its own content, byte
    for byte; this holds on any machine, where golden files would not."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "2", "3", "--grid", "3x5"],
            ["gram", "4"],
            ["moments", "1", "2"],
            ["moments", "0", "1", "--eps-ladder", "0.5,1e-3,3e-7"],
            ["expand", "builtin:radial_bump", "--trunc", "5", "--grid", "3x4"],
            ["expand", "builtin:one", "--trunc", "4"],
            ["solve", "builtin:phi_2_3", "--trunc", "5", "--grid", "2x3"],
        ],
    )
    def test_matches_reference_rendering(self, tmp_path, argv, fmt):
        assert main(argv + ["--format", fmt]) == 0
        outputs = sorted(tmp_path.iterdir())
        assert len(outputs) == (2 if "--grid" in argv and argv[0] != "eval" else 1)
        for path in outputs:
            assert path.read_bytes().decode("utf-8") == reference_rendering(path)

    def test_verify_matches_reference_rendering(self, tmp_path):
        assert main(["verify", "5"]) == 0
        path = tmp_path / "verify_report.json"
        assert path.read_bytes().decode("utf-8") == reference_rendering(path)

    def test_reference_rendering_sees_a_layout_change(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"a": [1.5]}\n')
        assert reference_rendering(path) != path.read_text()


class TestGridPath:
    """The reconstruction grid sits next to --out, with its extension replaced."""

    def test_directory_with_a_dot(self, capsys):
        os.mkdir("res.d")
        assert main(["solve", "builtin:phi_1_1", "--trunc", "4", "--out", "res.d/solution",
                     "--grid", "4x4"]) == 0
        assert "wrote res.d/solution_grid.csv" in capsys.readouterr().out
        assert sorted(os.listdir("res.d")) == ["solution", "solution_grid.csv"]
        assert sorted(os.listdir()) == ["res.d"]

    def test_path_without_extension(self):
        assert main(["expand", "builtin:phi_1_1", "--trunc", "4", "--out", "./expansion",
                     "--grid", "4x4"]) == 0
        assert sorted(os.listdir()) == ["expansion", "expansion_grid.csv"]

    def test_extension_is_replaced(self):
        assert main(["expand", "builtin:phi_1_1", "--trunc", "4", "--out", "a.b.json",
                     "--grid", "4x4"]) == 0
        assert sorted(os.listdir()) == ["a.b.json", "a.b_grid.csv"]


def poison(array):
    """A copy of array with one nan in it."""
    out = np.array(array, dtype=complex if np.iscomplexobj(array) else float)
    out.flat[min(1, out.size - 1)] = math.nan
    return out


class TestNonFiniteOutputs:
    """A nan reaching any writer route exits 1 with one line and leaves no
    file for that output."""

    def assert_refused(self, capsys, argv, missing):
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: internal failure: ")
        assert "NonFiniteOutputError" in lines[0]
        assert not os.path.exists(missing)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_eval_grid(self, fmt, capsys, monkeypatch):
        reference = scattering.RadialForm.radial_value
        monkeypatch.setattr(
            scattering.RadialForm, "radial_value", lambda self, r: poison(reference(self, r))
        )
        self.assert_refused(capsys, ["eval", "2", "2", "--format", fmt], f"phi_2_2_grid.{fmt}")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["expand", "solve"])
    def test_reconstruction_grid(self, command, fmt, capsys, monkeypatch):
        reference = transform.reconstruct

        def poisoned(table, r, theta):
            sample = reference(table, r, theta)
            return transform.GridSample(sample.radial_nodes, sample.angular_nodes,
                                        poison(sample.values))

        monkeypatch.setattr(transform, "reconstruct", poisoned)
        out = f"result.{fmt}"
        argv = [command, "builtin:phi_1_1", "--trunc", "4", "--grid", "3x3", "--format", fmt]
        self.assert_refused(capsys, argv + ["--out", out], "result_grid.csv")
        assert os.listdir() == [out]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_gram_entries(self, fmt, capsys, monkeypatch):
        reference = quadrature.gram

        def poisoned(indices):
            matrix = reference(indices)
            (positions, block), *rest = matrix.blocks
            return quadrature.GramMatrix(matrix.indices, ((positions, poison(block)), *rest))

        monkeypatch.setattr(quadrature, "gram", poisoned)
        self.assert_refused(capsys, ["gram", "3", "--format", fmt], f"gram_3.{fmt}")

    def test_verify_gram_diagonal(self, capsys, monkeypatch):
        # a nan at any place on a block's diagonal, not only where a max over
        # the diagonal would meet it first
        reference = quadrature.gram(basis_indices(6))
        blocks = reference.blocks
        for k, (positions, block) in enumerate(blocks):
            for i in range(len(block)):
                poisoned = np.array(block)
                poisoned[i, i] = math.nan
                matrix = quadrature.GramMatrix(
                    reference.indices, (*blocks[:k], (positions, poisoned), *blocks[k + 1:])
                )
                monkeypatch.setattr(quadrature, "gram", lambda indices, matrix=matrix: matrix)
                self.assert_refused(capsys, ["verify", "6"], "verify_report.json")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command,work", [("expand", "expand"),
                                              ("solve", "solve_weighted_poisson")])
    def test_one_coefficient(self, command, work, fmt, capsys, monkeypatch):
        reference = getattr(transform, work)

        def poisoned(f, trunc):
            table = reference(f, trunc)
            coefficients = dict(table.coefficients)
            coefficients[PQIndex(1, 2)] = complex(0.0, math.nan)
            return transform.ExpansionTable(coefficients, table.truncation)

        monkeypatch.setattr(transform, work, poisoned)
        self.assert_refused(capsys, [command, "builtin:phi_1_1", "--trunc", "4", "--format", fmt],
                            f"{'expansion' if command == 'expand' else 'solution'}.{fmt}")
        assert os.listdir() == []


    @pytest.mark.parametrize("command", ["expand", "solve"])
    def test_json_value_after_the_table(self, command, capsys, monkeypatch):
        # boundary_max follows the coefficient table in the payload, so it
        # must be rendered before the file opens, not while it streams
        monkeypatch.setattr(transform, "boundary_value_check", lambda table, n: math.nan)
        self.assert_refused(capsys, [command, "builtin:phi_1_1", "--trunc", "4"],
                            "expansion.json" if command == "expand" else "solution.json")
        assert os.listdir() == []


class TestUnwritableOutput:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("head", [["gram", "2"], ["eval", "1", "1", "--grid", "2x2"]])
    def test_missing_directory_exits_2_naming_the_path(self, head, fmt, capsys):
        out = os.path.join("missing", f"result.{fmt}")
        assert main(head + ["--format", fmt, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and len(err.splitlines()) == 1
        assert os.listdir() == []
