import hashlib
import io
import json
import math

import numpy as np
import pytest

from pmdpdl import cli
from pmdpdl import (
    intensity_profile,
    optimize_arrangement,
    parse_network,
    run_exact,
    run_weak,
    sweep_polarization,
    sweep_sphere,
)

MINIMAL = "pulse tc=1.0\ninput theta=0.0 phi=0.0\n"
SINGLE_PMD = MINIMAL + "pmd axis=0,0,1 dgd=0.5\n"
FIVE_ELEMENT = (
    "pulse tc=100.0\ninput theta=0.9 phi=0.0\n"
    "pmd axis=0,0,1 dgd=1\npdl axis=1,0,0 mu=1\n"
    "pmd axis=0,0,1 dgd=1\npdl axis=1,0,0 mu=1\npmd axis=0,0,1 dgd=1\n"
)
# The leading polarizer passes |H> only, so the |V> input (theta = pi on the
# sphere, phi = pi on the linear sweep) is blocked and its rows print nan.
BLOCKING = (
    "pulse tc=1.0 omega0=0.7\ninput theta=0.0 phi=0.0\npolarizer theta=0 phi=0\n"
    "pmd axis=0.3,-0.5,0.8 dgd=0.4\npdl axis=0,0,1 mu=0.6\npmd axis=1,0,0 dgd=0.2\n"
)


def write(tmp_path, text, name="net.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_minimal_report(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "simulate", write(tmp_path, MINIMAL))
        assert code == 0
        assert "engine = exact" in out
        assert "transmission = 1" in out
        assert "mean_time = 0" in out
        assert "input_digest = sha256:" in out

    def test_json_report(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "simulate", write(tmp_path, SINGLE_PMD), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == "exact"
        assert payload["mean_time"] == pytest.approx(0.25)
        assert payload["warnings"] == []

    def test_intensity_csv_strong_split_is_bimodal(self, tmp_path, capsys):
        text = "pulse tc=1.0\ninput theta=1.5707963267948966 phi=0.0\npmd axis=0,0,1 dgd=6\n"
        code, out, err = run_cli(
            capsys, "simulate", write(tmp_path, text), "--intensity", "--points", "801"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,intensity"
        assert len(lines) == 802
        values = [float(line.split(",")[1]) for line in lines[1:]]
        peaks = sum(
            1
            for i in range(1, len(values) - 1)
            if values[i] > values[i - 1] and values[i] > values[i + 1]
        )
        assert peaks == 2
        assert "engine = exact" in err  # report goes to stderr in CSV mode

    def test_intensity_csv_weak_split_is_unimodal(self, tmp_path, capsys):
        text = "pulse tc=1.0\ninput theta=1.5707963267948966 phi=0.0\npmd axis=0,0,1 dgd=0.1\n"
        code, out, _ = run_cli(
            capsys, "simulate", write(tmp_path, text), "--intensity", "--points", "801"
        )
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        peaks = sum(
            1
            for i in range(1, len(values) - 1)
            if values[i] > values[i - 1] and values[i] > values[i + 1]
        )
        assert peaks == 1

    def test_crossed_polarizer_exits_3(self, tmp_path, capsys):
        text = SINGLE_PMD + "polarizer theta=3.141592653589793 phi=0\n"
        code, out, err = run_cli(capsys, "simulate", write(tmp_path, text))
        assert code == 3
        assert "physics error" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "simulate", write(tmp_path, "pulse tc=-1\n"))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "/no/such/file")
        assert code == 2
        assert "cannot read input" in err

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(SINGLE_PMD))
        code, out, _ = run_cli(capsys, "simulate", "-")
        assert code == 0
        assert "mean_time = 0.25" in out


class TestWeak:
    def test_single_pmd_table(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "weak", write(tmp_path, SINGLE_PMD))
        assert code == 0
        lines = out.strip().splitlines()
        assert "index,kind,shift" in lines
        table = lines[lines.index("index,kind,shift") + 1 :]
        assert table == ["1,pmd,0.25"]

    def test_five_element_table_matches_engine(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "weak", write(tmp_path, FIVE_ELEMENT), "--json")
        assert code == 0
        payload = json.loads(out)
        spec = parse_network(FIVE_ELEMENT)
        expected = run_weak(spec)
        shifts = payload["per_element_shifts"]
        assert [row["kind"] for row in shifts] == ["pmd", "pdl", "pmd", "pdl", "pmd"]
        got = [row["shift"] for row in shifts]
        assert got == pytest.approx(list(expected.per_element_shifts), rel=1e-15)
        pmd_rows = [row for row in shifts if row["kind"] == "pmd"]
        assert len(pmd_rows) == 3
        assert all(row["shift"] != 0.0 for row in pmd_rows)
        assert payload["report"]["mean_time"] == pytest.approx(expected.mean_time)
        assert payload["report"]["transmission"] == pytest.approx(expected.norm_sq)

    def test_warning_on_marginal_weakness(self, tmp_path, capsys):
        text = MINIMAL + "pmd axis=0,0,1 dgd=0.5\n"  # dgd = 0.5 tc
        code, out, _ = run_cli(capsys, "weak", write(tmp_path, text))
        assert code == 0
        assert "warning = " in out and "0.5" in out

    def test_no_warning_when_weak(self, tmp_path, capsys):
        text = MINIMAL + "pmd axis=0,0,1 dgd=0.01\n"
        code, out, _ = run_cli(capsys, "weak", write(tmp_path, text))
        assert "warning" not in out

    def test_blocked_exits_3(self, tmp_path, capsys):
        text = MINIMAL + "polarizer theta=3.141592653589793 phi=0\n"
        code, _, err = run_cli(capsys, "weak", write(tmp_path, text))
        assert code == 3

    def test_report_bytes_with_zero_dgd_section(self, tmp_path, capsys):
        # A dgd=0 section is still a delay section: its row keeps the pmd
        # kind and prints its weak shift, 0 (its branches carry delays +-0).
        text = (
            "pulse tc=1\ninput theta=2.5 phi=1\npmd axis=0,0,1 dgd=0\n"
            "pdl axis=1,0,0 mu=0.5\npmd axis=0,1,0 dgd=0.01\n"
        )
        code, out, err = run_cli(capsys, "weak", write(tmp_path, text))
        assert (code, err) == (0, "")
        assert out == (
            "engine = weak\n"
            "mean_time = 0.0019427017777110655\n"
            "transmission = 1.296125195995339\n"
            "input_digest = sha256:"
            "e242e98172ffc5ae25f6c6c96ae90834a1ce0895af9247c3e8ecac5028b3b7e1\n"
            "index,kind,shift\n"
            "1,pmd,0\n"
            "2,pdl,0\n"
            "3,pmd,0.0019427017777110655\n"
        )


class TestSweep:
    def test_csv_header_and_rows(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", write(tmp_path, SINGLE_PMD), "--grid", "10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,t_weak"
        assert len(lines) == 11
        phi, t = lines[1].split(",")
        assert float(phi) == 0.0 and float(t) == pytest.approx(0.25)

    def test_exact_engine_adds_column(self, tmp_path, capsys):
        text = MINIMAL + "pmd axis=0,0,1 dgd=0.01\n"
        code, out, _ = run_cli(
            capsys, "sweep", write(tmp_path, text), "--grid", "8", "--engine", "exact"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "phi,t_weak,t_exact"
        for line in lines[1:]:
            _, t_weak, t_exact = (float(x) for x in line.split(","))
            assert t_exact == pytest.approx(t_weak, abs=1e-6)

    def test_sphere_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            write(tmp_path, SINGLE_PMD),
            "--sphere",
            "--theta-grid",
            "5",
            "--grid",
            "8",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "theta,phi,t_weak"
        assert len(lines) == 1 + 5 * 8

    def test_byte_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, FIVE_ELEMENT)
        _, out1, _ = run_cli(capsys, "sweep", path, "--grid", "50")
        _, out2, _ = run_cli(capsys, "sweep", path, "--grid", "50")
        assert out1 == out2


class TestOptimize:
    def test_grouping_selected(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", write(tmp_path, FIVE_ELEMENT), "--grid", "121"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == "max"
        assert payload["best_order"] == [0, 2, 4, 1, 3]  # delays first, filters last
        spec = parse_network(FIVE_ELEMENT)
        expected = optimize_arrangement(spec.elements, "max", 121, pulse=spec.pulse)
        assert payload["best_extremum"] == pytest.approx(expected.best_extremum)

    def test_table_option(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", write(tmp_path, FIVE_ELEMENT), "--grid", "61", "--table"
        )
        payload = json.loads(out)
        assert len(payload["per_order_table"]) == 10

    def test_too_many_elements_is_usage_error(self, tmp_path, capsys):
        text = MINIMAL + "pmd axis=0,0,1 dgd=0.1\n" * 9
        code, _, err = run_cli(capsys, "optimize", write(tmp_path, text))
        assert code == 4
        assert "usage error" in err

    def test_json_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, FIVE_ELEMENT)
        _, out1, _ = run_cli(capsys, "optimize", path, "--grid", "61", "--table")
        _, out2, _ = run_cli(capsys, "optimize", path, "--grid", "61", "--table")
        assert out1 == out2


class TestValidate:
    def test_discrepancy_shrinks_quadratically(self, tmp_path, capsys):
        text = (
            "pulse tc=1.0\ninput theta=0.9 phi=0.4\n"
            "pmd axis=0,0,1 dgd=1\npdl axis=1,0,0 mu=0.8\n"
            "pmd axis=0,1,1 dgd=0.7\npdl axis=1,0,1 mu=1.2\npmd axis=1,0,0 dgd=0.4\n"
        )
        code, out, _ = run_cli(capsys, "validate", write(tmp_path, text))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ratio,discrepancy,bound"
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert [r[0] for r in rows] == [1e-1, 1e-2, 1e-3]
        for ratio, discrepancy, bound in rows:
            assert discrepancy <= bound
        # at least quadratic shrink per decade (actual scaling is cubic)
        assert rows[1][1] <= rows[0][1] * 1e-2 * 10
        assert rows[2][1] <= rows[1][1] * 1e-2 * 10

    def test_all_pmd_chain_has_tiny_discrepancy(self, tmp_path, capsys):
        text = MINIMAL + "pmd axis=0,0,1 dgd=1\npmd axis=0,1,0 dgd=0.5\n"
        code, out, _ = run_cli(capsys, "validate", write(tmp_path, text))
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            _, discrepancy, _ = (float(x) for x in line.split(","))
            assert discrepancy < 1e-12

    def test_injected_tight_bound_fails(self, tmp_path, capsys):
        text = (
            "pulse tc=1.0\ninput theta=0.9 phi=0.4\n"
            "pmd axis=0,0,1 dgd=1\npdl axis=1,0,0 mu=0.8\npmd axis=0,1,1 dgd=0.7\n"
        )
        code, out, _ = run_cli(
            capsys, "validate", write(tmp_path, text), "--bound-factor", "1e-20"
        )
        assert code == 1

    def test_bad_ratios_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "validate", write(tmp_path, SINGLE_PMD), "--ratios", "nope"
        )
        assert code == 4

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--bound-factor", "nan"),
            ("--bound-factor", "-1"),
            ("--bound-factor", "0"),
            ("--bound-factor", "inf"),
            ("--ratios", "nan"),
            ("--ratios", "inf"),
            ("--ratios", "1e-2,-1e-3"),
            ("--ratios", "nope"),
        ],
    )
    def test_bad_flag_is_named_and_writes_nothing(self, tmp_path, capsys, flag, value):
        code, out, err = run_cli(capsys, "validate", write(tmp_path, SINGLE_PMD), flag, value)
        assert (code, out) == (4, "")
        assert err.startswith(f"usage error: {flag} must be finite and > 0, got ")

    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL + "polarizer theta=0 phi=0\npolarizer theta=3.141592653589793 phi=0\n",
            "pulse tc=1\ninput theta=0 phi=0\n"
            "pdl axis=1,0,0 mu=800\npdl axis=-1,0,0 mu=800\n",
        ],
    )
    def test_physics_error_writes_nothing(self, tmp_path, capsys, text):
        code, out, err = run_cli(capsys, "validate", write(tmp_path, text))
        assert (code, out) == (3, "")
        assert err.startswith("physics error: ")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 4

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 4

    def test_bad_flag(self, tmp_path, capsys):
        assert run_cli(capsys, "sweep", write(tmp_path, MINIMAL), "--engine", "warp")[0] == 4

    def test_degenerate_grid(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", write(tmp_path, SINGLE_PMD), "--grid", "1")
        assert code == 4
        assert "usage error" in err

    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_optimize_degenerate_grid(self, tmp_path, capsys, grid):
        code, out, err = run_cli(capsys, "optimize", write(tmp_path, SINGLE_PMD), "--grid", grid)
        assert (code, out) == (4, "")
        assert err == f"usage error: grid_size must be >= 2, got {grid}\n"

    def test_optimize_without_elements(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "optimize", write(tmp_path, MINIMAL))
        assert code == 4


def fmt(value) -> str:
    return format(value, ".17g")


def old_layout(header: str, rows) -> str:
    """CSV text in the one-line-per-row layout, one fmt() call per value."""
    return header + "\n" + "".join(",".join(map(fmt, row)) + "\n" for row in rows)


def sphere_rows(thetas, phis, values):
    """(theta, phi, value) rows of a sphere sweep, theta-major."""
    return [(t, p, v) for t, row in zip(thetas, values) for p, v in zip(phis, row)]


class TestCsvBytes:
    """Every CSV equals the per-row layout rebuilt from the library results,
    byte for byte."""

    def test_linear_sweep_weak(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "sweep", write(tmp_path, FIVE_ELEMENT), "--grid", "50")
        phis, t_weak, _ = sweep_polarization(parse_network(FIVE_ELEMENT), 50)
        assert code == 0
        assert out == old_layout("phi,t_weak", zip(phis, t_weak))

    def test_linear_sweep_exact(self, tmp_path, capsys):
        path = write(tmp_path, BLOCKING)
        code, out, _ = run_cli(capsys, "sweep", path, "--grid", "8", "--engine", "exact")
        phis, t_weak, t_exact = sweep_polarization(parse_network(BLOCKING), 8, include_exact=True)
        assert code == 0
        assert out == old_layout("phi,t_weak,t_exact", zip(phis, t_weak, t_exact))
        assert out.count("nan,nan") == 1

    def test_sphere_weak_with_blocked_rows(self, tmp_path, capsys):
        path = write(tmp_path, BLOCKING)
        code, out, _ = run_cli(capsys, "sweep", path, "--sphere", "--theta-grid", "9", "--grid", "12")
        thetas, phis, values = sweep_sphere(parse_network(BLOCKING), 9, 12, engine="weak")
        assert code == 0
        assert out == old_layout("theta,phi,t_weak", sphere_rows(thetas, phis, values))
        assert np.isnan(values).sum() == 12

    def test_sphere_exact(self, tmp_path, capsys):
        path = write(tmp_path, BLOCKING)
        code, out, _ = run_cli(
            capsys, "sweep", path, "--sphere", "--engine", "exact", "--theta-grid", "3", "--grid", "4"
        )
        thetas, phis, values = sweep_sphere(parse_network(BLOCKING), 3, 4, engine="exact")
        assert code == 0
        assert out == old_layout("theta,phi,t_exact", sphere_rows(thetas, phis, values))
        assert "nan" in out

    def test_simulate_intensity(self, tmp_path, capsys):
        path = write(tmp_path, BLOCKING)
        code, out, _ = run_cli(capsys, "simulate", path, "--intensity", "--points", "101")
        grid, values = intensity_profile(run_exact(parse_network(BLOCKING)).state, n_points=101)
        assert code == 0
        assert out == old_layout("t,intensity", zip(grid, values))

    def test_weak_shift_table(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "weak", write(tmp_path, FIVE_ELEMENT))
        result = run_weak(parse_network(FIVE_ELEMENT))
        digest = hashlib.sha256(FIVE_ELEMENT.encode("utf-8")).hexdigest()
        kinds = ["pmd", "pdl", "pmd", "pdl", "pmd"]
        expected = (
            f"engine = weak\nmean_time = {fmt(result.mean_time)}\n"
            f"transmission = {fmt(result.norm_sq)}\ninput_digest = sha256:{digest}\n"
            "index,kind,shift\n"
            + "".join(
                f"{i + 1},{kind},{fmt(shift)}\n"
                for i, (kind, shift) in enumerate(zip(kinds, result.per_element_shifts))
            )
        )
        assert code == 0
        assert out == expected

    def test_weak_shift_table_without_elements(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "weak", write(tmp_path, MINIMAL))
        assert code == 0
        assert out.endswith("input_digest = sha256:"
                            + hashlib.sha256(MINIMAL.encode("utf-8")).hexdigest()
                            + "\nindex,kind,shift\n")


class TestExtremeInputs:
    def test_huge_axis_components_match_unit_axis(self, tmp_path, capsys):
        outs = []
        for axis in ("1e200,0,0", "1,0,0"):
            text = MINIMAL + f"pmd axis={axis} dgd=0.5\npdl axis=0,1,1 mu=0.4\n"
            code, out, err = run_cli(capsys, "sweep", write(tmp_path, text), "--grid", "16")
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL + "pdl axis=1,0,0 db=1e308\n",
            MINIMAL + "pdl axis=1,0,0 mu=1421\n",
            "pulse tc=1 omega0=1e300\ninput theta=0 phi=0\npmd axis=1,0,0 dgd=1e10\n",
        ],
    )
    def test_overflowing_element_is_parse_error(self, tmp_path, capsys, text):
        for command in ("simulate", "weak"):
            code, out, err = run_cli(capsys, command, write(tmp_path, text))
            assert (code, out) == (2, "")
            assert err.startswith("parse error: line 3: ")

    def test_huge_and_tiny_input_amplitudes_parse(self, tmp_path, capsys):
        outs = []
        for h in ("1e200,0", "1e-200,0", "1,0"):
            text = f"pulse tc=1\ninput h={h} v=0,0\npmd axis=0,0,1 dgd=0.5\n"
            code, out, err = run_cli(capsys, "weak", write(tmp_path, text))
            assert (code, err) == (0, "")
            outs.append(out.split("input_digest")[0])
        assert outs[0] == outs[1] == outs[2]

    def test_tiny_coherence_time_is_strong_limit(self, tmp_path, capsys):
        text = "pulse tc=1e-300\ninput theta=0.3 phi=0\npmd axis=0,0,1 dgd=1\n"
        code, out, err = run_cli(capsys, "simulate", write(tmp_path, text), "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["transmission"] == pytest.approx(1.0, abs=1e-15)
        assert payload["mean_time"] == pytest.approx(0.4776682445628030, rel=1e-15)
