"""Command-line interface: byte determinism, exit codes, config
precedence, and the file formats promised to downstream tooling."""

import json

import numpy as np
import pytest

from bidisk.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    main,
    parse_grid,
    parse_weight,
    read_spectrum_csv,
)
from bidisk.spectral import TABLE_COLUMNS, SpectralTable

GRID = "0.5:50:25"


def run(args):
    return main(list(args))


def test_spectrum_csv_format(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--grid", GRID, "--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    lines = data.split(b"\r\n")
    assert lines[-1] == b""
    assert lines[0].decode() == ",".join(TABLE_COLUMNS)
    assert len(lines) == 25 + 2  # header + rows + trailing terminator
    assert b"\n" not in data.replace(b"\r\n", b"")


def test_spectrum_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["spectrum", "--grid", GRID, "--out", str(a)])
    run(["spectrum", "--grid", GRID, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_roundtrips_through_repr(tmp_path):
    out = tmp_path / "spec.csv"
    run(["spectrum", "--grid", GRID, "--out", str(out)])
    table = read_spectrum_csv(str(out))
    built = SpectralTable.build(parse_grid(GRID, log=True))
    for name in TABLE_COLUMNS:
        assert np.array_equal(getattr(table, name), getattr(built, name))


def test_spectrum_linear_grid(tmp_path):
    out = tmp_path / "lin.csv"
    assert run(["spectrum", "--grid", "1:10:10", "--linear", "--out", str(out)]) == EXIT_OK
    table = read_spectrum_csv(str(out))
    assert np.allclose(np.diff(table.x), 1.0)


def test_sample_deterministic_and_thread_invariant(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    d = tmp_path / "d.csv"
    run(["sample", "--n", "2000", "--seed", "7", "--out", str(a)])
    run(["sample", "--n", "2000", "--seed", "7", "--out", str(b)])
    run(["sample", "--n", "2000", "--seed", "7", "--threads", "8", "--out", str(c)])
    run(["sample", "--n", "2000", "--seed", "8", "--out", str(d)])
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    assert a.read_bytes() != d.read_bytes()
    assert a.read_bytes().split(b"\r\n")[0] == b"omega,weight"


def test_sample_rejects_bad_n(capsys):
    assert run(["sample", "--n", "0"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--json", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["moment_slice_fd"]["status"] == "pass"
    stdout = capsys.readouterr().out
    assert "moment_slice_fd: pass" in stdout
    assert "fail=0" in stdout


def test_verify_stdout_json_when_no_path(capsys):
    assert run(["verify"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "psh_hessian_grid" in report


def test_verify_json_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["verify", "--json", str(a)])
    run(["verify", "--json", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_uncertifiable_tolerance_exits_config(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify", "--tol", "1e-30", "--json", str(out)]) == EXIT_CONFIG
    report = json.loads(out.read_text())
    assert any(
        str(e["details"]).startswith("step-size failure:") for e in report.values()
    )


def test_moments_uniform_output(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["moments", "--n", "20000", "--json", str(out)]) == EXIT_OK
    blob = json.loads(out.read_text())
    assert abs(blob["mean_quadrature"] - 16.755160819145564) < 1e-5
    assert blob["claimed_mean"] == pytest.approx(4.71238898038469)
    assert len(blob["E2_truncated"]) == 3
    text = capsys.readouterr().out
    assert "increment_ratio" in text
    assert "discrepancy" in text


def test_moments_weighted_output(tmp_path):
    out = tmp_path / "m.txt"
    assert run(["moments", "--weight", "exp", "--n", "5000", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "weight = exp" in text
    assert "mean_quadrature = 3.721572" in text


def test_plot_svg_single_polyline(tmp_path):
    svg = tmp_path / "f.svg"
    assert run(["plot", "--grid", GRID, "--out", str(svg)]) == EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 1
    assert 'width="880" height="560"' in text
    assert "1e0" in text and "1e1" in text  # decade tick labels


def test_plot_from_table_matches_direct(tmp_path):
    csv_path = tmp_path / "spec.csv"
    run(["spectrum", "--grid", GRID, "--out", str(csv_path)])
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run(["plot", "--table", str(csv_path), "--out", str(a)])
    run(["plot", "--grid", GRID, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_reweight_uniform_copies_density_column(tmp_path):
    out = tmp_path / "rw.csv"
    assert run(["reweight", "--weight", "uniform", "--grid", GRID, "--out", str(out)]) == EXIT_OK
    lines = out.read_bytes().decode().split("\r\n")
    assert lines[0] == "x,x_tilde,f_quad,weight,f_reweighted"
    for line in lines[1:]:
        if not line:
            continue
        cols = line.split(",")
        assert cols[2] == cols[4]  # identical repr, i.e. bitwise equal
        assert cols[3] == "1.0"


def test_reweight_exp_weight_column_decays(tmp_path):
    out = tmp_path / "rw.csv"
    assert run(["reweight", "--weight", "exp", "--grid", GRID, "--out", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in out.read_bytes().decode().split("\r\n")[1:] if r]
    w = np.array([float(r[3]) for r in rows])
    assert np.all(np.diff(w) < 0.0)
    assert np.all(w > 0.0)


def test_config_file_equivalent_to_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=2000\nseed=7\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["sample", "--config", str(cfg), "--out", str(a)])
    run(["sample", "--n", "2000", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=2000\nseed=7\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["sample", "--config", str(cfg), "--seed", "9", "--out", str(a)])
    run(["sample", "--n", "2000", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana=1\n")
    assert run(["sample", "--config", str(cfg)]) == EXIT_CONFIG
    assert "banana" in capsys.readouterr().err


def test_missing_config_file_rejected(capsys):
    assert run(["sample", "--config", "/nonexistent/path.cfg"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid", ["1:2", "5:1:10", "0:1:10", "1:10:1", "a:b:c", "1:inf:3", "1:nan:3"]
)
def test_bad_grid_rejected(grid, capsys):
    assert run(["spectrum", "--grid", grid]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_bad_weight_rejected(capsys):
    assert run(["sample", "--n", "10", "--weight", "pareto"]) == EXIT_CONFIG
    assert "pareto" in capsys.readouterr().err


def test_weight_table_header_error_is_line_numbered(tmp_path, capsys):
    bad = tmp_path / "w.csv"
    bad.write_text("rho,mass\n0.0,1.0\n")
    assert run(["sample", "--n", "10", "--weight", f"table:{bad}"]) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


def test_weight_table_value_error_is_line_numbered(tmp_path, capsys):
    bad = tmp_path / "w.csv"
    bad.write_text("rho,weight\n0.0,1.0\n1.0,oops\n")
    assert run(["sample", "--n", "10", "--weight", f"table:{bad}"]) == EXIT_CONFIG
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1.0,nan", "nan,1.0", "1.0,inf"])
def test_weight_table_non_finite_rejected(tmp_path, capsys, row):
    bad = tmp_path / "w.csv"
    bad.write_text(f"rho,weight\n0.0,1.0\n{row}\n2.0,1.0\n")
    assert run(["sample", "--n", "10", "--weight", f"table:{bad}"]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_spectrum_tiny_grid_is_finite(tmp_path):
    out = tmp_path / "tiny.csv"
    assert run(["spectrum", "--grid", "1e-100:1:3", "--out", str(out)]) == EXIT_OK
    table = read_spectrum_csv(str(out))
    for name in TABLE_COLUMNS:
        assert np.all(np.isfinite(getattr(table, name))), name
    x = table.x[0]
    assert abs(table.F_quad[0] / (x * x / 48.0) - 1.0) < 1e-12
    assert abs(table.f_quad[0] / (x / 24.0) - 1.0) < 1e-9


def test_spectrum_huge_grid_is_finite(tmp_path):
    # u rounds to 1 above x ~ 3e8, and x~^2, x~^3 overflow further out
    out = tmp_path / "huge.csv"
    assert run(["spectrum", "--grid", "1:1e300:7", "--out", str(out)]) == EXIT_OK
    table = read_spectrum_csv(str(out))
    for name in TABLE_COLUMNS:
        assert np.all(np.isfinite(getattr(table, name))), name
    assert table.F_quad[-1] >= 1.0 - 1e-8
    assert table.F_derived[-1] >= 1.0 - 1e-8


def test_weight_table_accepted(tmp_path):
    good = tmp_path / "w.csv"
    good.write_text("rho,weight\n0.0,1.0\n50.0,0.5\n")
    spec = parse_weight(f"table:{good}")
    assert spec.kind == "table"
    assert spec.weight_of_rho(0.0) == 1.0


def test_spectrum_table_errors_are_line_numbered(tmp_path, capsys):
    bad = tmp_path / "t.csv"
    bad.write_text("x,oops\n")
    assert run(["plot", "--table", str(bad)]) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err

    bad.write_text(",".join(TABLE_COLUMNS) + "\n" + ",".join(["1.0"] * 7) + "\n")
    assert run(["plot", "--table", str(bad)]) == EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err


def test_threads_must_be_positive(capsys):
    assert run(["sample", "--n", "10", "--threads", "0"]) == EXIT_CONFIG
    assert "threads" in capsys.readouterr().err


def test_bad_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_subcommand_exits_two(capsys):
    assert run([]) == 2
    capsys.readouterr()
