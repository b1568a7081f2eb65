"""Command-line interface: byte determinism, exit codes, config
precedence, and the file formats promised to downstream tooling."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from bidisk import cli, quadrature
from bidisk.cli import (
    CSV_CHUNK_ROWS,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    main,
    parse_grid,
    parse_weight,
    read_spectrum_csv,
)
from bidisk.spectral import (
    TABLE_COLUMNS,
    UNIFORM_WEIGHT,
    SpectralTable,
    WeightSpec,
    mc_sample,
    reweight_density,
)

GRID = "0.5:50:25"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(list(args))


def reference_csv(header, columns) -> bytes:
    """Table bytes as csv.writer writes them: CRLF rows of repr floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode()


def test_spectrum_csv_format(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--grid", GRID, "--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    lines = data.split(b"\r\n")
    assert lines[-1] == b""
    assert lines[0].decode() == ",".join(TABLE_COLUMNS)
    assert len(lines) == 25 + 2  # header + rows + trailing terminator
    assert all(len(line.split(b",")) == len(TABLE_COLUMNS) for line in lines[:-1])
    assert b"\n" not in data.replace(b"\r\n", b"")


# one row past two full chunks, and one row past a single chunk
N_CHUNKED = 2 * CSV_CHUNK_ROWS + 3
LINEAR = f"1:100:{CSV_CHUNK_ROWS + 1}"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the CSV workers that cli forks, with the usable CPUs
    read as 3, so that --threads up to 3 forks on any host."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("count, cpus", [(5, 5), (None, 1)])
def test_usable_cpus_without_affinity_is_the_cpu_count(count, cpus, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert cli._usable_cpus() == cpus


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_sample_chunks_match_reference_writer(threads, tmp_path, capsys, forks):
    out = tmp_path / "s.csv"
    args = ["sample", "--n", str(N_CHUNKED), "--seed", "5", "--threads", str(threads)]
    assert run(args + ["--out", str(out)]) == EXIT_OK
    assert run(args) == EXIT_OK
    batch = mc_sample(N_CHUNKED, 5, UNIFORM_WEIGHT)
    ref = reference_csv(("omega", "weight"), (batch.omega, batch.weight))
    assert out.read_bytes() == ref
    assert capsys.readouterr().out.encode() == ref
    assert len(forks) == 2 * (threads - 1)
    assert_reaped(forks)


def test_sample_without_fork_writes_one_part_with_the_same_bytes(tmp_path, monkeypatch):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    args = ["sample", "--n", str(N_CHUNKED), "--seed", "5", "--out"]
    assert run([*args, str(one), "--threads", "1"]) == EXIT_OK
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.delattr(os, "fork")
    assert cli._part_bounds(N_CHUNKED, 2) == [(0, N_CHUNKED)]
    assert run([*args, str(two), "--threads", "2"]) == EXIT_OK
    assert one.read_bytes() == two.read_bytes()


CSV_VALUES = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1e300, math.nan, math.inf]


@pytest.mark.parametrize("n_columns", [1, 2, 8])
@pytest.mark.parametrize(
    "rows", [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, N_CHUNKED, 5 * CSV_CHUNK_ROWS + 1]
)
def test_csv_text_matches_reference_writer(rows, n_columns, forks):
    rng = np.random.default_rng(rows + n_columns)
    columns = []
    for c in range(n_columns):
        column = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        special = (np.arange(rows) + c) % 3 == 0
        column[special] = np.resize(np.roll(CSV_VALUES, c), rows)[special]
        columns.append(column)
    header = tuple(f"c{c}" for c in range(n_columns))
    ref = reference_csv(header, columns)
    for workers in (1, 2, 3):
        assert "".join(cli._csv_text(header, columns, workers)).encode() == ref, workers
    chunks = -(-rows // CSV_CHUNK_ROWS)
    assert len(forks) == sum(min(w, chunks) - 1 for w in (1, 2, 3))
    assert_reaped(forks)


def test_csv_text_of_constant_columns_matches_reference_writer():
    columns = [np.full(N_CHUNKED, v) for v in CSV_VALUES]
    signed_zeros = np.zeros(N_CHUNKED)
    signed_zeros[1::2] = -0.0  # equal values of two bit patterns, so two reprs
    columns.append(signed_zeros)
    header = tuple(f"c{c}" for c in range(len(columns)))
    ref = reference_csv(header, columns)
    assert "".join(cli._csv_text(header, columns)).encode() == ref


def test_spectrum_chunks_match_reference_writer(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["spectrum", "--grid", LINEAR, "--linear", "--out", str(out)]) == EXIT_OK
    table = SpectralTable.build(parse_grid(LINEAR, log=False))
    columns = [getattr(table, name) for name in TABLE_COLUMNS]
    assert out.read_bytes() == reference_csv(TABLE_COLUMNS, columns)


def test_reweight_chunks_match_reference_writer(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["reweight", "--weight", "exp", "--grid", LINEAR, "--linear", "--out", str(out)]) == EXIT_OK
    data = out.read_bytes()
    header, *rows = data.decode().split("\r\n")[:-1]
    columns = np.array([r.split(",") for r in rows], dtype=float).T  # repr round-trips
    assert np.array_equal(columns[0], parse_grid(LINEAR, log=False))
    assert data == reference_csv(header.split(","), columns)


@pytest.mark.parametrize("threads", [1, 2])
def test_write_text_gets_every_byte_as_str(threads, tmp_path, monkeypatch, forks):
    # the benchmark's tracer counts cli.out_bytes from _write_text's text
    calls = []
    write = cli._write_text

    def recording(out, text):
        calls.append(text)
        write(out, text)

    monkeypatch.setattr(cli, "_write_text", recording)
    out = tmp_path / "s.csv"
    n = 10000
    assert run(["sample", "--n", str(n), "--threads", str(threads), "--out", str(out)]) == EXIT_OK
    assert all(type(t) is str for t in calls)
    assert sum(len(t.encode("utf-8")) for t in calls) == out.stat().st_size
    if threads == 1:
        assert len(calls) == 1 + math.ceil(n / CSV_CHUNK_ROWS)
    assert len(forks) == threads - 1
    assert_reaped(forks)


WRITERS = {
    "spectrum": ["spectrum", "--grid", GRID, "--out"],
    "sample": ["sample", "--n", "1000", "--out"],
    "reweight": ["reweight", "--grid", GRID, "--out"],
    "plot": ["plot", "--grid", GRID, "--out"],
    "moments": ["moments", "--weight", "exp", "--n", "1000", "--json"],
    "verify": ["verify", "--json"],
}


@pytest.mark.parametrize("target", ["directory", "/dev/full"])
@pytest.mark.parametrize("command", sorted(WRITERS))
def test_output_errors_exit_two(command, target, tmp_path, capsys):
    if target == "directory":
        path = str(tmp_path)
    elif os.path.exists(target):
        path = target  # every write fails with ENOSPC
    else:
        pytest.skip(f"{target} does not exist")
    assert run(WRITERS[command] + [path]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


def assert_closed_stdout_exits_two(read_first, *args):
    """`bidisk sample --n 100000 ARGS`, whose stdout reader closes after
    read_first bytes, exits 2 with one line of error and no traceback, and
    no process of its session outlives it."""
    # like `bidisk sample | true` and `bidisk sample | head -c 100`, with
    # stdout buffered as usual, so that the interpreter flushes it at exit
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bidisk", "sample", "--n", "100000", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    proc.stdout.read(read_first)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_CONFIG
    assert "Traceback" not in err
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("read_first", [0, 100])
def test_closed_stdout_exits_two_without_traceback(read_first):
    assert_closed_stdout_exits_two(read_first)


@pytest.mark.parametrize("read_first", [0, 100])
def test_closed_stdout_with_workers_exits_two_without_traceback(read_first):
    # on a host with one usable CPU nothing forks, and this is the test above
    assert_closed_stdout_exits_two(read_first, "--threads", "2")


# tables of more than one chunk, so that --threads 2 forks a worker
WORKER_WRITERS = {
    "spectrum": ["spectrum", "--grid", LINEAR, "--linear"],
    "sample": ["sample", "--n", str(N_CHUNKED)],
    "reweight": ["reweight", "--grid", LINEAR, "--linear"],
}


@pytest.mark.parametrize("target", ["directory", "/dev/full"])
@pytest.mark.parametrize("command", sorted(WORKER_WRITERS))
def test_output_errors_with_workers_exit_two_and_reap(command, target, tmp_path, capsys, forks):
    if target == "directory":
        path = str(tmp_path)
    elif os.path.exists(target):
        path = target
    else:
        pytest.skip(f"{target} does not exist")
    args = WORKER_WRITERS[command] + ["--threads", "2", "--out", path]
    assert run(args) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
    # the directory cannot be opened, so nothing forks; /dev/full fails
    # only when the first buffer of rows is flushed, after the fork
    assert len(forks) == (target == "/dev/full")
    assert_reaped(forks)


def test_failing_worker_exits_two_without_traceback(tmp_path, capfd, monkeypatch, forks):
    parent = os.getpid()
    rows = cli._csv_rows

    def failing_in_child(columns, start, stop):
        if os.getpid() != parent:
            raise RuntimeError("worker formatting failed")
        return rows(columns, start, stop)

    monkeypatch.setattr(cli, "_csv_rows", failing_in_child)
    out = tmp_path / "s.csv"
    assert run(["sample", "--n", str(N_CHUNKED), "--threads", "3", "--out", str(out)]) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err == "error: a CSV worker failed with exit status 1\n"
    assert len(forks) == 2
    assert_reaped(forks)


def test_unusable_tmpdir_with_workers_exits_two(tmp_path, capsys, monkeypatch, forks):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    out = tmp_path / "s.csv"
    assert run(["sample", "--n", str(N_CHUNKED), "--threads", "2", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: cannot start a CSV worker: ")
    assert forks == []


def test_sample_weight_zero_at_every_draw_exits_two_before_out(tmp_path, capsys):
    far = tmp_path / "far.csv"
    far.write_text("rho,weight\n0.0,0.0\n60.0,0.0\n61.0,1.0\n")
    out = tmp_path / "s.csv"
    assert run(["sample", "--n", "100", "--weight", f"table:{far}", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: --weight table:{far}: batch has no positive weight\n"
    assert not out.exists()


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


def test_linear_is_the_one_grid_switch(tmp_path, capsys):
    cfg = tmp_path / "lin.cfg"
    cfg.write_text("linear=true\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["spectrum", "--grid", "1:10:10", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
    assert run(["spectrum", "--grid", "1:10:10", "--linear", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    cfg.write_text("log=false\n")
    assert run(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown key 'log'" in capsys.readouterr().err
    assert run(["spectrum", "--log"]) == EXIT_CONFIG


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


@pytest.mark.parametrize("n", ["0", "-3"])
def test_moments_rejects_bad_n(n, capsys):
    # a configuration error (exit 2), not a failed check (exit 1)
    assert run(["moments", "--n", n]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --n must be >= 1\n"


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


def test_verify_uncertifiable_step_exits_check_failed(tmp_path, capsys, monkeypatch):
    # no step certifies a residual this small: the six FD entries fail
    monkeypatch.setattr(quadrature, "FD_TOL", 1e-30)
    out = tmp_path / "r.json"
    assert run(["verify", "--json", str(out)]) == EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    assert any(
        str(e["details"]).startswith("step-size failure:") for e in report.values()
    )
    assert "fail=6" in capsys.readouterr().out


def test_verify_json_and_out_split_report_and_summary(tmp_path, capsys):
    report, summary, alone = tmp_path / "r.json", tmp_path / "r.txt", tmp_path / "a.json"
    assert run(["verify", "--json", str(report), "--out", str(summary)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert run(["verify", "--json", str(alone)]) == EXIT_OK
    assert summary.read_text() == capsys.readouterr().out
    assert report.read_bytes() == alone.read_bytes()
    # --out alone still takes the report, and the summary goes to stdout
    assert run(["verify", "--out", str(summary)]) == EXIT_OK
    assert summary.read_bytes() == alone.read_bytes()
    assert capsys.readouterr().out.endswith("fail=0\n")


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


def test_verify_and_moments_report_one_mean(tmp_path):
    # the ledger's mean entry and `moments` call the same quadrature
    assert run(["verify", "--json", str(tmp_path / "v.json")]) == EXIT_OK
    assert run(["moments", "--n", "2000", "--json", str(tmp_path / "m.json")]) == EXIT_OK
    ledger = json.loads((tmp_path / "v.json").read_text())["ledger_mean_vs_claimed"]["value"]
    moments = json.loads((tmp_path / "m.json").read_text())
    assert ledger["mean_quadrature"] == moments["mean_quadrature"]
    assert ledger["quadrature_bound"] == moments["mean_bound"]


def test_moments_json_and_out_split_json_and_text(tmp_path, capsys):
    blob, text, alone = tmp_path / "m.json", tmp_path / "m.txt", tmp_path / "a.json"
    args = ["moments", "--weight", "exp", "--n", "2000"]
    assert run(args + ["--json", str(blob), "--out", str(text)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert run(args + ["--json", str(alone)]) == EXIT_OK
    assert text.read_text() == capsys.readouterr().out
    assert blob.read_bytes() == alone.read_bytes()


@pytest.mark.parametrize("cmd", ["verify", "moments"])
def test_json_and_out_naming_one_file_exit_two(cmd, tmp_path, capsys):
    path = tmp_path / "both"
    assert run([cmd, "--json", str(path), "--out", str(tmp_path / "." / "both")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --json and --out must name different files\n"
    assert not path.exists()


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


@pytest.mark.parametrize("kind", ["uniform", "exp", "gauss"])
def test_reweight_column_is_the_library_density(kind, tmp_path):
    out = tmp_path / "rw.csv"
    assert run(["reweight", "--weight", kind, "--grid", GRID, "--out", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in out.read_bytes().decode().split("\r\n")[1:] if r]
    x, f_rw = (np.array([float(r[i]) for r in rows]) for i in (0, 4))  # repr round-trips
    assert np.array_equal(f_rw, reweight_density(WeightSpec(kind), x))


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


def test_config_skips_comments_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\n   \n  n = 2000  \n\t# seed=9\nseed=7\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["sample", "--config", str(cfg), "--out", str(a)]) == EXIT_OK
    assert run(["sample", "--n", "2000", "--seed", "7", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=10\nseed 7\n", "line 2: expected key=value, got 'seed 7'"),
        ("n=ten\n", "bad value for 'n'"),
        ("seed=1.5\n", "bad value for 'seed'"),
        ("linear=maybe\n", "bad value for 'linear': not a boolean: 'maybe'"),
    ],
    ids=["malformed", "n-text", "seed-fraction", "linear-maybe"],
)
def test_bad_config_line_exits_two(text, message, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    cmd = "spectrum" if text.startswith("linear") else "sample"
    assert run([cmd, "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "false", "No", " OFF "])
def test_config_linear_false_is_the_log_grid(value, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"linear={value}\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["spectrum", "--grid", GRID, "--config", str(cfg), "--out", str(a)]) == EXIT_OK
    assert run(["spectrum", "--grid", GRID, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("row", ["1.0,nan", "nan,1.0", "1.0,inf", "1.0,1e400"])
def test_weight_table_non_finite_rejected(tmp_path, capsys, row):
    bad = tmp_path / "w.csv"
    bad.write_text(f"rho,weight\n0.0,1.0\n\n{row}\n2.0,1.0\n")
    assert run(["sample", "--n", "10", "--weight", f"table:{bad}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 4: ") and "finite" in err


@pytest.mark.parametrize("command", ["moments", "reweight"])
def test_all_zero_weight_table_exits_two(command, tmp_path, capsys):
    zero = tmp_path / "z.csv"
    zero.write_text("rho,weight\n0.0,0.0\n1.0,0.0\n")
    assert run([command, "--weight", f"table:{zero}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {zero}: ") and "zero" in err


@pytest.mark.parametrize("command", ["moments", "reweight"])
def test_weight_table_zero_where_the_mass_lies_exits_two(command, tmp_path, capsys):
    # positive only beyond rho = 60, where neither the draws nor the
    # reweighting table reach (omega = 4 sinh(rho / 2) > 4e13)
    far = tmp_path / "far.csv"
    far.write_text("rho,weight\n0.0,0.0\n60.0,0.0\n61.0,1.0\n")
    args = ["--n", "1000"] if command == "moments" else []
    assert run([command, *args, "--weight", f"table:{far}"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: --weight table:{far}: ")


def _spectrum_rows(*rows):
    return ",".join(TABLE_COLUMNS) + "\n" + "".join(r + "\n" for r in rows)


GOOD_ROW = ",".join(["1.0"] * len(TABLE_COLUMNS))


@pytest.mark.parametrize("column", range(len(TABLE_COLUMNS)))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_spectrum_table_non_finite_rejected(tmp_path, capsys, column, value):
    cells = ["2.0"] * len(TABLE_COLUMNS)
    cells[column] = value
    bad = tmp_path / "t.csv"
    bad.write_text(_spectrum_rows(GOOD_ROW, "", ",".join(cells)))
    assert run(["plot", "--table", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 4: ") and "finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("x", ["-1.0", "0.0", "-0.0"])
def test_spectrum_table_nonpositive_x_rejected(tmp_path, capsys, x):
    bad = tmp_path / "t.csv"
    bad.write_text(_spectrum_rows(GOOD_ROW, x + ",1,1,1,1,1,1,1", "2,1,1,1,1,1,1,1"))
    assert run(["plot", "--table", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {bad}: line 3: x must be positive\n"


def test_spectrum_table_decreasing_x_rejected(tmp_path, capsys):
    table, reversed_table = tmp_path / "spec.csv", tmp_path / "reversed.csv"
    assert run(["spectrum", "--grid", "1e-3:100:400", "--out", str(table)]) == EXIT_OK
    header, *rows = table.read_text().splitlines()
    reversed_table.write_text("\n".join([header, *rows[::-1]]) + "\n")
    assert run(["plot", "--table", str(reversed_table)]) == EXIT_CONFIG
    # the second data row is the first below its predecessor
    assert capsys.readouterr().err == f"error: {reversed_table}: line 3: x must not decrease\n"


def test_spectrum_table_repeated_x_is_drawn(tmp_path):
    table, svg = tmp_path / "t.csv", tmp_path / "f.svg"
    rows = ("1,0.25,0.1,0.9,0.1,0.1,0.2,0.1", GOOD_ROW, GOOD_ROW, "2,0.5,0.2,0.8,0.2,0.2,0.1,0.2")
    table.write_text(_spectrum_rows(*rows))
    assert run(["plot", "--table", str(table), "--out", str(svg)]) == EXIT_OK
    points = svg.read_text().split('<polyline points="', 1)[1].split('"', 1)[0].split()
    assert len(points) == 4


def test_plot_one_row_table_draws_one_point(tmp_path):
    table, svg = tmp_path / "t.csv", tmp_path / "f.svg"
    table.write_text(_spectrum_rows("10,0.5,0.6,0.4,0.6,0.6,0.05,0.05"))
    assert run(["plot", "--table", str(table), "--out", str(svg)]) == EXIT_OK
    points = svg.read_text().split('<polyline points="', 1)[1].split('"', 1)[0].split()
    # one point on a decade of its own, at the left edge of the frame
    assert len(points) == 1 and float(points[0].split(",")[0]) == 70.0


@pytest.mark.parametrize("density", ["1e308", "1.7976931348623157e308"])
def test_plot_huge_density_keeps_a_finite_scale(tmp_path, density):
    table = tmp_path / "t.csv"
    table.write_text(_spectrum_rows(f"1,0.25,0.1,0.1,0.1,0.1,{density},0.1", "2,0.5,0.2,0.2,0.2,0.2,0.5,0.2"))
    svg = tmp_path / "f.svg"
    assert run(["plot", "--table", str(table), "--out", str(svg)]) == EXIT_OK
    text = svg.read_text()
    assert "inf" not in text and "nan" not in text
    ticks = [float(t.rsplit(">", 1)[1]) for t in text.split("</text>") if 'text-anchor="end"' in t]
    assert len(ticks) == 4 and all(map(math.isfinite, ticks))
    points = text.split('<polyline points="', 1)[1].split('"', 1)[0].split()
    ys = [float(p.split(",")[1]) for p in points]
    # the huge density is drawn inside the frame, the small one on the axis
    assert 30.0 <= ys[0] < ys[1] == 510.0


@pytest.mark.parametrize("density", ["1e308", "1.7976931348623157e308", "1e-300"])
def test_plot_tick_labels_are_short(tmp_path, density):
    table = tmp_path / "t.csv"
    table.write_text(_spectrum_rows(f"1,0.25,0.1,0.1,0.1,0.1,{density},0.1", "2,0.5,0.2,0.2,0.2,0.2,0,0.2"))
    svg = tmp_path / "f.svg"
    assert run(["plot", "--table", str(table), "--out", str(svg)]) == EXIT_OK
    text = svg.read_text()
    labels = [t.rsplit(">", 1)[1] for t in text.split("</text>") if 'text-anchor="end"' in t]
    assert len(labels) == 4
    assert all(math.isfinite(float(s)) and len(s) <= 12 for s in labels), labels
    assert len(set(labels)) == 4


# sha256 of the SVG that plot --table writes for the README grid
README_SVG_SHA256 = "16b151499cb551ab34b60cecd62eaf1b692db8729c05934b76fe687bf377fcfb"


def test_plot_readme_grid_svg_is_frozen(tmp_path):
    table, svg = tmp_path / "spec.csv", tmp_path / "spec.svg"
    assert run(["spectrum", "--grid", "1e-3:100:400", "--out", str(table)]) == EXIT_OK
    assert run(["plot", "--table", str(table), "--out", str(svg)]) == EXIT_OK
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == README_SVG_SHA256


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
    assert np.all(table.F_quad <= 1.0)
    assert np.all(table.f_quad >= 0.0)


def test_reweight_huge_grid_is_nonnegative(tmp_path):
    # the density differences 1 - F out there, which keeps its sign
    out = tmp_path / "rw.csv"
    assert run(["reweight", "--weight", "exp", "--grid", "1:1e300:5", "--out", str(out)]) == EXIT_OK
    rows = [r.split(",") for r in out.read_bytes().decode().split("\r\n")[1:] if r]
    cols = np.array(rows, dtype=float)
    assert cols.shape == (5, 5) and np.all(np.isfinite(cols))
    for j in (2, 4):  # f_quad, f_reweighted
        assert np.all(cols[:, j] >= 0.0)
        assert not np.any(np.signbit(cols[:, j]))


def test_weight_table_accepted(tmp_path):
    good = tmp_path / "w.csv"
    good.write_text("rho,weight\n0.0,1.0\n50.0,0.5\n")
    spec = parse_weight(f"table:{good}")
    assert spec.kind == "table"
    assert spec.weight_of_rho(0.0) == 1.0


def test_weight_table_accepts_quotes_and_blank_lines(tmp_path):
    good = tmp_path / "w.csv"
    good.write_bytes(b'rho,weight\r\n"0.0",1.0\r\n\r\n50.0," 0.5"\r\n')
    spec = parse_weight(f"table:{good}")
    assert spec.rho_grid == (0.0, 50.0)
    assert spec.values == (1.0, 0.5)


def test_empty_weight_table_has_no_data_rows(tmp_path, capsys):
    empty = tmp_path / "w.csv"
    empty.write_text("rho,weight\n\n")
    assert run(["sample", "--n", "10", "--weight", f"table:{empty}"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {empty}: no data rows\n"


def test_undecodable_table_exits_two(tmp_path, capsys):
    bad = tmp_path / "t.csv"
    bad.write_bytes(b"x,\xff\n")
    assert run(["plot", "--table", str(bad)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot read table {bad}: ")


def test_spectrum_table_errors_are_line_numbered(tmp_path, capsys):
    bad = tmp_path / "t.csv"
    bad.write_text("x,oops\n")
    assert run(["plot", "--table", str(bad)]) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err

    bad.write_text(",".join(TABLE_COLUMNS) + "\n" + ",".join(["1.0"] * 7) + "\n")
    assert run(["plot", "--table", str(bad)]) == EXIT_CONFIG
    assert "line 2" in capsys.readouterr().err


def test_streams_is_not_an_option(tmp_path, capsys):
    # sample always splits its draws over 16 substreams
    cfg = tmp_path / "s.cfg"
    cfg.write_text("streams=16\n")
    assert run(["sample", "--n", "10", "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown key 'streams'" in capsys.readouterr().err
    assert run(["sample", "--n", "10", "--streams", "16"]) == EXIT_CONFIG


def test_threads_must_be_positive(capsys):
    assert run(["sample", "--n", "10", "--threads", "0"]) == EXIT_CONFIG
    assert "threads" in capsys.readouterr().err


# values that break each requirement of the option table
BAD_VALUES = {
    ">= 0": ["-1"],
    ">= 1": ["0", "-3"],
}
BAD_OPTIONS = [
    (cmd, name, value)
    for cmd, (_, defaults) in cli.SUBCOMMANDS.items()
    for name in {**cli.COMMON_DEFAULTS, **defaults}
    if cli.OPTIONS[name][2] is not None
    for value in BAD_VALUES[cli.OPTIONS[name][2]]
]


@pytest.mark.parametrize("source", ["flag", "flag=", "config"])
@pytest.mark.parametrize("cmd,name,value", BAD_OPTIONS)
def test_bad_option_value_exits_two(cmd, name, value, source, tmp_path, capsys):
    flag = "--" + name.replace("_", "-")
    if source == "flag":
        args = [cmd, flag, value]
    elif source == "flag=":
        args = [cmd, f"{flag}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name}={value}\n")
        args = [cmd, "--config", str(cfg)]
    assert run(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be {cli.OPTIONS[name][2]}\n"
    assert "Traceback" not in err


def test_readme_option_table_lists_every_requirement():
    lines = (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| option | requirement |") + 2
    documented = {}
    for row in lines[start:]:
        if not row.startswith("|"):
            break
        flags, requirement = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`--(\w+)`", flags):
            documented[name] = requirement
    required = {name: spec[2] for name, spec in cli.OPTIONS.items() if spec[2] is not None}
    assert documented.keys() == required.keys()
    for name, requirement in required.items():
        assert documented[name].endswith(requirement), name


# far beyond any address space, so the allocation is refused before any
# memory is touched
HUGE = str(10**15)


@pytest.mark.parametrize(
    "args",
    [["spectrum", "--grid", f"1e-3:100:{HUGE}"], ["sample", "--n", HUGE], ["moments", "--n", HUGE]],
)
def test_size_too_large_to_allocate_exits_two(args, capsys):
    assert run(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cmd", sorted(cli.SUBCOMMANDS))
def test_subcommand_help_exits_zero(cmd, capsys):
    assert run([cmd, "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: bidisk {cmd} ")


def test_bad_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_subcommand_exits_two(capsys):
    assert run([]) == 2
    capsys.readouterr()
