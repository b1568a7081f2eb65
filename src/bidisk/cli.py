"""Command line interface.

Subcommands: spectrum, sample, verify, moments, plot, reweight.  Every
subcommand accepts --seed, --threads, --out and --config; flags take
precedence over config-file values, which take precedence over built-in
defaults.  Config files hold one key=value pair per line (# comments and
blank lines allowed).  One table, OPTIONS, declares each option's type,
accepted values and help for both its flag and its config key.  Every
resolved value, whether from a flag, a config file or a default, must
meet its requirement: --seed >= 0, and --threads and --n >= 1;
a bad one exits 2 with "error: --<flag> must be <requirement>".  When
--json and --out are both given, the JSON goes to --json and the text
to --out, and the two must name different files.

Exit codes: 0 on success (standing discrepancies do not fail a run),
1 when a verification check fails (a finite difference whose step cannot
be certified among them), 2 on configuration or IO errors, which includes
malformed inputs, bad flag values, and sizes too large to allocate.

Output bytes are a pure function of the parsed options: CSV files use
CRLF line endings and repr float formatting, the verification report is
sorted JSON, and sampling splits its draws over 16 substreams
deterministically.
--threads is accepted on every subcommand.  --threads N formats CSV rows
in up to N processes, capped at the usable CPUs and the chunk count, and
the output bytes never change.  The extra processes are forked, which
needs POSIX, and write their rows to temporary files under TMPDIR; a
failure there exits 2.

Each output file is opened once and CSV tables are written in chunks of
CSV_CHUNK_ROWS rows, never held whole as text; a failed write (full disk,
closed stdout) exits 2 and may leave a partial file.  Weight and
spectrum tables share one line-numbered CSV reader, which accepts only
finite values; a spectrum table's x must also be positive.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import signal
import sys
import tempfile
import warnings

import numpy as np

from .spectral import (
    SampleBatch,
    SpectralTable,
    TABLE_COLUMNS,
    WeightSpec,
    mc_mean,
    mc_sample,
    mean_quadrature,
    pdf_quadrature,
    second_moment_growth,
    weighted_mean,
    weighted_truncated_second_moment,
    MEAN_CLAIMED,
    MOMENT_CUTS,
    _reweighted,
)
from .verify import (
    FAIL,
    count_status,
    run_all,
    to_json,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

CSV_CHUNK_ROWS = 4096  # rows per written piece of a CSV table
_COPY_CHARS = 1 << 16  # characters per piece copied from a CSV worker's file


class CliError(Exception):
    """Configuration or IO problem; maps to exit code 2."""


def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# name: (type, accepted values or None for any, the requirement as text, help).
# Flags and config keys both come from here: the option name is the flag
# --name, and a _bool option is a store_true flag.
OPTIONS: dict[str, tuple] = {
    "seed": (int, lambda v: v >= 0, ">= 0", "RNG seed"),
    "threads": (int, lambda v: v >= 1, ">= 1", "CSV formatting processes (output unchanged)"),
    "out": (str, None, None, "output path (default stdout)"),
    "config": (str, None, None, "key=value config file"),
    "grid": (str, None, None, "min:max:points (plot: when no --table)"),
    "linear": (_bool, None, None, "linear grid"),
    "n": (int, lambda v: v >= 1, ">= 1", "sample size (moments: of the MC cross-check)"),
    "weight": (str, None, None, "uniform | exp | gauss | table:PATH"),
    "json": (str, None, None, "write the JSON output here"),
    "table": (str, None, None, "spectrum CSV to plot (else recompute)"),
}

COMMON_DEFAULTS = {"seed": 1729, "threads": 1, "out": None, "config": None}
_GRID = {"grid": "1e-3:100:400", "linear": False}
# subcommand: (help, defaults of its own options)
SUBCOMMANDS: dict[str, tuple[str, dict]] = {
    "spectrum": ("tabulate the distribution and candidates", _GRID),
    "sample": ("Monte Carlo rotation numbers", {"n": 100000, "weight": "uniform"}),
    "verify": ("run the verification report", {"json": None}),
    "moments": ("mean and truncated second moments", {"weight": "uniform", "json": None, "n": 200000}),
    "plot": ("render the density curve as SVG", {"table": None, **_GRID}),
    "reweight": ("tabulate a reweighted density", {"weight": "exp", **_GRID}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidisk",
        description="spectral eigenvalue distribution of the bidisk moment map",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (help_text, defaults) in SUBCOMMANDS.items():
        sp = sub.add_parser(cmd, help=help_text)
        for name in {**COMMON_DEFAULTS, **defaults}:
            kind, _, _, help_line = OPTIONS[name]
            how = {"action": "store_true"} if kind is _bool else {"type": kind}
            sp.add_argument("--" + name, default=argparse.SUPPRESS, help=help_line, **how)
    return parser


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    vals: dict[str, str] = {}
    for i, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise CliError(f"{path}: line {i}: expected key=value, got {s!r}")
        key, _, val = s.partition("=")
        vals[key.strip()] = val.strip()
    return vals


def resolve_options(ns: argparse.Namespace) -> dict:
    """Merge defaults, config file and flags (flags win), then check every
    resolved value against OPTIONS."""
    cmd = ns.command
    given = {k: v for k, v in vars(ns).items() if k != "command"}
    opts = {**COMMON_DEFAULTS, **SUBCOMMANDS[cmd][1]}
    config_path = given.get("config")
    if config_path:
        for key, sval in load_config(config_path).items():
            if key not in opts:
                raise CliError(f"{config_path}: unknown key {key!r} for {cmd!r}")
            try:
                opts[key] = OPTIONS[key][0](sval)
            except ValueError as exc:
                raise CliError(f"{config_path}: bad value for {key!r}: {exc}") from exc
    opts.update(given)
    for key, value in opts.items():
        _, ok, requirement, _ = OPTIONS[key]
        if ok is not None and not ok(value):
            raise CliError(f"--{key} must be {requirement}")
    paths = [opts.get("json"), opts["out"]]
    if None not in paths and len(set(map(os.path.realpath, paths))) == 1:
        raise CliError("--json and --out must name different files")
    return opts


def parse_grid(spec: str, log: bool) -> np.ndarray:
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise CliError(f"grid must be min:max:points, got {spec!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise CliError(f"bad grid {spec!r}: {exc}") from exc
    if not (0.0 < lo < hi < math.inf) or n < 2:
        raise CliError(f"grid needs 0 < min < max < inf and points >= 2, got {spec!r}")
    if log:
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def parse_weight(spec: str) -> WeightSpec:
    spec = str(spec)
    if spec in ("uniform", "exp", "gauss"):
        return WeightSpec(spec)
    if spec.startswith("table:"):
        path = spec[len("table:") :]
        _, (rho, val) = _read_csv(path, ("rho", "weight"), "weight table")
        try:
            return WeightSpec("table", tuple(rho.tolist()), tuple(val.tolist()))
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
    raise CliError(f"unknown weight {spec!r} (use uniform, exp, gauss, table:PATH)")


def _fmt(v: float) -> str:
    return repr(float(v))


def _read_csv(path: str, header: tuple[str, ...], what: str) -> tuple[list[int], list[np.ndarray]]:
    """Line numbers and float columns of the data rows of the CSV file at
    path.  Its first line must be header; blank lines are skipped, every
    other line must hold len(header) finite floats, and errors name the
    line."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != list(header):
        raise CliError(f"{path}: line 1: expected header {','.join(header)!r}")
    lines: list[int] = []
    data: list[list[float]] = []
    for i, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != len(header):
            raise CliError(f"{path}: line {i}: expected {len(header)} columns, got {len(row)}")
        try:
            data.append(list(map(float, row)))
        except ValueError as exc:
            raise CliError(f"{path}: line {i}: {exc}") from exc
        lines.append(i)
    if not data:
        raise CliError(f"{path}: no data rows")
    cells = np.array(data)
    _reject_rows(path, lines, ~np.isfinite(cells).all(axis=1), "values must be finite")
    return lines, list(cells.T)


def _reject_rows(path: str, lines: list[int], bad: np.ndarray, message: str) -> None:
    """CliError naming the line of the first row flagged in bad, if any."""
    if bad.any():
        raise CliError(f"{path}: line {lines[int(bad.argmax())]}: {message}")


def _csv_rows(columns, start: int, stop: int) -> str:
    """CRLF rows start:stop of equal-length float64 columns, repr floats,
    from one join of the cells interleaved with their separators."""
    k, m = len(columns), stop - start
    cells = [","] * (2 * k * m)
    for c, column in enumerate(columns):
        values = column[start:stop]
        bits = values.view(np.uint64)
        if (bits == bits[0]).all():
            # one repr for a column of one bit pattern, such as uniform weights
            cells[2 * c :: 2 * k] = [repr(values[0].item())] * m
        else:
            cells[2 * c :: 2 * k] = map(repr, values.tolist())
    cells[2 * k - 1 :: 2 * k] = ["\r\n"] * m
    return "".join(cells)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else cpu_count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a POSIX system without CPU affinity
        return os.cpu_count() or 1


def _part_bounds(rows: int, workers: int) -> list[tuple[int, int]]:
    """Row ranges of up to `workers` contiguous parts of whole chunks, one
    per process, capped at the usable CPUs and the chunk count."""
    chunks = -(-rows // CSV_CHUNK_ROWS)
    if not hasattr(os, "fork"):
        workers = 1
    workers = max(1, min(workers, _usable_cpus(), chunks))
    cuts = [min(rows, chunks * p // workers * CSV_CHUNK_ROWS) for p in range(workers + 1)]
    return list(zip(cuts, cuts[1:]))


def _fork_part(columns, start: int, stop: int):
    """(pid, file) of a forked child that writes CSV rows start:stop into
    the anonymous temporary file and exits 0, or 1 on any error: the child
    never returns into the caller."""
    tmp = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that numpy's BLAS threads exist; the child
            # runs no BLAS code, only repr, join and writes
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        tmp.close()
        raise
    if pid == 0:
        code = 1
        try:
            for i in range(start, stop, CSV_CHUNK_ROWS):
                tmp.write(_csv_rows(columns, i, min(i + CSV_CHUNK_ROWS, stop)))
            tmp.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, tmp


def _csv_text(header: tuple[str, ...], columns, workers: int = 1):
    """Yield the CSV text of equal-length float64 columns: the header
    line, then CRLF rows of repr floats.  The rows are split into up to
    `workers` parts of whole CSV_CHUNK_ROWS chunks (see _part_bounds).
    This process formats the first part and yields it a chunk a piece; a
    forked child formats each other part into a temporary file, which is
    yielded in pieces of at most _COPY_CHARS characters once the child has
    exited.  The text is the same for every `workers`.  A failed child
    raises CliError, and however the generator ends, every child is
    killed and reaped and every temporary file closed."""
    yield ",".join(header) + "\r\n"
    (start, stop), *rest = _part_bounds(len(columns[0]), workers)
    children: list[tuple[int, object]] = []
    reaped: set[int] = set()
    try:
        try:
            for part in rest:
                children.append(_fork_part(columns, *part))
        except OSError as exc:
            raise CliError(f"cannot start a CSV worker: {exc}") from exc
        for i in range(start, stop, CSV_CHUNK_ROWS):
            yield _csv_rows(columns, i, min(i + CSV_CHUNK_ROWS, stop))
        for pid, tmp in children:
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                raise CliError(f"a CSV worker failed with exit status {code}")
            tmp.seek(0)
            while piece := tmp.read(_COPY_CHARS):
                yield piece
    finally:
        for pid, tmp in children:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            tmp.close()


def _write_text(out, text: str) -> None:
    out.write(text)


def _emit(path: str | None, texts) -> None:
    """Write texts in order to the file at path, opened once, or to stdout
    when path is None, and close texts if it is a generator.  A failed
    write raises CliError and may leave a partial file."""
    try:
        if path is None:
            for text in texts:
                _write_text(sys.stdout, text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                for text in texts:
                    _write_text(fh, text)
    except OSError as exc:
        if path is None:
            # stdout still holds the unwritten text, which the interpreter
            # flushes at exit: send that to the null device, not the dead pipe
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise CliError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc
    finally:
        # a _csv_text generator reaps its workers now, not at garbage collection
        close = getattr(texts, "close", None)
        if close is not None:
            close()


def _grid_from(opts: dict) -> np.ndarray:
    return parse_grid(opts["grid"], not opts["linear"])


def cmd_spectrum(opts: dict) -> int:
    table = SpectralTable.build(_grid_from(opts))
    columns = [getattr(table, c) for c in TABLE_COLUMNS]
    _emit(opts["out"], _csv_text(TABLE_COLUMNS, columns, opts["threads"]))
    return EXIT_OK


def _draws(opts: dict, weight: WeightSpec) -> SampleBatch:
    """mc_sample at opts' n and seed; a batch that cannot be built, such as
    one from a weight table that is zero wherever the draws fall, raises
    CliError."""
    try:
        return mc_sample(opts["n"], opts["seed"], weight)
    except ValueError as exc:
        raise CliError(f"--weight {opts['weight']}: {exc}") from exc


def cmd_sample(opts: dict) -> int:
    weight = parse_weight(opts["weight"])
    batch = _draws(opts, weight)
    columns = (batch.omega, batch.weight)
    _emit(opts["out"], _csv_text(("omega", "weight"), columns, opts["threads"]))
    return EXIT_OK


def cmd_verify(opts: dict) -> int:
    report = run_all(opts["seed"])
    text = to_json(report)
    json_path = opts["json"] or opts["out"]
    if json_path:
        _emit(json_path, [text])
        text = "".join(f"{name}: {report[name]['status']}\n" for name in sorted(report)) + (
            f"pass={count_status(report, 'pass')} "
            f"discrepancy={count_status(report, 'discrepancy')} "
            f"fail={count_status(report, 'fail')}\n"
        )
    _emit(opts["out"] if opts["json"] else None, [text])
    if count_status(report, FAIL) > 0:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_moments(opts: dict) -> int:
    weight = parse_weight(opts["weight"])
    out: dict = {"weight": weight.kind, "cuts": list(MOMENT_CUTS)}
    m_mc, se_mc = mc_mean(_draws(opts, weight))
    out["mean_mc"] = m_mc
    out["mc_stderr"] = se_mc
    out["mc_n"] = opts["n"]
    if weight.kind == "uniform":
        mean_q, bound = mean_quadrature()
        e2, ratio, model_ratio, pure_ratio = second_moment_growth()
        out.update(
            {
                "mean_quadrature": mean_q,
                "mean_bound": bound,
                "claimed_mean": MEAN_CLAIMED,
                "E2_truncated": e2,
                "increment_ratio": ratio,
                "model_ratio": model_ratio,
                "pure_log2_ratio": pure_ratio,
            }
        )
    else:
        mean_q = weighted_mean(weight)
        e2 = [weighted_truncated_second_moment(weight, c) for c in MOMENT_CUTS]
        out.update({"mean_quadrature": mean_q, "E2_truncated": e2})
    lines = [f"weight = {weight.kind}"]
    lines.append(f"mean_quadrature = {_fmt(out['mean_quadrature'])}")
    lines.append(f"mean_mc = {_fmt(m_mc)} (stderr {_fmt(se_mc)}, n={opts['n']})")
    for cut, v in zip(MOMENT_CUTS, out["E2_truncated"]):
        lines.append(f"E2[{cut:g}] = {_fmt(v)}")
    if weight.kind == "uniform":
        lines.append(
            f"increment_ratio = {_fmt(out['increment_ratio'])} "
            f"(tail model {_fmt(out['model_ratio'])}, "
            f"pure log^2 {_fmt(out['pure_log2_ratio'])})"
        )
        lines.append(
            f"claimed_mean = {_fmt(MEAN_CLAIMED)} "
            f"(measured {_fmt(out['mean_quadrature'])}: discrepancy)"
        )
    text = "\n".join(lines) + "\n"
    if opts["json"]:
        _emit(opts["json"], [json.dumps(out, sort_keys=True, indent=2) + "\n"])
    _emit(opts["out"], [text])
    return EXIT_OK


def read_spectrum_csv(path: str) -> SpectralTable:
    lines, columns = _read_csv(path, TABLE_COLUMNS, "table")
    _reject_rows(path, lines, columns[0] <= 0.0, "x must be positive")
    # equal neighbours stay: a tight geomspace grid can repeat a value
    _reject_rows(path, lines, np.diff(columns[0], prepend=0.0) < 0.0, "x must not decrease")
    return SpectralTable(*columns)


def render_spectrum_svg(table: SpectralTable) -> str:
    width, height = 880, 560
    ml, mr, mt, mb = 70.0, 20.0, 30.0, 50.0
    lx = np.log10(table.x)
    x0, x1 = float(lx[0]), float(lx[-1])
    if x1 <= x0:
        x1 = x0 + 1.0
    ymax = float(np.max(table.f_quad))
    # the headroom above a density near the largest double stays finite
    y1 = min(ymax * 1.06, sys.float_info.max) if ymax > 0 else 1.0

    def px(v: float) -> float:
        return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - v / y1 * (height - mt - mb)

    def line(x1: float, y1: float, x2: float, y2: float) -> str:
        return (
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )

    def text(x: float, y: float, size: int, body: str, anchor: str | None = None) -> str:
        at = f' text-anchor="{anchor}"' if anchor else ""
        return f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}"{at}>{body}</text>'

    y0 = py(0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        line(ml, y0, width - mr, y0),
        line(ml, y0, ml, mt),
    ]
    for d in range(math.ceil(x0), math.floor(x1) + 1):
        xp = px(float(d))
        parts.append(line(xp, y0, xp, y0 + 6))
        parts.append(text(xp, y0 + 20, 12, f"1e{d}", "middle"))
    for k in range(1, 5):
        yv = y1 / 5.0 * k
        yp = py(yv)
        # fixed point keeps >= 3 digits and <= 12 characters in this range
        label = f"{yv:.4f}" if 1e-2 <= yv < 1e7 else f"{yv:.4g}"
        parts.append(line(ml - 6, yp, ml, yp))
        parts.append(text(ml - 10, yp + 4, 12, label, "end"))
    pts = " ".join(
        f"{px(float(v)):.2f},{py(float(fv)):.2f}"
        for v, fv in zip(lx, table.f_quad)
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    parts.append(text((ml + width - mr) / 2, height - 12, 13, "x (log scale)", "middle"))
    parts.append(text(ml, mt - 10, 13, "spectral density f_quad"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(opts: dict) -> int:
    if opts["table"]:
        table = read_spectrum_csv(opts["table"])
    else:
        table = SpectralTable.build(_grid_from(opts))
    _emit(opts["out"], [render_spectrum_svg(table)])
    return EXIT_OK


def cmd_reweight(opts: dict) -> int:
    weight = parse_weight(opts["weight"])
    x = _grid_from(opts)
    header = ("x", "x_tilde", "f_quad", "weight", "f_reweighted")
    f_quad, w = pdf_quadrature(x), weight.weight_of_omega(x)
    try:
        f_rw = _reweighted(weight, f_quad, w)
    except ValueError as exc:
        # a weight table that is zero wherever the distribution has mass
        raise CliError(f"--weight {opts['weight']}: {exc}") from exc
    _emit(opts["out"], _csv_text(header, (x, x / 4.0, f_quad, w, f_rw), opts["threads"]))
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "moments": cmd_moments,
    "plot": cmd_plot,
    "reweight": cmd_reweight,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        opts = resolve_options(ns)
        return _COMMANDS[ns.command](opts)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:
        # numpy refuses an array far beyond memory at once: a bad size
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return EXIT_CONFIG
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize None to 0
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
