"""Compare bidisk's CSV floats with csv.writer and repr on many floats.

    python tools/repr_sweep.py N SEED...

For each SEED, N random float64 bit patterns (numpy's default_rng(SEED)),
and once the powers of two and of ten, each with its neighbours one ulp
away, are written as CSV rows of four columns twice: by cli._csv_rows in
chunks of cli.CSV_CHUNK_ROWS rows, and by csv.writer with repr.  Prints,
for each set, the rows whose text differs and the share of the values the
kernel left to repr (cli._shortest), and exits 1 if any row differs.
Run from the root of a checkout; the package is imported from ./src.
"""

from __future__ import annotations

import csv
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from bidisk import cli  # noqa: E402

BLOCK = 1 << 16  # values compared at a time


def powers() -> np.ndarray:
    """The finite powers of two and of ten, and their neighbours one ulp away."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{p}") for p in range(-323, 309)])
    with np.errstate(over="ignore"):
        near = [np.nextafter(v, w) for v in (twos, tens) for w in (-np.inf, np.inf)]
        values = np.concatenate([twos, tens, *near])
    return values[np.isfinite(values)]


def compare(values: np.ndarray) -> tuple[int, int]:
    """The rows of values, four to a row, whose text from cli._csv_rows
    differs from csv.writer's, and the values cli._shortest leaves to repr."""
    differ = left = 0
    for start in range(0, len(values), BLOCK):
        block = values[start : start + BLOCK]
        left += int(np.count_nonzero(~cli._shortest(block)[0]))
        columns = list(np.resize(block, (4, -(-len(block) // 4))))
        rows, step = len(columns[0]), cli.CSV_CHUNK_ROWS
        got = "".join(cli._csv_rows(columns, i, min(i + step, rows)) for i in range(0, rows, step))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows(zip(*(map(repr, c.tolist()) for c in columns)))
        got, want = got.split("\r\n"), buf.getvalue().split("\r\n")
        differ += sum(map(str.__ne__, got, want)) + abs(len(got) - len(want))
    return differ, left


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    n = int(argv[0])
    sets = [("powers of two and ten", powers())]
    for seed in argv[1:]:
        bits = np.random.default_rng(int(seed)).integers(0, 2**64, n, dtype=np.uint64)
        sets.append((f"seed {seed}", bits.view(np.float64)))
    total = 0
    for name, values in sets:
        differ, left = compare(values)
        total += differ
        print(f"{name}: {len(values)} values, {differ} rows differ, {left / len(values):.2e} left to repr")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
