"""Run every workload once and print one row per workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]
                                [--workloads suite,scale,cli,daemon]

Each row holds every end-to-end metric (or, with ``--trace``, every
per-layer metric) of one workload, headed by its name and unit, plus
the workload's error rate. The header records the seed, ``nproc``, the
Python version and the package's ``PIPELINE_VERSION``. Exits 1 when
any workload's correctness checks failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workloads", default="suite,scale,cli,daemon")
    opts = parser.parse_args(argv)

    rows = []
    header = ""
    ok = True
    for workload in opts.workloads.split(","):
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(opts.seed),
                "--seconds", f"{opts.seconds:g}",
                "--trace", "1" if opts.trace else "0",
            ],
            capture_output=True,
            text=True,
            cwd=HERE.parent,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"error: {workload} run failed", file=sys.stderr)
            return 2
        header = lines[0].split(f"workload={workload} ", 1)[1]
        header = header.split(" calibration=")[0]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for line in lines[1:-1]:
            if line.startswith("  FAILED"):
                print(f"{workload}: {line.strip()}", file=sys.stderr)
        rows.append((workload, result))

    names = list(rows[0][1]["metrics"])
    print(f"perfbench {header}")
    cells = [["workload"] + [
        f"{n} [{rows[0][1]['metrics'][n]['unit']}]" for n in names
    ] + ["error_rate"]]
    for workload, result in rows:
        metrics = result["metrics"]
        cells.append(
            [workload]
            + [f"{metrics[n]['value']:.6g}" if n in metrics else "-"
               for n in names]
            + [f"{result['failed']}/{result['attempted']}"]
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    for row in cells:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
