"""Run the pcqa command line with work counters installed.

    python3 traced_cli.py COUNTS_FILE [pcqa arguments...]

Behaves like ``python3 -m pcqa`` and appends this process's counts to
COUNTS_FILE as one JSON line when the command ends.
"""

import sys

import counting

if __name__ == "__main__":
    counts = counting.Counts()
    counting.install(counts)
    from pcqa.cli import main

    counting.wrap_normals(counts)
    try:
        code = main(sys.argv[2:])
    finally:
        counts.dump(sys.argv[1])
    sys.exit(code)
