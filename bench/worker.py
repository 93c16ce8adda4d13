"""pair-large worker: score one cloud pair in-process and time each call.

    python3 worker.py REF DEG BIT_DEPTH SECONDS OUT [COUNTS]

Each round scores the pair by D1 (``psnr`` po2po/precision), then by D2
(``ra_psnr`` po2pl/ra-apdk, k=10), then by D1 again, so that the short D1
calls sample the whole round.  Another round starts only while a round
of the average length so far still ends within SECONDS.  OUT receives
the wall time of every call and round, and the results of the first round.  With
COUNTS given, work counters are installed and exactly one round runs.
"""

import json
import sys
import time

import counting


def main(ref_path, deg_path, bit_depth, seconds, out_path, counts_path=None):
    counts = None
    if counts_path is not None:
        counts = counting.Counts()
        counting.install(counts)
    from pcqa import ErrorKind, PeakSpec, psnr, ra_psnr, read_ply

    if counts is not None:
        counting.wrap_normals(counts)

    ref = read_ply(ref_path).with_bit_depth(int(bit_depth))
    deg = read_ply(deg_path)
    calls = {
        "d1": lambda: psnr(ref, deg, ErrorKind.PO2PO, PeakSpec.precision()),
        "d2": lambda: ra_psnr(ref, deg, ErrorKind.PO2PL),
    }
    times = {name: [] for name in calls}
    round_s = []
    first = {}
    stable = True
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        round_start = time.perf_counter()
        for name in ("d1", "d2", "d1"):
            t0 = time.perf_counter()
            result = calls[name]().to_dict()
            times[name].append(time.perf_counter() - t0)
            if name not in first:
                first[name] = result
            stable = stable and result == first[name]
        round_s.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if counts is not None or elapsed * (rounds + 1) / rounds > float(seconds):
            break
    if counts is not None:
        counts.dump(counts_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"times": times, "round_s": round_s, "results": first, "stable": stable}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
