#!/usr/bin/env python3
"""Nue routing-quality grid: escape fallbacks, Γ_max/Γ_avg and max path.

Runs `nue_route --routing nue` over a fixed grid of fabrics, seeded link
fault sets and VL budgets (8 fabrics x 5 fault seeds x 4 budgets = 160
instances) and prints, per (fabric, k), the fallbacks summed over the
fault seeds and the geometric means of Γ_max/Γ_avg (edge forwarding
index) and of the max path length; then the same three figures per k
over all fabrics ("all" rows) and over the whole grid ("all all"). The
tables are deterministic, so the numbers are exact.

Given a second binary (`--base`), it runs the grid with both and prints
each row of the first against the second as ratios (first / base): a
table change that did no harm reads <= 1.00 on every "all" row, per k
as well as in total; a better total can hide a worse k.

    scripts/quality_grid.py build/tools/nue_route
    scripts/quality_grid.py new/nue_route --base old/nue_route --jobs 2
"""
import argparse
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

FABRICS = [
    "torus:8x8x8:4",
    "torus:6x5x5:4",
    "torus:4x4x4:2",
    "fattree:8:3",
    "dragonfly:4:2:2:9",
    "kautz:3:4:3",
    "random:125:500:8:1",
    "torus:6x6x6:2",
]
FAULT_SEEDS = [1, 2, 3, 4, 5]
FAIL_LINKS = 6
VLS = [1, 2, 4, 8]

FALLBACKS = re.compile(r"\(fallbacks: (\d+)\)")
PATH = re.compile(r"avg path [0-9.e+-]+, max (\d+)\)")
GAMMA = re.compile(
    r"edge forwarding index: min \S+ avg ([0-9.e+-]+) max ([0-9.e+-]+)")


def run_one(binary, fabric, seed, vls):
    cmd = [binary, "--generate", fabric, "--routing", "nue",
           "--vls", str(vls), "--fail-links", str(FAIL_LINKS),
           "--fault-seed", str(seed), "--threads", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    text = out.stdout
    fb, path, gamma = (FALLBACKS.search(text), PATH.search(text),
                       GAMMA.search(text))
    if out.returncode != 0 or not (fb and path and gamma):
        sys.exit(f"{' '.join(cmd)} failed (exit {out.returncode}):\n"
                 f"{text}{out.stderr}")
    g_avg, g_max = float(gamma.group(1)), float(gamma.group(2))
    return {"fallbacks": int(fb.group(1)), "max_path": int(path.group(1)),
            "gamma_ratio": g_max / g_avg}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_grid(binary, jobs):
    keys = [(f, k, s) for f in FABRICS for k in VLS for s in FAULT_SEEDS]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = pool.map(lambda key: run_one(binary, key[0], key[2],
                                               key[1]), keys)
        return dict(zip(keys, results))


def aggregate(runs):
    return {
        "fallbacks": sum(r["fallbacks"] for r in runs),
        "gamma_ratio": geomean([r["gamma_ratio"] for r in runs]),
        "max_path": geomean([r["max_path"] for r in runs]),
    }


def summarize(grid):
    """Rows keyed (fabric, k): one per pair, then ("all", k) over every
    fabric for each k, then ("all", "all") for the whole grid."""
    rows = {(f, k): aggregate([grid[(f, k, s)] for s in FAULT_SEEDS])
            for f in FABRICS for k in VLS}
    for k in VLS:
        rows[("all", k)] = aggregate([r for key, r in grid.items()
                                      if key[1] == k])
    rows[("all", "all")] = aggregate(list(grid.values()))
    return rows


def ratio(a, b):
    return f"{a / b:.3f}" if b else ("1.000" if a == b else "inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary", help="nue_route binary to measure")
    ap.add_argument("--base", help="second nue_route binary to compare with")
    ap.add_argument("--jobs", type=int, default=2,
                    help="nue_route processes at once (default 2)")
    args = ap.parse_args()

    rows = summarize(run_grid(args.binary, args.jobs))
    base = summarize(run_grid(args.base, args.jobs)) if args.base else None

    header = f"{'fabric':<20} {'k':>3} {'fallbacks':>9} " \
             f"{'Gmax/Gavg':>9} {'max path':>8}"
    if base:
        header += "   base: fallbacks Gmax/Gavg max path" \
                  "   ratio: fallbacks Gmax/Gavg max path"
    print(header)
    for (f, k), r in rows.items():
        if (f, k) == ("all", VLS[0]):
            print()
        line = f"{f:<20} {k:>3} {r['fallbacks']:>9} " \
               f"{r['gamma_ratio']:>9.3f} {r['max_path']:>8.2f}"
        if base:
            b = base[(f, k)]
            line += f"   {b['fallbacks']:>15} {b['gamma_ratio']:>9.3f} " \
                    f"{b['max_path']:>8.2f}   " \
                    f"{ratio(r['fallbacks'], b['fallbacks']):>16} " \
                    f"{ratio(r['gamma_ratio'], b['gamma_ratio']):>9} " \
                    f"{ratio(r['max_path'], b['max_path']):>8}"
        print(line)


if __name__ == "__main__":
    main()
