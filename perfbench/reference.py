"""Regenerate the reference table and diff it against the stored one.

    python3 perfbench/reference.py [--write]

Every grid point is run once in a fresh process.  Without ``--write`` the
fresh table is compared with ``perfbench/reference.json`` and the command
exits 1 on any difference in exit status or output; timings are not
compared.  ``--write`` stores the fresh table instead.
"""

from __future__ import annotations

import argparse
import json
import sys

import grid
import jobs

TOLERANCE = {"rel": 1e-6, "abs": 1e-9}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    jobs.require_program()
    points = grid.all_points()
    stored = {} if args.write else jobs.load_reference()
    fresh, diffs = {}, 0
    for i, key in enumerate(points, 1):
        res = jobs.run_job(key)
        fresh[key] = jobs.record(res)
        why = None if args.write else jobs.mismatch(
            res, stored["jobs"][key], stored["tolerance"])
        diffs += why is not None
        print(f"[{i}/{len(points)}] {res.wall_s:7.3f}s exit {res.exit} "
              f"{key}{'  MISMATCH: ' + why if why else ''}", flush=True)
    if args.write:
        with open(jobs.REFERENCE, "w") as fh:
            json.dump({"tolerance": TOLERANCE, "jobs": fresh}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(fresh)} entries to {jobs.REFERENCE}")
        return 0
    print(f"{diffs} of {len(points)} grid points differ from the reference")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
