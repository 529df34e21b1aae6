"""Parameter grids of the three workloads and the seeded job-list draw.

A job is one ``python -m superjacobi.cli <argv>`` process; its key is the
argv joined by single spaces, and the reference table is keyed by it.

Each workload's grid is split into strata of similar cost at this commit.
A job list is a whole number of rounds; a round draws a fixed count of jobs
from every stratum.  So every seed gives a list of about the same cost and
the same shape, and what the seed varies is which grid points are drawn
and in which order.  That keeps run-to-run spread down to the host's own
noise, which is what the end-to-end bounds have to absorb.
"""

from __future__ import annotations

import random


def _ramanujan(pairs):
    return [f"ramanujan --order {o} --max-k {k}" for o, k in pairs]


def _char(u, labels, orders):
    return [f"char --u {u} --j {j} --k {k} --order {o}{n}"
            for j, k in labels for o in orders for n in ("", " --normalized")]


def _char_labels(u):
    """j = 0 labels (real denominators) and j > 0 labels of level u."""
    return sorted({(0, 1), (0, u - 1), (1, 1), (u - 2, 1)})


def _probe(points):
    return [f"jacobi-test --u {u} --gen {g} --order 14 --tol 1e-6 --seed 7"
            for u, g in points]


def _bracket_pairs():
    return [f"bracket {f1} {i1} {f2} {i2}" for f1 in "LJHQC" for f2 in "LJHQC"
            for i1, i2 in ((2, -1), (-1, 2), (0, 0), (3, -3))]


# Each workload is a list of strata: (name, jobs drawn per round, grid points).
# A stratum holds points of about the same cost at this commit.  The counts
# put the median job deep inside the cheapest stratum, and the tail job (the
# eleventh slowest, see stats.tail_index) in the middle of a dozen or more
# jobs that cost about twice as much, so that a job slowed by the host
# decides neither.
STRATA: dict[str, list[tuple[str, int, list[str]]]] = {
    "qseries-identities": [
        ("ramanujan-2.5s", 1, _ramanujan([(40, 4), (60, 3)])),
        ("ode-1.5s", 1, _ramanujan([(40, 3), (60, 1)])
         + ["wp-pde --z-order 8 --order 60"]),
        ("ode-0.9s", 2, _ramanujan([(30, 2), (40, 2), (20, 4), (30, 3), (40, 1),
                                    (20, 3)])
         + ["wp-pde --z-order 6 --order 60", "wp-pde --z-order 8 --order 40"]),
        ("ode-0.55s", 14, _ramanujan([(20, 2), (30, 1)])
         + [f"wp-pde --z-order {z} --order {o}" for z, o in ((6, 40), (4, 60))]),
        ("light", 28, [f"eisenstein --k {k} --order {o}{g}"
                       for k in range(1, 7) for o in (12, 100, 400)
                       for g in ("", " --ghat")]
         + [f"xi-shift --order {o}" for o in (40, 100, 200, 400)]
         + [f"xi-zetabar --t-order {t} --order {o}"
            for t in (4, 8) for o in (20, 30, 60)]
         + [f"wp-pde --z-order {z} --order 20" for z in (4, 6, 8)]
         + ["wp-pde --z-order 4 --order 40"] + _ramanujan([(20, 1)])),
    ],
    "characters-probes": [
        ("char-40-j0", 2, [j for u in (3, 4, 5, 6)
                           for j in _char(u, [(0, 1), (0, u - 1)], (40,))]),
        ("char-40-j>0", 2, [j for u in (3, 4, 5, 6)
                            for j in _char(u, sorted({(1, 1), (u - 2, 1)}), (40,))]),
        ("flow-u5", 10, [f"flow --u 5 --m {m}" for m in (-2, -1, 1, 2)]),
        ("probe-0.5s", 2, _probe([(4, g) for g in ("x10", "x01", "S", "T")]
                                 + [(5, g) for g in ("x10", "x01", "S", "T")])),
        ("char-20-flow", 2, [j for u in (3, 4, 5, 6)
                             for j in _char(u, _char_labels(u), (20,))]
         + [f"flow --u {u} --m {m}" for u in (3, 4) for m in (-2, -1, 1, 2)]),
        ("light", 26, [j for u in (3, 4, 5, 6)
                       for j in _char(u, _char_labels(u), (8,))]
         + [f"spectrum --u {u}" for u in range(2, 9)]
         + [f"zetabar-table --what {w} --points {p} --tau-im {t}"
            for w in ("zetabar", "wp") for p in (5, 20) for t in (1.0, 1.1)]
         + _probe([(u, g) for u in (2, 3) for g in ("x10", "x01", "S", "T")])),
    ],
    "bracket-sweep": [
        *[(f"jacobi-identity-{m}", 1, [f"jacobi-identity --max {m}"])
          for m in (6, 4, 2)],
        ("realization-m5", 10, [f"realization-check --max 5 --window {w}"
                                for w in (12, 16)]),
        ("realization-m4", 2, [f"realization-check --max 4 --window {w}"
                               for w in (10, 16)]),
        ("realization-m2-3", 1, [f"realization-check --max {m} --window {w}"
                                 for m in (2, 3) for w in (2 * m + 2, 16)]),
        ("bracket", 24, _bracket_pairs()),
    ],
}

# Grid points that are checked against the reference (reference.py) but not
# drawn: adding them to a round would make it longer than a run, or leave
# too few jobs for a steady median and tail.
REFERENCE_ONLY = {"qseries-identities": _ramanujan([(100, 4)]),
                  "bracket-sweep": [f"jacobi-identity --max {m}" for m in (3, 5)]}

WORKLOADS = tuple(STRATA)


def grid(workload: str) -> list[str]:
    """Every grid point of a workload, in a fixed order."""
    return [job for _, _, jobs in STRATA[workload] for job in jobs] \
        + REFERENCE_ONLY.get(workload, [])


def all_points() -> list[str]:
    return [job for w in WORKLOADS for job in grid(w)]


def round_cost(workload: str, ref_seconds: dict[str, float]) -> float:
    """Expected seconds of one round, from the reference run's job times."""
    return sum(count * sum(ref_seconds[j] for j in jobs) / len(jobs)
               for _, count, jobs in STRATA[workload])


def job_list(workload: str, seed: int, seconds: float,
             ref_seconds: dict[str, float]) -> list[str]:
    """The seeded job list: as many rounds as fill ``seconds`` at reference
    speed (at least one), shuffled.  The same arguments give the same list."""
    rng = random.Random(f"{workload}/{seed}")
    rounds = max(1, round(seconds / round_cost(workload, ref_seconds)))
    jobs = [rng.choice(points)
            for _ in range(rounds)
            for _, count, points in STRATA[workload]
            for _ in range(count)]
    rng.shuffle(jobs)
    return jobs
