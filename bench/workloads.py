"""The benchmark's three workloads.

An operation is one optimisation run: one algorithm, one seed.  A round is
the fixed set of operations a workload makes; the harness repeats whole
rounds.  The optimisation seeds are fixed so that `cum_regret` and
`best_gap` compare code, not luck (see README.md); `--seed` only sets the
order in which a round's operations run.
"""

from __future__ import annotations

import random

# Settings shared by every workload; they are the defaults of `hubo run`.
COMMON = {
    "fraction": 0.2,  # X0 side as a fraction of the domain side
    "alpha": -1.0,
    "delta": 0.1,
    "s1": 1.0,
    "s2": 1.0,
    "restarts": 20,
    "max_evals": 1000,
    "l_h_fraction": 0.1,  # cube side as a fraction of the X0 side
}

WORKLOADS = {
    "hubo-ackley2-t150": {
        "kind": "driver",
        "benchmark": "ackley",
        "dim": 2,
        "algorithm": "hubo",
        "budget": 150,
        "kernel": "se",
        "noise_std": 0.0,
        "seeds": [0, 1, 2],
    },
    "hdhubo-ackley10-t100": {
        "kind": "driver",
        "benchmark": "ackley",
        "dim": 10,
        "algorithm": "hdhubo",
        "budget": 100,
        "kernel": "se",
        "noise_std": 0.0,
        "lam": 1.0,
        "n0": 1,
        "seeds": [0, 1],
    },
    "cli-hartmann6-mixed": {
        "kind": "cli",
        "benchmark": "hartmann6",
        "dim": 6,
        "algorithms": ["hubo", "vol2", "random"],
        "budget": 60,
        "kernel": "matern52",
        "noise_std": 0.01,
        "repeats": 3,
        "workers": 2,
        "seed": 0,
    },
}


def round_plan(name: str, seed: int) -> list[dict]:
    """The processes one round launches, in the order `seed` gives them.

    A driver workload runs each optimisation seed in its own process; the
    CLI workload is one `hubo run` whose BO algorithms are listed in a
    seed-given order (random search stays last), which changes the order of
    the tasks handed to the process pool but not their results.
    """
    wl = WORKLOADS[name]
    rng = random.Random(seed)
    if wl["kind"] == "driver":
        seeds = list(wl["seeds"])
        rng.shuffle(seeds)
        return [{"workload": name, "seed": s} for s in seeds]
    bo = [a for a in wl["algorithms"] if a != "random"]
    rng.shuffle(bo)
    rest = [a for a in wl["algorithms"] if a == "random"]
    return [{"workload": name, "algorithms": bo + rest}]


def operations_per_round(name: str) -> int:
    wl = WORKLOADS[name]
    if wl["kind"] == "driver":
        return len(wl["seeds"])
    return len(wl["algorithms"]) * wl["repeats"]
