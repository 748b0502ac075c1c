"""The benchmark's workloads: parametric chains built from a seed.

Every workload is a list of chains.  The first chain is the reference
chain: the instance ROADMAP's Baseline measured, with the parameters
given there and returns/samples drawn from generator seed 0.  It holds
the known warm-start failures, so they show in every run whatever the
seed.  The remaining chains use the same data with the swept parameter
moved by up to ``JITTER`` (relative), drawn from the run's seed.  The
failures are knife-edge (moving r0 by 0.1% makes the rebalance one
vanish), so drawing fresh data per seed would make the failure count,
and with it every warm metric, jump from seed to seed.

Generators are looked up as attributes of the ``problems`` module at
call time, so the tracer can wrap them.
"""

from dataclasses import dataclass
from typing import Callable

JITTER = 0.05
R0 = 5e-4


def _jittered(rng, values):
    return [v * (1.0 + JITTER * rng.uniform(-1.0, 1.0)) for v in values]


def svm_chains(problems, rng, samples=480, features=10, seeded=2):
    """SVM-L1 lambda sweeps; each instance is an LP with one nonneg block."""
    data = problems.synth_samples(samples, features, seed=0)
    sweeps = [(0.01, 0.02)] + [sorted(_jittered(rng, (0.05, 0.1, 0.2))) for _ in range(seeded)]
    return [[problems.gen_svm_l1(data, lam) for lam in lams] for lams in sweeps]


def rebalance_chains(problems, rng, assets=50, window=191, members=4, seeded=7):
    """Rolling-window minimum-variance rebalances; zero, nonneg and SOC blocks."""
    returns = problems.synth_returns(assets, members - 1 + window, 0)
    targets = [R0] + _jittered(rng, [R0] * seeded)
    return [
        [problems.gen_portfolio(returns.window(k, window), r0) for k in range(members)]
        for r0 in targets
    ]


def hmcr_chains(problems, rng, assets=20, window=40, members=4, seeded=1, p=3.0):
    """Rolling-window HMCR portfolios; one 3-dimensional power block per day."""
    returns = problems.synth_returns(assets, members - 1 + window, 0)
    alphas = [0.9] + _jittered(rng, [0.9] * seeded)
    return [
        [problems.gen_hmcr(returns.window(k, window), R0, p, a) for k in range(members)]
        for a in alphas
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable
    tiny: dict  # sizes for the benchmark's own smoke tests
    lp_reference: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "svm-l1-lp",
            "SVM-L1 LPs, 480 samples, lambda 0.01-0.2: dense H^-1 block_diag and bmat "
            "dominate (ROADMAP item 2); cones and smoothing bypassed; checked against HiGHS",
            svm_chains,
            tiny={"samples": 40, "features": 4, "seeded": 1},
            lp_reference=True,
        ),
        Workload(
            "hmcr-pow",
            "HMCR with 40 power blocks: conjugate-gradient proximity and Newton smoothing "
            "dominate (ROADMAP item 4), KKT is small; warm starts slower than cold today",
            hmcr_chains,
            tiny={"assets": 6, "window": 12, "members": 3},
        ),
        Workload(
            "rebalance-soc",
            "Portfolio rebalance with a 51-dim SOC block: cheap iterations, a warm pair "
            "ending in NumericalError (ROADMAP item 3); small-instance side of KKT changes",
            rebalance_chains,
            tiny={"assets": 6, "window": 30, "members": 3, "seeded": 1},
        ),
    )
}
