#!/usr/bin/env python3
"""Certificates versus numerical search, side by side.

For each bundled trajectory: run the obstruction certificate, then the TPS
search, and print how the certified verdict lines up with the reachable
worst-case product distance (the certified trajectory keeps a macroscopic
floor; the constructively disentanglable one is driven to numerical zero).

Usage: python scripts/search_demo.py [--restarts N] [--seed S]
"""

import argparse

from tpslab import fixtures
from tpslab.obstruction import certify_no_disentangling
from tpslab.optimizer import OptimizerConfig, optimize_tps


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--restarts", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    trajectories = {
        "cnot": fixtures.cnot_trajectory(),
        "sidon": fixtures.sidon_trajectory(),
        "lowdim": fixtures.lowdim_trajectory(),
    }
    print(f"{'trajectory':10s} {'verdict':30s} {'gram rank':>9s} {'search objective':>17s}")
    for name, traj in trajectories.items():
        cert = certify_no_disentangling(traj)
        result = optimize_tps(traj, OptimizerConfig(restarts=args.restarts, seed=args.seed))
        rank = f"{cert.numerical_rank}/{cert.full_rank}"
        print(f"{name:10s} {cert.verdict.value:30s} {rank:>9s} {result.objective:17.3e}")


if __name__ == "__main__":
    main()
