#!/usr/bin/env python3
"""Entanglement of the C-NOT evolution seen through different TPSs.

Profiles the same trajectory under the computational basis, the closed-form
disentangling basis, the generator's eigenbasis, and a few random bases;
writes one CSV per basis (plot-ready) and prints the sup-over-time summary.

Usage: python scripts/entanglement_sweep.py [outdir]   (default: ./sweep)
"""

import argparse
from pathlib import Path

import numpy as np

from tpslab import fixtures
from tpslab.core import TPSpec
from tpslab.entanglement import entanglement_profile
from tpslab.fileio import profile_to_csv
from tpslab.linalg import haar_unitary
from tpslab.trajectory import sample


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "outdir", nargs="?", type=Path, default=Path("sweep"), help="default: ./sweep"
    )
    outdir = parser.parse_args().outdir
    outdir.mkdir(parents=True, exist_ok=True)
    dims = fixtures.QBIT_PAIR
    sampled = sample(fixtures.cnot_trajectory(), 400)

    bases = {
        "computational": TPSpec.identity(dims),
        "disentangling": fixtures.cnot_disentangler(),
        "eigenbasis": fixtures.cnot_eigenbasis(),
    }
    rng = np.random.default_rng(0)
    for k in range(3):
        bases[f"random-{k}"] = TPSpec(haar_unitary(dims.n, rng), dims)

    print(f"{'basis':15s} {'max entropy':>12s} {'max distance':>13s}")
    for name, tps in bases.items():
        profile = entanglement_profile(sampled, tps)
        (outdir / f"{name}.csv").write_text(profile_to_csv(profile))
        print(f"{name:15s} {profile.max_entropy:12.3e} {profile.max_distance:13.3e}")
    print(f"\nprofiles written to {outdir}/")


if __name__ == "__main__":
    main()
