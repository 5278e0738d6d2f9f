#!/usr/bin/env python3
"""Write the bundled reference objects as JSON input files for the CLI.

Usage: python scripts/make_inputs.py [outdir]   (default: ./inputs)
"""

import argparse
from pathlib import Path

from tpslab import fixtures
from tpslab.fileio import save_matrix_document, save_trajectory


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "outdir", nargs="?", type=Path, default=Path("inputs"), help="default: ./inputs"
    )
    outdir = parser.parse_args().outdir
    outdir.mkdir(parents=True, exist_ok=True)
    save_trajectory(fixtures.cnot_trajectory(), outdir / "cnot.json")
    save_trajectory(fixtures.cnot_evolution(), outdir / "cnot_evolution.json")
    save_trajectory(fixtures.sidon_trajectory(), outdir / "sidon.json")
    save_trajectory(fixtures.lowdim_trajectory(), outdir / "lowdim.json")
    dims = fixtures.QBIT_PAIR
    save_matrix_document(
        fixtures.cnot_disentangler().basis_change, dims, outdir / "disentangler.json"
    )
    save_matrix_document(
        fixtures.cnot_eigenbasis().basis_change, dims, outdir / "eigenbasis.json"
    )
    save_matrix_document(fixtures.cnot_hamiltonian(), dims, outdir / "h_cnot.json")
    for p in sorted(outdir.iterdir()):
        print(p)


if __name__ == "__main__":
    main()
