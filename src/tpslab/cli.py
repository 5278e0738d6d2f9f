"""Command-line front door.

Subcommands::

    tpslab profile    --input traj.json [--tps tps.json] [--samples N] [--format json|csv]
    tpslab certify    --input traj.json [--samples N] [--rank-tol X]
    tpslab construct  --input traj.json [--tol X]
    tpslab hamiltonian --input op.json [--tps tps.json]
    tpslab optimize   --input traj.json [--seed S] [--restarts R] [--samples N]
    tpslab reproduce  [--list]

Each `cmd_*` handler maps the parsed arguments to its results; `report` wraps
them in the one-line JSON report every command but `reproduce` emits (sha256
of the --input and --tps files, `parameters` = every option but --input and
--output, results, versions, wall time), or emits `profile --format csv`'s CSV.
Exit codes: 0 success, 1 reproduction-check failure, 2 input or configuration
error, 3 dimension or validity error, 4 unsupported form.  Any other
exception, a bare `ValueError` included, is a fault of the program and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import cache
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__, reproduce
from .construct import ConstructConfig, construct_disentangler
from .core import HilbertDims, TPSpec
from .entanglement import entanglement_profile
from .errors import (
    DimensionMismatch,
    InvalidInput,
    NotHermitian,
    NotNormalizable,
    NotUnitary,
    TooFewSamples,
    UnsupportedForm,
)
from .fileio import (
    ParseError,
    complex_out,
    load_matrix_document,
    load_tps,
    load_trajectory,
    profile_to_csv,
)
from .hamiltonian import (
    rebase_operator,
    separable_projection,
    stationarity_gradient,
)
from .obstruction import DEFAULT_CERTIFY_SAMPLES, DEFAULT_RANK_TOL, certify_no_disentangling
from .optimizer import DEFAULT_OPTIMIZE_SAMPLES, OptimizerConfig, optimize_tps
from .trajectory import sample

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_VALIDITY_ERROR = 3
EXIT_UNSUPPORTED = 4

# parsed-argument names that are not recorded as report parameters
_NOT_PARAMETERS = ("command", "handler", "input", "output", "inputs")


def _read(args, name: str) -> bytes:
    """The bytes of file option `name`, read once; their sha256 goes to args.inputs."""
    data = Path(getattr(args, name)).read_bytes()
    args.inputs[name] = {"path": getattr(args, name), "sha256": sha256(data).hexdigest()}
    return data


def _load_tps_arg(args, dims: HilbertDims) -> TPSpec:
    if args.tps == "identity":
        return TPSpec.identity(dims)
    tps = load_tps(_read(args, "tps"))
    if tps.dims != dims:
        raise DimensionMismatch(
            f"TPS dims ({tps.dims.n1},{tps.dims.n2}) differ from trajectory dims "
            f"({dims.n1},{dims.n2})"
        )
    return tps


def cmd_profile(args) -> dict | str:
    traj = load_trajectory(_read(args, "input"))
    tps = _load_tps_arg(args, traj.dims)  # a bad --tps fails before any sampling
    profile = entanglement_profile(sample(traj, args.samples), tps)
    if args.format == "csv":
        return profile_to_csv(profile)
    return {
        "times": profile.times.tolist(),
        "entropy": profile.entropy.tolist(),
        "product_distance": profile.product_distance.tolist(),
        "max_entropy": profile.max_entropy,
        "max_distance": profile.max_distance,
        "distance_measure": "chordal sqrt(2 - 2 sigma_1) to the product manifold, evaluated"
        " without cancellation as sqrt(2 sum_{k>=2} sigma_k^2 / (1 + sigma_1))",
    }


def cmd_certify(args) -> dict:
    traj = load_trajectory(_read(args, "input"))
    return certify_no_disentangling(traj, args.rank_tol, num_samples=args.samples).to_dict()


def cmd_construct(args) -> dict:
    traj = load_trajectory(_read(args, "input"))
    result = construct_disentangler(traj, ConstructConfig(verify_tol=args.tol))
    results = {
        "status": "found" if result.found else "not_found",
        "message": result.message,
        "orthonormality_residual": result.orthonormality_residual,
        "disentangling_residual": result.disentangling_residual,
        "attempts": result.attempts,
    }
    if result.found:
        results["basis_change"] = complex_out(result.tps.basis_change)
        if result.pairing is not None:
            results["kappas"] = complex_out(result.pairing.kappas)
            results["roots"] = {k: complex_out(v) for k, v in result.pairing.roots.items()}
    return results


def cmd_hamiltonian(args) -> dict:
    matrix, dims = load_matrix_document(_read(args, "input"))
    rebased = rebase_operator(_load_tps_arg(args, dims), matrix)
    decomposition = separable_projection(rebased, dims)
    return {
        "h1": complex_out(decomposition.h1),
        "h2": complex_out(decomposition.h2),
        "trace_part": decomposition.trace_part,
        "interaction_norm": decomposition.interaction_norm,
        "stationarity_gradient": stationarity_gradient(rebased, dims),
    }


def cmd_optimize(args) -> dict:
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    result = optimize_tps(load_trajectory(_read(args, "input")), config, num_samples=args.samples)
    return {
        "objective": result.objective,
        "restart_index": result.restart_index,
        "basis_change": complex_out(result.best_tps.basis_change),
        "restarts": [dataclasses.asdict(s) for s in result.restarts],
    }


def cmd_reproduce(args) -> int:
    if args.list:
        for name, _ in reproduce.ALL_CHECKS:
            print(name)
        return EXIT_OK
    ok = reproduce.run_all()
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def report(args) -> None:
    """Run the subcommand's handler and write its report to --output or stdout.

    A handler returning text (CSV) is written as is.  Otherwise its dict is
    the `results` of a JSON report whose `parameters` are every parsed option
    but --input and --output, so a rerun with them reproduces `results`, and
    whose `inputs` hash the bytes the handler parsed.
    """
    t0 = time.monotonic()
    args.inputs = {}
    results = args.handler(args)
    text = results
    if not isinstance(results, str):
        doc = {
            "command": args.command,
            "inputs": args.inputs,
            "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
            "results": results,
            "versions": {
                "tpslab": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": round(time.monotonic() - t0, 6),
        }
        text = json.dumps(doc) + "\n"  # no indent: json's C encoder
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)  # JSON and CSV text both end in a newline


@cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpslab",
        description="Analyze how the choice of tensor product structure changes "
        "the entanglement of a time-evolving state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="entanglement profile of a trajectory under a TPS")
    p.add_argument("--input", required=True, help="trajectory file (JSON)")
    p.add_argument("--tps", default="identity", help="TPS file, or 'identity' (default)")
    p.add_argument("--samples", type=int, default=200, help="time samples (default 200)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("certify", help="obstruction certificate for a trajectory")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_CERTIFY_SAMPLES)
    p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("construct", help="closed-form disentangling TPS (2x2, frequency 1)")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--tol", type=float, default=ConstructConfig.verify_tol, help="verification tolerance"
    )
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("hamiltonian", help="separable decomposition of an operator under a TPS")
    p.add_argument("--input", required=True, help="operator file (JSON)")
    p.add_argument("--tps", default="identity")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_hamiltonian)

    p = sub.add_parser("optimize", help="search for the most-disentangling TPS")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    p.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    p.add_argument("--samples", type=int, default=DEFAULT_OPTIMIZE_SAMPLES)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("reproduce", help="run the bundled reference checks")
    p.add_argument("--list", action="store_true", help="list checks without running")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args)
        report(args)
        return EXIT_OK
    except (ParseError, OSError, InvalidInput) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (DimensionMismatch, NotUnitary, NotHermitian, NotNormalizable, TooFewSamples) as exc:
        print(f"validity error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY_ERROR
    except UnsupportedForm as exc:
        print(f"unsupported form: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
