"""Command-line interface.

``betacircuits infer`` answers one conditioned query on an NNF circuit and
prints ``mean variance alpha_pos alpha_neg``; ``betacircuits experiment``
runs a full calibration experiment from a JSON config and writes the
metric CSVs.  Exit codes: 0 success, 2 validation/usage failure or a
numerical (float underflow/overflow) failure, 3 inconsistent evidence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import betacalc
from .betacalc import BetaLabel, Moments
from .circuit import (CircuitError, parse_condition_file, parse_label_table,
                      parse_nnf, set_condition, validate)
from .cpb import eval_cov, parse_leaf_cov, shadow_circuit
from .mc import mc_eval
from .semirings import (InconsistentEvidenceError, conditioned_eval,
                        mm_semiring, prob_semiring, sl_semiring)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betacircuits",
        description="Second-order probabilistic inference on d-DNNF circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", help="answer one conditioned query")
    infer.add_argument("--circuit", required=True, metavar="F",
                       help="NNF circuit file (c2d format)")
    infer.add_argument("--labels", required=True, metavar="F",
                       help="beta label table file")
    infer.add_argument("--cov", metavar="F",
                       help="leaf covariance triplet file (cpb backend only)")
    infer.add_argument("--query", type=int, metavar="V",
                       help="query variable (overrides the evidence file)")
    infer.add_argument("--evidence", metavar="F",
                       help="evidence/query file (evidence <v> <0|1>, query <v>)")
    infer.add_argument("--backend", required=True,
                       choices=("prob", "sl", "mm", "cpb", "mc"))
    infer.add_argument("--samples", type=int, default=10000, metavar="K",
                       help="Monte Carlo sample count (default 10000)")
    infer.add_argument("--seed", type=int, default=0, metavar="S")

    exp = sub.add_parser("experiment", help="run a calibration experiment")
    exp.add_argument("--config", required=True, metavar="F",
                     help="JSON experiment config")
    exp.add_argument("--out", required=True, metavar="DIR",
                     help="output directory for the metric CSVs")
    return parser


def _cmd_infer(args: argparse.Namespace) -> int:
    circuit = parse_nnf(Path(args.circuit).read_text())
    report = validate(circuit)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.violations:
        for v in report.violations:
            print(f"error: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    labels = parse_label_table(Path(args.labels).read_text())

    query: Optional[int] = args.query
    evidence: list[tuple[int, bool]] = []
    if args.evidence:
        file_query, evidence = parse_condition_file(
            Path(args.evidence).read_text())
        if query is None:
            query = file_query
    if query is None:
        print("error: no query given (--query or a query line in --evidence)",
              file=sys.stderr)
        return EXIT_VALIDATION
    staged = set_condition(circuit, query=query, evidence=evidence)

    if args.backend == "cpb":
        cov = (parse_leaf_cov(Path(args.cov).read_text())
               if args.cov else None)
        res = eval_cov(shadow_circuit(staged), labels, cov)
        label = res.matched
        mean, var = res.mean, res.variance
    elif args.backend == "mc":
        res = mc_eval(staged, labels, args.samples, seed=args.seed)
        mean, var = res.mean, res.variance
        label = betacalc.moment_match(Moments(mean, var))
    else:
        spec = {"prob": prob_semiring, "sl": sl_semiring,
                "mm": mm_semiring}[args.backend]()
        value = conditioned_eval(staged, spec, labels)
        label = spec.to_label(value)
        mean = spec.mean_of(value)
        var = label.variance
    print(f"{mean!r} {var!r} {_alpha(label, True)} {_alpha(label, False)}")
    return EXIT_OK


def _alpha(label: BetaLabel, positive: bool) -> str:
    if label.certain is not None:
        return "inf" if label.certain is positive else "1"
    return repr(label.alpha_pos if positive else label.alpha_neg)


def _cmd_experiment(args: argparse.Namespace) -> int:
    # Imported here so that ``infer`` does not pay for loading numpy and
    # scipy.special.
    from .harness import ExperimentConfig, run_experiment
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    report = run_experiment(cfg)
    report.write_csvs(args.out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "infer":
            return _cmd_infer(args)
        return _cmd_experiment(args)
    except InconsistentEvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (CircuitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        # Float underflow or overflow, e.g. on circuits too deep for the
        # evaluators' plain float arithmetic.
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
