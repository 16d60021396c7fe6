#!/usr/bin/env python3
"""End-to-end induction experiment on a planted-unit corpus.

Generates a corpus whose true basis is known, runs one or both
induction algorithms, prints the per-iteration trace with convergence
checks, and compares the final cost against the planted basis and the
two trivial baselines.

Usage:
    python scripts/run_planted_experiment.py --names 1000 --seed 7
    python scripts/run_planted_experiment.py --algo alg2 --names 200
"""

import argparse
import time

from namebasis.engine import (
    IterationStats,
    RunConfig,
    check_convergence,
    global_cost,
    run_alg1,
    run_alg2,
    segment_corpus,
    trivial_case_a,
    trivial_case_b,
)
from namebasis.ortho import is_constructible, is_ortho
from namebasis.synthetic import make_planted_corpus


def print_trace(trace):
    print(" ".join(f"{h:>10}" for h in IterationStats.CSV_HEADER))
    for stats in trace:
        cells = stats.to_row()
        print(" ".join(f"{v:>10}" if isinstance(v, int) else f"{v:>10.1f}" for v in cells))
    for step in check_convergence(trace):
        print(
            f"  step {step.step}->{step.step + 1}: "
            f"basis {'ok' if step.basis_nonincreasing else 'GREW'}, "
            f"product {'ok' if step.product_nonincreasing else 'GREW'}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--names", type=int, default=1000)
    parser.add_argument("--units", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--algo", choices=("alg1", "alg2", "both"), default="alg1")
    parser.add_argument("--weights", default=None, help="four comma-separated weights")
    args = parser.parse_args()

    planted = make_planted_corpus(n_names=args.names, n_units=args.units, seed=args.seed)
    corpus = planted.corpus
    print(
        f"{corpus.total_unique} names from {len(planted.units)} planted units "
        f"(planted cost {planted.planted_cost:.1f}, "
        f"letters-only {trivial_case_a(corpus):.1f}, "
        f"whole-names {trivial_case_b(corpus):.1f})"
    )

    algos = ("alg1", "alg2") if args.algo == "both" else (args.algo,)
    for algo in algos:
        mapping = {"algorithm": algo, "min_length": "2"}
        if args.weights:
            mapping["weights"] = args.weights
        cfg = RunConfig.from_mapping(mapping)
        started = time.perf_counter()
        run = run_alg1 if algo == "alg1" else run_alg2
        basis, trace = run(corpus, cfg)
        elapsed = time.perf_counter() - started

        print(f"\n== {algo} ({elapsed:.1f}s) ==")
        print_trace(trace)
        spanning = all(is_constructible(name, basis) for name in corpus)
        recovered = sorted(basis) == sorted(planted.units)
        print(f"final basis: {len(basis)} words, orthogonal={is_ortho(basis)[0]}, spans={spanning}")
        print(f"planted pool recovered exactly: {recovered}")
        # the objective of the final segmentation, as `induce` writes it
        joins = sum(seq.eta_joins for seq in segment_corpus(corpus, basis, cfg).values())
        cost = global_cost(len(basis), joins, corpus.total_unique)
        print(f"final cost {cost:.1f} = {cost / planted.planted_cost:.2f}x planted")


if __name__ == "__main__":
    main()
