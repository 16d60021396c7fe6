"""Command-line pipeline: induce, ortho, transcribe, report, grid-search.

Exit codes: 0 success, 1 validation or convergence-check failure,
2 I/O or parse error. Flags win over config-file values. All outputs
are deterministic byte-for-byte for fixed inputs. The CLI reads three of
them again: ``basis.txt`` (ortho, transcribe), ``segmentations.tsv``
(transcribe) and ``stats.csv`` (report).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .config import ConfigError, data_lines, read_kv, read_text
from .corpus import Corpus, CorpusError, EmptyCorpusError, load_names, normalize
from .engine import (
    IterationStats,
    RunConfig,
    check_convergence,
    global_cost,
    grid_search_weights,
    run_alg1,
    run_alg2,
    segment_corpus,
    trivial_case_a,
    trivial_case_b,
    weight_grid,
)
from .lexicon import (
    LEXICON_FORMATS,
    LexiconError,
    build_lexicon,
    emit_lexicon,
    load_transcriptions,
)
from .ortho import is_ortho, make_ortho

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

JOIN_MARK = "⊕"  # circled plus, the join symbol in reports

logger = logging.getLogger(__name__)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def read_basis_file(path) -> frozenset[str]:
    words = []
    for lineno, line in data_lines(read_text(path, CorpusError)):
        word = line.strip()
        if any(ch.isspace() for ch in word):
            # segmentations are split on spaces, so no name could use it
            raise CorpusError(f"{path}: line {lineno}: whitespace in word {word!r}")
        words.append(word)
    return frozenset(words)


def write_basis_file(basis: frozenset[str], path) -> None:
    Path(path).write_text("\n".join(sorted(basis)) + "\n", encoding="utf-8")


def read_segmentations(path) -> dict[str, tuple[str, ...]]:
    rows: dict[str, tuple[str, ...]] = {}
    set_on: dict[str, int] = {}
    for lineno, line in data_lines(read_text(path, CorpusError)):
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}: line {lineno}: expected name<TAB>words")
        name = parts[0]
        if not name:
            raise CorpusError(f"{path}: line {lineno}: empty name")
        if name in set_on:
            raise CorpusError(
                f"{path}: line {lineno}: {name!r} already segmented on line {set_on[name]}"
            )
        set_on[name] = lineno
        words = tuple(parts[1].split(" "))
        if "" in words:
            raise CorpusError(
                f"{path}: line {lineno}: empty word in the segmentation of {name!r}"
            )
        rows[name] = words
    return rows


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_stats(trace: list[IterationStats], csv_path, json_path) -> None:
    rows = [s.to_row() for s in trace]
    _write_csv(csv_path, IterationStats.CSV_HEADER, rows)
    payload = [dict(zip(IterationStats.CSV_HEADER, row)) for row in rows]
    Path(json_path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_stats_csv(path) -> list[IterationStats]:
    trace = []
    for row in csv.DictReader(read_text(path, CorpusError).splitlines()):
        try:
            trace.append(
                IterationStats(
                    iteration=int(row["iteration"]),
                    b_m_size=int(row["B_m"]),
                    b_size=int(row["B"]),
                    j_total=int(row["J"]),
                    cost=float(row["C"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}: malformed stats row {row!r}: {exc}") from exc
    if not trace:
        raise CorpusError(f"{path}: no stats rows")
    return trace


def _load_run(args) -> tuple[RunConfig, Corpus, Path]:
    """The run configuration, the normalized corpus and the created output
    directory of an ``induce`` or ``grid-search`` run."""
    mapping = read_kv(args.config) if args.config else {}
    if args.algo:
        mapping["algorithm"] = args.algo  # flags win over the config file
    cfg = RunConfig.from_mapping(mapping)
    corpus = normalize(load_names(args.names, args.input_format), cfg.min_length)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, corpus, out


def _cmd_induce(args) -> int:
    cfg, corpus, out = _load_run(args)
    # alg1's last round leaves each name's span pattern by the final basis
    patterns: dict = {}
    if cfg.algorithm == "alg1":
        basis, trace = run_alg1(corpus, cfg, patterns=patterns)
    else:
        basis, trace = run_alg2(corpus, cfg)
    chosen = segment_corpus(corpus, basis, cfg, patterns=patterns)

    write_basis_file(basis, out / "basis.txt")
    with open(out / "segmentations.tsv", "w", encoding="utf-8") as handle:
        for name in sorted(chosen):
            handle.write(f"{name}\t{' '.join(chosen[name].texts)}\n")
    write_stats(trace, out / "stats.csv", out / "stats.json")
    _write_csv(out / "cost_curve.csv", ("iteration", "C"), [(s.iteration, s.cost) for s in trace])
    _write_csv(
        out / "b_vs_j.csv",
        ("iteration", "B", "J"),
        [(s.iteration, s.b_size, s.j_total) for s in trace],
    )
    _write_csv(
        out / "bm_j.csv",
        ("iteration", "BmJ"),
        [(s.iteration, s.b_m_times_j) for s in trace],
    )
    # the objective of what was written, not of the last round's choices
    joins = sum(seq.eta_joins for seq in chosen.values())
    cost = global_cost(len(basis), joins, corpus.total_unique)
    trivial = min(trivial_case_a(corpus), trivial_case_b(corpus))
    if cost >= trivial:
        logger.warning(
            "emitted cost %.1f is not below the cheaper trivial basis (%.1f)", cost, trivial
        )
    print(
        f"{corpus.total_unique} names -> basis {len(basis)} words, "
        f"{joins} joins, cost {cost:.1f} "
        f"({len(trace)} iteration{'s' if len(trace) != 1 else ''})"
    )
    return EXIT_OK


def _cmd_ortho(args) -> int:
    basis = read_basis_file(args.basis)
    if args.check_only:
        ok, witnesses = is_ortho(basis)
        joiner = f" {JOIN_MARK} "
        for word, pieces in witnesses:
            print(f"{word} = {joiner.join(pieces)}")
        if ok:
            print(f"orthogonal: {len(basis)} words")
            return EXIT_OK
        return EXIT_VALIDATION
    pruned = make_ortho(basis)
    if args.out:
        write_basis_file(pruned, args.out)
        print(f"{len(basis)} -> {len(pruned)} words written to {args.out}")
    else:
        for word in sorted(pruned):
            print(word)
    return EXIT_OK


def _cmd_transcribe(args) -> int:
    corpus = normalize(load_names(args.names, "plain"), min_length=1)
    basis = read_basis_file(args.basis)
    segmentations = read_segmentations(args.segmentations)
    table = load_transcriptions(args.table, basis=basis)
    for name, words in segmentations.items():
        if "".join(words) != name:
            return _fail(EXIT_VALIDATION, f"segmentation of {name!r} does not spell it")
        outside = next((word for word in words if word not in basis), None)
        if outside is not None:
            return _fail(
                EXIT_VALIDATION, f"segmentation of {name!r} uses {outside!r}, not in the basis"
            )
        if name not in corpus:
            return _fail(EXIT_VALIDATION, f"{name!r} is not in the names corpus")
    missing = [name for name in sorted(corpus) if name not in segmentations]
    if missing:
        shown = ", ".join(map(repr, missing[:5])) + (", ..." if len(missing) > 5 else "")
        logger.warning(
            "%d of %d names have no segmentation and are left out: %s",
            len(missing), corpus.total_unique, shown,
        )
    try:
        lexicon = build_lexicon(segmentations, table)
    except LexiconError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    emit_lexicon(lexicon, args.format, args.out)
    print(f"{len(lexicon.entries)} names written to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    trace = read_stats_csv(args.stats)
    header = IterationStats.CSV_HEADER
    print(" ".join(f"{h:>12}" for h in header))
    for stats in trace:
        row = stats.to_row()
        print(" ".join(f"{v:>12}" if isinstance(v, int) else f"{v:>12.1f}" for v in row))
    if len(trace) < 2:
        print("insufficient trace for convergence checking (need >= 2 rows)")
        return EXIT_OK
    failed = False
    for step in check_convergence(trace):
        basis_verdict = "PASS" if step.basis_nonincreasing else "FAIL"
        product_verdict = "PASS" if step.product_nonincreasing else "FAIL"
        failed = failed or not (step.basis_nonincreasing and step.product_nonincreasing)
        print(
            f"step {step.step}->{step.step + 1}: "
            f"basis-size condition {basis_verdict}, product condition {product_verdict}"
        )
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_grid_search(args) -> int:
    try:
        grid = weight_grid(args.step)
    except ValueError as exc:
        return _fail(EXIT_IO, str(exc))
    cfg, corpus, out = _load_run(args)
    best, table = grid_search_weights(corpus, cfg, grid)
    _write_csv(
        out / "grid.csv",
        ("w_avg_len", "w_len_var", "w_demand", "w_extra", "C"),
        [(*weights.as_tuple(), cost) for weights, cost in table],
    )
    print(f"{len(table)} weight sets evaluated")
    print(
        "best weights: "
        + ",".join(str(v) for v in best.as_tuple())
        + f" (cost {dict(table)[best]:.4f})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="namebasis",
        description="Induce a subword basis for a proper-name corpus and "
        "compose its pronunciation lexicon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)  # what induce and grid-search read
    run.add_argument("--names", required=True, help="corpus file")
    run.add_argument("--algo", choices=("alg1", "alg2"), default=None)
    run.add_argument("--config", default=None, help="key=value run configuration")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--input-format", choices=("plain", "name_freq"), default="plain")

    induce = sub.add_parser("induce", parents=[run], help="run basis induction and write reports")
    induce.set_defaults(func=_cmd_induce)

    ortho = sub.add_parser("ortho", help="check or enforce basis orthogonality")
    ortho.add_argument("--basis", required=True, help="one word per line")
    ortho.add_argument("--check-only", action="store_true")
    ortho.add_argument("--out", default=None, help="write pruned basis here")
    ortho.set_defaults(func=_cmd_ortho)

    transcribe = sub.add_parser("transcribe", help="compose the pronunciation lexicon")
    transcribe.add_argument("--names", required=True)
    transcribe.add_argument("--basis", required=True)
    transcribe.add_argument("--segmentations", required=True)
    transcribe.add_argument("--table", required=True, help="word<TAB>darpa<TAB>sapi")
    transcribe.add_argument("--format", choices=LEXICON_FORMATS, default="tsv")
    transcribe.add_argument("--out", required=True)
    transcribe.set_defaults(func=_cmd_transcribe)

    report = sub.add_parser("report", help="print a stats table and convergence checks")
    report.add_argument("--stats", required=True, help="stats.csv from induce")
    report.set_defaults(func=_cmd_report)

    grid = sub.add_parser("grid-search", parents=[run], help="search the weight simplex")
    grid.add_argument("--step", type=float, default=0.1)
    grid.set_defaults(func=_cmd_grid_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EmptyCorpusError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except (ConfigError, CorpusError, LexiconError, OSError) as exc:
        return _fail(EXIT_IO, str(exc))  # OSError: an unwritable --out


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
