"""Command-line pipeline: induce, ortho, transcribe, report, grid-search.

Exit codes: 0 success, 1 validation or convergence-check failure,
2 I/O or parse error. Flags win over config-file values. All outputs
are deterministic byte-for-byte for fixed inputs and re-readable by the
CLI itself.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from .config import ConfigError, read_kv
from .corpus import CorpusError, EmptyCorpusError, load_names, normalize
from .engine import (
    IterationStats,
    RunConfig,
    check_convergence,
    grid_search_weights,
    run_alg1,
    run_alg2,
    segment_corpus,
    weight_grid,
)
from .lexicon import (
    LEXICON_FORMATS,
    LexiconError,
    build_lexicon,
    emit_lexicon,
    load_transcriptions,
)
from .ortho import Basis, is_ortho, make_ortho

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

JOIN_MARK = "⊕"  # circled plus, the join symbol in reports

logger = logging.getLogger(__name__)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def read_basis_file(path) -> Basis:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    return Basis(
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )


def write_basis_file(basis: Basis, path) -> None:
    Path(path).write_text("\n".join(sorted(basis.texts)) + "\n", encoding="utf-8")


def read_segmentations(path) -> dict[str, tuple[str, ...]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    rows: dict[str, tuple[str, ...]] = {}
    set_on: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"{path}: line {lineno}: expected name<TAB>words")
        name = parts[0]
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
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    trace = []
    for row in rows:
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
    return trace


def _load_config(path: str | None, algo: str | None) -> RunConfig:
    mapping = dict(read_kv(path)) if path else {}
    if algo:
        mapping["algorithm"] = algo  # flags win over the config file
    return RunConfig.from_mapping(mapping)


def _cmd_induce(args) -> int:
    out = Path(args.out)
    try:
        cfg = _load_config(args.config, args.algo)
        corpus = normalize(load_names(args.names, args.input_format), cfg.min_length)
        out.mkdir(parents=True, exist_ok=True)
    except EmptyCorpusError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except (ConfigError, CorpusError) as exc:
        return _fail(EXIT_IO, str(exc))

    run = run_alg1 if cfg.algorithm == "alg1" else run_alg2
    basis, trace = run(corpus, cfg)
    chosen = segment_corpus(corpus, basis, cfg)

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
    final = trace[-1]
    print(
        f"{corpus.total_unique} names -> basis {final.b_size} words, "
        f"{final.j_total} joins, cost {final.cost:.1f} "
        f"({len(trace)} iteration{'s' if len(trace) != 1 else ''})"
    )
    return EXIT_OK


def _cmd_ortho(args) -> int:
    try:
        basis = read_basis_file(args.basis)
    except CorpusError as exc:
        return _fail(EXIT_IO, str(exc))
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
        for word in sorted(pruned.texts):
            print(word)
    return EXIT_OK


def _cmd_transcribe(args) -> int:
    try:
        corpus = normalize(load_names(args.names, "plain"), min_length=1)
        basis = read_basis_file(args.basis)
        segmentations = read_segmentations(args.segmentations)
        table = load_transcriptions(args.table, basis=basis.texts)
    except EmptyCorpusError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except (CorpusError, LexiconError) as exc:
        return _fail(EXIT_IO, str(exc))
    for name, words in segmentations.items():
        if "".join(words) != name:
            return _fail(EXIT_VALIDATION, f"segmentation of {name!r} does not spell it")
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
    try:
        trace = read_stats_csv(args.stats)
    except CorpusError as exc:
        return _fail(EXIT_IO, str(exc))
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
    out = Path(args.out)
    try:
        grid = weight_grid(args.step)
        cfg = _load_config(args.config, args.algo)
        corpus = normalize(load_names(args.names, args.input_format), cfg.min_length)
        out.mkdir(parents=True, exist_ok=True)
    except EmptyCorpusError as exc:
        return _fail(EXIT_VALIDATION, str(exc))
    except (ConfigError, CorpusError, ValueError) as exc:
        return _fail(EXIT_IO, str(exc))
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

    induce = sub.add_parser("induce", help="run basis induction and write reports")
    induce.add_argument("--names", required=True, help="corpus file")
    induce.add_argument("--algo", choices=("alg1", "alg2"), default=None)
    induce.add_argument("--config", default=None, help="key=value run configuration")
    induce.add_argument("--out", required=True, help="output directory")
    induce.add_argument(
        "--input-format", choices=("plain", "name_freq"), default="plain"
    )
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

    grid = sub.add_parser("grid-search", help="search the weight simplex")
    grid.add_argument("--names", required=True)
    grid.add_argument("--algo", choices=("alg1", "alg2"), default=None)
    grid.add_argument("--config", default=None)
    grid.add_argument("--step", type=float, default=0.1)
    grid.add_argument("--out", required=True)
    grid.add_argument(
        "--input-format", choices=("plain", "name_freq"), default="plain"
    )
    grid.set_defaults(func=_cmd_grid_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an unwritable --out
        return _fail(EXIT_IO, str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
