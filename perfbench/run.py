"""The namebasis benchmark: planted-corpus workloads through the public CLI.

    python3 perfbench/run.py --workload alg1-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --workload alg2-long --held-out ...  # the held-out pool
    python3 perfbench/run.py --write-pins                 # after an intended generator change

Run from the root of a checkout. Each repetition runs in a fresh
interpreter (``child.py``); repetitions repeat until ``--seconds`` have
passed, and every one is checked (``check.py``). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics (``spans.py``). The last
line of standard output is one JSON object. README.md gives the
reasons for the workloads and the layer-to-metric mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD_TIMEOUT_S = 150
MIN_REPS = 3
MIN_TRACED = 2


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """One workload at one seed: its inputs, repetitions and checks."""

    def __init__(self, workload, seed: int, held_out: bool, work: Path):
        from workloads import corpus_digest, pinned_parent, seeded_sample

        self.workload = workload
        self.work = work
        parent, self.pin = pinned_parent(workload, held_out, work)
        self.planted = seeded_sample(parent, seed)
        self.names = self.planted.corpus.total_unique
        self.corpus_digest = corpus_digest(self.planted, work / "names.tsv")
        (work / "names.txt").write_text(
            "".join(f"{name}\n" for name in self.planted.corpus), encoding="utf-8"
        )
        self.digest: str | None = None
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _config(self, workers: str | None) -> Path:
        values = dict(self.workload.config)
        if workers is not None:
            values["workers"] = workers
        path = self.work / f"run-{values.get('workers', '1')}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
        return path

    def repetition(self, trace: bool, workers: str | None = None):
        """Run the workload once in a fresh child; returns (result, outcome, setup_s)."""
        from check import check_outputs

        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spec = {
            "names_tsv": str(self.work / "names.tsv"),
            "names_txt": str(self.work / "names.txt"),
            "config": str(self._config(workers)),
            "grid_step": self.workload.grid_step,
            "out": str(out),
            "trace": trace,
            "workers": workers or self.workload.config.get("workers", "1"),
            "result": str(out / "result.json"),
            "spans": str(WORK / f"spans-{self.workload.name}.tsv"),
        }
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p
        )
        started = time.monotonic()
        result = None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode == 0:
                result = json.loads((out / "result.json").read_text(encoding="utf-8"))
            else:
                self.errors.append(f"child exited {proc.returncode}: {proc.stderr[-500:]}")
        except subprocess.TimeoutExpired:
            self.errors.append(f"child timed out after {CHILD_TIMEOUT_S} s")
        exit_ok = result is not None and all(code == 0 for code in result["codes"])
        outcome = check_outputs(out, self.planted, exit_ok)
        if outcome.digest:
            outcome.expect_digest(self.digest)
            self.digest = self.digest or outcome.digest
        if outcome.reason:
            label = f"workers={workers} rerun" if workers else "repetition"
            self.errors.append(f"{label}: {outcome.reason}")
        self.attempted += outcome.names
        self.failed += outcome.failed_count
        setup_s = None
        if result and result["first_engine_call"] is not None:
            setup_s = result["first_engine_call"] - started
        return result, outcome, setup_s

    def check_worker_count(self) -> None:
        """The paper's claim: output does not depend on the worker count."""
        if self.workload.config.get("workers", "1") != "1":
            self.repetition(trace=False, workers="1")


def timed_run(run: Run, seconds: float) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {
        name: [] for name in ("wall_s", "setup_s", "peak_rss_mb", "cost_ratio", "unit_recall")
    }
    # Start another repetition only while one as long as the last still fits.
    end, last, reps = time.monotonic() + seconds, 0.0, 0
    while reps < MIN_REPS or time.monotonic() + last <= end:
        started = time.monotonic()
        result, outcome, setup_s = run.repetition(trace=False)
        last = time.monotonic() - started
        reps += 1
        if result is None or outcome.reason or setup_s is None:
            continue
        samples["wall_s"].append(result["wall_s"])
        samples["setup_s"].append(setup_s)
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
        samples["cost_ratio"].append(outcome.cost_ratio)
        samples["unit_recall"].append(outcome.unit_recall)
    return samples


def traced_run(run: Run, seconds: float, units: dict[str, str]) -> dict[str, list[float]]:
    untraced: list[float] = []
    layers: list[dict] = []
    reported: list[float] = []
    end, last = time.monotonic() + seconds, 0.0
    while len(layers) < MIN_TRACED or time.monotonic() + last <= end:
        started = time.monotonic()
        result, outcome, _ = run.repetition(trace=False)
        if result is not None and not outcome.reason:
            untraced.append(result["wall_s"])
        result, outcome, _ = run.repetition(trace=True)
        last = time.monotonic() - started
        if result is None or outcome.reason:
            break
        layer = dict(result["layers"])
        layer["trace.wall_s"] = result["wall_s"]
        layers.append(layer)
        reported.append(outcome.reported_cost / outcome.emitted_cost)
    samples: dict[str, list[float]] = {}
    if not layers or not untraced:
        run.errors.append("no complete traced and untraced repetition")
        return samples
    for key in layers[0]:
        if units.get(key) == "count":
            drift = {layer[key] for layer in layers}
            if len(drift) > 1:
                run.errors.append(f"count {key} drifted across traced repetitions: {sorted(drift)}")
        samples[key] = [layer[key] for layer in layers]
    samples["engine.reported_cost_ratio"] = reported
    overhead = statistics.median(samples.pop("trace.wall_s")) - statistics.median(untraced)
    samples["trace.overhead_s"] = [overhead]
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, held_out: bool) -> dict:
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        run = Run(WORKLOADS[name], seed, held_out, work)
        units = declared_metrics(trace)
        samples = traced_run(run, seconds, units) if trace else timed_run(run, seconds)
        run.check_worker_count()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [k for k in units if not samples.get(k)]
    if missing:
        run.errors.append(f"no sample for {', '.join(missing)}")
    undeclared = sorted(set(samples) - set(units))
    if undeclared:
        run.errors.append(f"measured but not declared in BENCHMARK.json: {', '.join(undeclared)}")
    rows = {k: quartiles(samples[k]) + (len(samples[k]),) for k in units if samples.get(k)}
    return {
        "workload": name,
        "header": (
            f"workload {name}  seed {seed}  pool seed {run.pin['pool_seed']}  "
            f"pinned corpus {run.pin['corpus_sha256'][:12]}  run corpus {run.corpus_digest[:12]} "
            f"({run.names} names)  output digest {(run.digest or '-')[:12]}"
        ),
        "rows": rows,
        "units": units,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
    }


def print_report(report: dict) -> None:
    print(report["header"])
    print(f"  {'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for key, (q1, median, q3, n) in report["rows"].items():
        print(f"  {key:34} {report['units'][key]:6} {median:12.6g} {q1:12.6g} {q3:12.6g} {n:4d}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"  {'failed_frac':34} {'ratio':6} {frac:12.6g}   ({report['failed']} of "
          f"{report['attempted']} names failed the output check)")
    for error in dict.fromkeys(report["errors"]):
        print(f"  error: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", help="use the held-out pool seed")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "namebasis").is_dir():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, PinError, write_pins

    if args.write_pins:
        WORK.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=WORK))
        try:
            write_pins(scratch)
        finally:
            shutil.rmtree(scratch)
        print("pins.json rewritten")
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    try:
        reports = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), args.held_out)
            for name in names
        ]
    except PinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for report in reports:
        print_report(report)
        prefix = "" if len(reports) == 1 else f"{report['workload']}/"
        for key, (_, median, _, _) in report["rows"].items():
            metrics[prefix + key] = {"value": median, "unit": report["units"][key]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    summary = {
        "correct": failed == 0 and not any(r["errors"] for r in reports),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
