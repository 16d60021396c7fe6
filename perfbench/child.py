"""One benchmark repetition, run in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

Runs the workload's commands through ``namebasis.cli.main``: optionally
``grid-search`` first (its winning weights then configure ``induce``),
then ``induce`` and ``transcribe``. The transcription table written
between ``induce`` and ``transcribe`` stands in for the human step and
is not timed. Writes a JSON result next to the outputs.

A fresh interpreter per repetition matters: the segmenter's tiling and
composition caches live as long as the process, and a CLI user pays for
them cold on every invocation.
"""

import json
import resource
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import namebasis.cli as cli

# Engine entry points the CLI calls; the first call to any ends set-up.
ENGINE_ENTRIES = ("run_alg1", "run_alg2", "grid_search_weights")


def _mark_first_call(stamps: list[float]) -> None:
    def hook(fn):
        def hooked(*args, **kwargs):
            if not stamps:
                stamps.append(time.monotonic())
            return fn(*args, **kwargs)

        return hooked

    for attr in ENGINE_ENTRIES:
        setattr(cli, attr, hook(getattr(cli, attr)))


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out = Path(spec["out"])
    first_call: list[float] = []
    _mark_first_call(first_call)
    tracer = None
    if spec["trace"]:
        import namebasis.engine as engine
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, engine, cli)

    result = {"codes": [], "wall_s": 0.0, "stdout": []}

    def command(*argv) -> bool:
        captured = StringIO()
        with redirect_stdout(captured):
            start = time.perf_counter()
            try:
                if tracer:
                    code = tracer.span("cli.main", cli.main, list(argv))
                else:
                    code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            result["wall_s"] += time.perf_counter() - start
        result["codes"].append(code)
        result["stdout"].append(captured.getvalue())
        return code == 0

    config = spec["config"]
    names = ("--names", spec["names_tsv"], "--input-format", "name_freq")
    ok = True
    if spec["grid_step"] is not None:
        ok = command("grid-search", *names, "--config", config,
                     "--step", str(spec["grid_step"]), "--out", str(out))
        if ok:
            # "best weights: a,b,c,d (cost x)" -> configure induce with them
            best = result["stdout"][-1].split("best weights: ", 1)[1].split(" ", 1)[0]
            text = Path(config).read_text(encoding="utf-8")
            config = str(out / "best.cfg")
            Path(config).write_text(text + f"weights = {best}\n", encoding="utf-8")
    if ok:
        ok = command("induce", *names, "--config", config, "--out", str(out))
    if ok:
        from check import write_table

        write_table(out / "basis.txt", out / "table.tsv")
        command("transcribe", "--names", spec["names_txt"], "--basis", str(out / "basis.txt"),
                "--segmentations", str(out / "segmentations.tsv"),
                "--table", str(out / "table.tsv"), "--format", "tsv",
                "--out", str(out / "lexicon.tsv"))

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["first_engine_call"] = first_call[0] if first_call else None
    if tracer:
        from spans import layer_metrics

        tracer.unwrap()
        result["layers"] = layer_metrics(tracer.spans(), int(spec["workers"]))
        tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
