"""Outputs and row counts do not depend on the string hash seed.

Bases and span sets are frozensets, and texts are grouped through
str-keyed dicts and sets, so they iterate in hash order. One child
interpreter per seed runs every command on small planted corpora, and
every written byte, every stdout line and every log line (the passes'
INFO row counts among them) must be the same under both seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import namebasis

SEEDS = ("0", "1")

# Runs in its working directory and prints one JSON object.
CHILD = r"""
import contextlib, io, json, logging, sys
from pathlib import Path

from namebasis import cli
from namebasis.synthetic import make_planted_corpus, write_corpus

log = io.StringIO()
logging.basicConfig(stream=log, level=logging.WARNING, format="%(levelname)s %(message)s")
logging.getLogger("namebasis").setLevel(logging.INFO)

write_corpus(make_planted_corpus(n_names=60, n_units=12, seed=7), "names.tsv")
Path("alg1.cfg").write_text("min_length = 2\n", encoding="utf-8")
Path("alg2.cfg").write_text("min_length = 2\nalgorithm = alg2\n", encoding="utf-8")
Path("inverted.cfg").write_text(
    "min_length = 2\nalgorithm = alg2\npav_inverted = true\n", encoding="utf-8"
)
run = ["--names", "names.tsv", "--input-format", "name_freq"]
runs = []


def main(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv))
    runs.append((argv, code, stdout.getvalue()))


main("induce", *run, "--config", "alg1.cfg", "--out", "out/alg1")
main("induce", *run, "--config", "alg2.cfg", "--out", "out/alg2")
main("grid-search", *run, "--config", "alg1.cfg", "--step", "0.5", "--out", "out/grid1")
main("grid-search", *run, "--config", "inverted.cfg", "--step", "0.5", "--out", "out/grid2")

# the induced basis is orthogonal; joins of its words are not, so the
# check prints a witness for each
words = Path("out/alg1/basis.txt").read_text(encoding="utf-8").split()
joined = [a + b for a, b in zip(words, words[1:])][:5]
Path("joined.txt").write_text("\n".join(words + joined) + "\n", encoding="utf-8")
main("ortho", "--check-only", "--basis", "out/alg1/basis.txt")
main("ortho", "--check-only", "--basis", "joined.txt")

# a transcription table that spells every basis word letter by letter
segmented = Path("out/alg1/segmentations.tsv").read_text(encoding="utf-8").splitlines()
Path("plain.txt").write_text(
    "".join(line.split("\t")[0] + "\n" for line in segmented), encoding="utf-8"
)
Path("table.tsv").write_text(
    "".join(f"{w}\t{' '.join(w)}\t{' '.join(w)}\n" for w in words), encoding="utf-8"
)
main(
    "transcribe", "--names", "plain.txt", "--basis", "out/alg1/basis.txt",
    "--segmentations", "out/alg1/segmentations.tsv", "--table", "table.tsv",
    "--out", "out/lexicon.tsv",
)

files = {
    str(path): path.read_text(encoding="utf-8")
    for path in sorted(Path("out").rglob("*"))
    if path.is_file()
}
json.dump({"runs": runs, "log": log.getvalue().splitlines(), "files": files}, sys.stdout)
"""


def test_outputs_and_counts_equal_under_two_hash_seeds(tmp_path):
    src = str(Path(namebasis.__file__).resolve().parents[1])
    children = []
    for seed in SEEDS:
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        children.append(
            subprocess.Popen(
                [sys.executable, "-c", CHILD], cwd=work, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        )
    results = []
    for child in children:
        with child:
            out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        results.append(json.loads(out))
    first, second = results
    assert [code for _, code, _ in first["runs"]] == [0, 0, 0, 0, 0, 1, 0]
    assert any(" rows enumerated, " in line for line in first["log"])
    assert len(first["files"]) == 17  # 7 per induce, a grid.csv per grid, the lexicon
    for key in ("files", "runs", "log"):
        assert first[key] == second[key], key
