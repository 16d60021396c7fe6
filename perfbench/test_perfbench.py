"""Self-tests of the benchmark's checker, span analysis and pinned inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from namebasis import cli  # noqa: E402
from namebasis.synthetic import make_planted_corpus, write_corpus  # noqa: E402

from check import check_outputs, output_digest, write_table  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, PinError, pinned_parent, seeded_sample  # noqa: E402


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """A small planted corpus run through induce and transcribe."""
    work = tmp_path_factory.mktemp("emitted")
    planted = make_planted_corpus(n_names=40, n_units=8, seed=3)
    write_corpus(planted, work / "names.tsv")
    (work / "names.txt").write_text("".join(f"{n}\n" for n in planted.corpus))
    (work / "run.cfg").write_text("algorithm = alg1\nmin_length = 2\n")
    out = work / "out"
    assert cli.main(["induce", "--names", str(work / "names.tsv"), "--input-format",
                     "name_freq", "--config", str(work / "run.cfg"), "--out", str(out)]) == 0
    write_table(out / "basis.txt", out / "table.tsv")
    assert cli.main(["transcribe", "--names", str(work / "names.txt"),
                     "--basis", str(out / "basis.txt"),
                     "--segmentations", str(out / "segmentations.tsv"),
                     "--table", str(out / "table.tsv"), "--out", str(out / "lexicon.tsv")]) == 0
    return planted, out


def _copy(out: Path, dest: Path) -> Path:
    dest.mkdir()
    for path in out.iterdir():
        (dest / path.name).write_bytes(path.read_bytes())
    return dest


def test_checker_accepts_emitted_output(emitted):
    planted, out = emitted
    outcome = check_outputs(out, planted, exit_ok=True)
    assert outcome.failed_count == 0 and not outcome.reason
    assert outcome.cost_ratio > 0 and 0 < outcome.unit_recall <= 1


def test_checker_rejects_corrupted_segmentation(emitted, tmp_path):
    planted, out = emitted
    bad = _copy(out, tmp_path / "out")
    lines = (bad / "segmentations.tsv").read_text().splitlines()
    name, units = next((n, u) for n, u in (line.split("\t") for line in lines) if " " in u)
    dropped = units.rsplit(" ", 1)[0]  # no longer spells the name
    lines = [f"{name}\t{dropped}" if line.startswith(f"{name}\t") else line for line in lines]
    (bad / "segmentations.tsv").write_text("\n".join(lines) + "\n")
    outcome = check_outputs(bad, planted, exit_ok=True)
    assert outcome.failed == {name}


def test_checker_rejects_non_orthogonal_basis(emitted, tmp_path):
    planted, out = emitted
    bad = _copy(out, tmp_path / "out")
    basis = (bad / "basis.txt").read_text().split()
    (bad / "basis.txt").write_text("\n".join(sorted(basis + [basis[0] + basis[1]])) + "\n")
    outcome = check_outputs(bad, planted, exit_ok=True)
    assert "not orthogonal" in outcome.reason
    assert outcome.failed_count == planted.corpus.total_unique


def test_checker_rejects_mismatched_digest(emitted, tmp_path):
    planted, out = emitted
    bad = _copy(out, tmp_path / "out")
    lexicon = (bad / "lexicon.tsv").read_text()
    (bad / "lexicon.tsv").write_text(lexicon + "\n")
    outcome = check_outputs(bad, planted, exit_ok=True)
    assert outcome.failed_count == 0  # every line still checks out ...
    outcome.expect_digest(output_digest(out))
    assert outcome.failed_count == planted.corpus.total_unique  # ... but the bytes moved


def test_checker_fails_every_name_on_nonzero_exit(emitted):
    planted, out = emitted
    outcome = check_outputs(out, planted, exit_ok=False)
    assert outcome.failed_count == planted.corpus.total_unique


def test_self_time_on_synthetic_tree():
    spans = [
        Span(0, "root", -1, 0, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 4.0),
        Span(2, "a.child", 1, 0, 2.0, 3.0),
        Span(3, "b", 0, 0, 5.0, 6.5),
        Span(4, "worker", 0, 1, 0.5, 9.5),  # another thread: runs alongside root
        Span(5, "worker.child", 4, 1, 1.0, 2.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 8.0, 5: 1.0})


def test_tracer_keeps_every_span_from_many_threads():
    module = types.SimpleNamespace(work=lambda x: x + 1)
    tracer = Tracer()
    tracer.wrap(module, "work", "layer.work", lambda args, kwargs, result: (result, 0))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(module.work, range(4000), timeout=60)) == list(range(1, 4001))
    finally:
        sys.setswitchinterval(old)
        tracer.unwrap()
    spans = tracer.spans()
    assert len(spans) == 4000 and len({s.id for s in spans}) == 4000
    assert sum(s.count for s in spans) == sum(range(1, 4001))
    assert module.work(1) == 2


def test_seeded_sample_is_deterministic_and_small():
    workload = WORKLOADS["alg1-dense"]
    parent = make_planted_corpus(
        n_names=workload.parent_names, n_units=workload.n_units, seed=workload.pool_seed
    )
    first, again, other = (seeded_sample(parent, s) for s in (1, 1, 2))
    assert first.corpus == again.corpus and first.corpus != other.corpus
    composites = parent.corpus.total_unique - len(parent.units)
    assert parent.corpus.total_unique - first.corpus.total_unique == -(-composites // 100)


def test_pins_refuse_a_changed_corpus(tmp_path):
    workload = WORKLOADS["grid-alg1"]
    pinned_parent(workload, held_out=False, scratch=tmp_path)
    with pytest.raises(PinError):
        pinned_parent(replace(workload, parent_names=workload.parent_names + 1), False, tmp_path)
