import csv
import json
import logging

import pytest

from namebasis import cli
from namebasis.cli import main, read_basis_file, read_stats_csv
from namebasis.synthetic import make_planted_corpus, write_corpus

TABLE1_CSV = """iteration,B_m,B,J,BmJ,C
1,25476,10435,27614,703493064,23006.0
2,11131,6168,38570,429322670,16307.7
3,6549,5985,39629,259530321,15348.1
4,6064,5990,39654,240461856,15326.1
5,6053,5991,39654,240025662,15326.1
"""


@pytest.fixture
def planted_files(tmp_path):
    planted = make_planted_corpus(n_names=60, n_units=8, seed=41)
    names = tmp_path / "names.tsv"
    write_corpus(planted, names, format="name_freq")
    config = tmp_path / "run.cfg"
    config.write_text("min_length = 2\n", encoding="utf-8")
    return planted, names, config


class TestInduce:
    def test_writes_all_reports(self, tmp_path, planted_files, capsys):
        planted, names, config = planted_files
        out = tmp_path / "out"
        code = main(
            [
                "induce",
                "--names", str(names),
                "--input-format", "name_freq",
                "--algo", "alg1",
                "--config", str(config),
                "--out", str(out),
            ]
        )
        assert code == 0
        for filename in (
            "basis.txt",
            "segmentations.tsv",
            "stats.csv",
            "stats.json",
            "cost_curve.csv",
            "b_vs_j.csv",
            "bm_j.csv",
        ):
            assert (out / filename).exists(), filename

        trace = read_stats_csv(out / "stats.csv")
        stats_json = json.loads((out / "stats.json").read_text())
        assert len(stats_json) == len(trace) >= 1
        with open(out / "cost_curve.csv") as handle:
            assert len(list(csv.reader(handle))) == len(trace) + 1

        # segmentations concatenate to their names and stay in the basis
        basis = read_basis_file(out / "basis.txt")
        seg_lines = (out / "segmentations.tsv").read_text().splitlines()
        assert len(seg_lines) == planted.corpus.total_unique
        for line in seg_lines:
            name, words = line.split("\t")
            assert "".join(words.split(" ")) == name
            assert all(word in basis for word in words.split(" "))

    def test_outputs_byte_identical_across_runs(self, tmp_path, planted_files):
        planted, names, config = planted_files
        outs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert main(
                ["induce", "--names", str(names), "--input-format", "name_freq",
                 "--config", str(config), "--out", str(out)]
            ) == 0
            outs.append(out)
        for filename in ("basis.txt", "segmentations.tsv", "stats.csv"):
            assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()

    def test_empty_corpus_exits_one(self, tmp_path, capsys):
        names = tmp_path / "names.txt"
        names.write_text("a\nb9\n", encoding="utf-8")
        code = main(["induce", "--names", str(names), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "empty corpus after normalization" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        code = main(
            ["induce", "--names", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        names = tmp_path / "names.txt"
        names.write_text("rama\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("max_iteration = 5\n", encoding="utf-8")
        code = main(
            ["induce", "--names", str(names), "--config", str(config),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "max_iteration" in capsys.readouterr().err
        # a bad value names its key too
        config.write_text("pav_inverted = maybe\n", encoding="utf-8")
        code = main(
            ["induce", "--names", str(names), "--config", str(config),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: bad value for pav_inverted: not a boolean: 'maybe'\n"
        )

    @pytest.mark.parametrize("command", ["induce", "grid-search"])
    def test_repeated_config_key_exits_two(self, tmp_path, capsys, command):
        names = tmp_path / "names.txt"
        names.write_text("rama\nsita\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("cap = 0\n# raised\ncap = 5000\n", encoding="utf-8")
        code = main(
            [command, "--names", str(names), "--config", str(config),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: line 3: key 'cap' already set on line 1\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("setting", ["penalty = 1e6", "cost_basis = pre_ortho"])
    def test_removed_config_key_exits_two(self, tmp_path, capsys, setting):
        names = tmp_path / "names.txt"
        names.write_text("rama\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(setting + "\n", encoding="utf-8")
        code = main(
            ["induce", "--names", str(names), "--config", str(config),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["cap = 0", "min_segment = 0", "min_length = 0"])
    @pytest.mark.parametrize("algo", ["alg1", "alg2"])
    def test_size_below_one_exits_two(self, tmp_path, capsys, algo, setting):
        names = tmp_path / "names.txt"
        names.write_text("rama\nsita\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(f"{setting}\n", encoding="utf-8")
        code = main(
            ["induce", "--names", str(names), "--algo", algo, "--config", str(config),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {setting.split()[0]} must be >= 1, got 0\n"

    def test_malformed_vowels_exit_two(self, tmp_path, capsys):
        names = tmp_path / "names.txt"
        names.write_text("rama\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("vowels = a;e;i\n", encoding="utf-8")
        code = main(
            ["induce", "--names", str(names), "--config", str(config),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: vowels must be one or more letters a-z, got 'a;e;i'\n"
        )

    def test_alg2_on_three_letter_corpus(self, tmp_path):
        names = tmp_path / "names.txt"
        names.write_text("ram\nraj\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["induce", "--names", str(names), "--algo", "alg2", "--out", str(out)]) == 0
        basis = (out / "basis.txt").read_text().split()
        assert basis == ["raj", "ram"]


class TestStatsRoundTrip:
    def test_written_stats_read_back_equal(self, tmp_path, planted_files):
        from namebasis.cli import write_stats
        from namebasis.engine import RunConfig, run_alg1
        from namebasis.corpus import load_names, normalize

        planted, names, config = planted_files
        corpus = normalize(load_names(names, "name_freq"), min_length=2)
        _, trace = run_alg1(corpus, RunConfig(min_length=2))
        write_stats(trace, tmp_path / "s.csv", tmp_path / "s.json")
        assert read_stats_csv(tmp_path / "s.csv") == trace


class TestOrtho:
    def test_check_only_reports_witness_and_fails(self, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        path.write_text("ra\nma\nrama\n", encoding="utf-8")
        code = main(["ortho", "--basis", str(path), "--check-only"])
        assert code == 1
        assert "rama = ra ⊕ ma" in capsys.readouterr().out

    def test_check_only_orthogonal_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "basis.txt"
        path.write_text("ra\nma\n", encoding="utf-8")
        assert main(["ortho", "--basis", str(path), "--check-only"]) == 0

    def test_prune_writes_output(self, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text("krishna\nkrishn\nkrish\nrish\nkris\nris\nish\nhna\nna\nkr\nhn\nis\nri\nsh\n", encoding="utf-8")
        out = tmp_path / "pruned.txt"
        assert main(["ortho", "--basis", str(path), "--out", str(out)]) == 0
        assert "krishna" not in out.read_text().split()

    def test_unreadable_exits_two(self, tmp_path):
        assert main(["ortho", "--basis", str(tmp_path / "nope"), "--check-only"]) == 2


class TestTranscribe:
    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "names.txt").write_text("ramakanth\nrajeshwar\n", encoding="utf-8")
        (tmp_path / "basis.txt").write_text("ra\nma\nkanth\nje\nshwar\nram\n", encoding="utf-8")
        (tmp_path / "seg.tsv").write_text(
            "ramakanth\tra ma kanth\nrajeshwar\tra je shwar\n", encoding="utf-8"
        )
        (tmp_path / "table.tsv").write_text(
            "kanth\tk aa n th\tk A n T h\n"
            "ma\tm aa\tm A\n"
            "ra\tr a\tr a\n"
            "je\tjh ey\tj E\n"
            "shwar\ts v ax r\tS v a r\n"
            "ram\tr aa m\tr A m\n",
            encoding="utf-8",
        )
        return tmp_path

    def run(self, tmp_path, fmt="tsv"):
        out = tmp_path / f"lexicon.{fmt}"
        code = main(
            [
                "transcribe",
                "--names", str(tmp_path / "names.txt"),
                "--basis", str(tmp_path / "basis.txt"),
                "--segmentations", str(tmp_path / "seg.tsv"),
                "--table", str(tmp_path / "table.tsv"),
                "--format", fmt,
                "--out", str(out),
            ]
        )
        return code, out

    def test_composes_reference_rows(self, files):
        code, out = self.run(files)
        assert code == 0
        body = out.read_text()
        assert "ramakanth\tra ma kanth\tr a m aa k aa n th\tr a m A k A n T h" in body
        assert "rajeshwar\tra je shwar\tr a jh ey s v ax r\tr a j E S v a r" in body

    def test_missing_transcription_listed(self, files, capsys):
        (files / "seg.tsv").write_text("ramakanth\tra ma kan th\n", encoding="utf-8")
        code, _ = self.run(files)
        assert code == 1
        err = capsys.readouterr().err
        assert "kan" in err and "th" in err

    def test_bad_segmentation_rejected(self, files, capsys):
        (files / "seg.tsv").write_text("ramakanth\tra ma kant\n", encoding="utf-8")
        code, _ = self.run(files)
        assert code == 1
        assert "does not spell" in capsys.readouterr().err

    def test_empty_segmentations_empty_lexicon(self, files):
        (files / "seg.tsv").write_text("", encoding="utf-8")
        code, out = self.run(files)
        assert code == 0
        assert out.read_text() == "# name\twords\tdarpa\tsapi\n"

    def test_repeated_name_exits_two(self, files, capsys):
        (files / "seg.tsv").write_text(
            "ramakanth\tra ma kanth\nrajeshwar\tra je shwar\nramakanth\tram a kanth\n",
            encoding="utf-8",
        )
        code, out = self.run(files)
        assert code == 2
        assert "line 3: 'ramakanth' already segmented on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_names_without_segmentation_warned(self, files, caplog):
        (files / "names.txt").write_text(
            "ramakanth\nrajeshwar\nrama\nrajesh\nkanth\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING, logger="namebasis.cli"):
            code, out = self.run(files)
        assert code == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "3 of 5 names have no segmentation and are left out: 'kanth', 'rajesh', 'rama'"
        ]
        assert len(out.read_text().splitlines()) == 3  # header and two names

    @pytest.mark.parametrize(
        "filename, body",
        [("seg.tsv", "ramakanth\tra  ma kanth\n"), ("table.tsv", "ra\tr a\tr a\n\tx\ty\n")],
    )
    def test_empty_word_exits_two(self, files, capsys, filename, body):
        (files / filename).write_text(body, encoding="utf-8")
        code, out = self.run(files)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files / filename}: line ")
        assert "empty word" in err
        assert not out.exists()

    def test_empty_names_exits_one(self, files, capsys):
        (files / "names.txt").write_text("", encoding="utf-8")
        code, _ = self.run(files)
        assert code == 1
        assert "empty corpus" in capsys.readouterr().err


class TestReport:
    def test_reference_trace_flags_and_exit(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text(TABLE1_CSV, encoding="utf-8")
        code = main(["report", "--stats", str(stats)])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("product condition PASS") == 4
        assert "step 3->4: basis-size condition FAIL" in out
        assert "step 4->5: basis-size condition FAIL" in out

    def test_monotone_trace_passes(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text(
            "iteration,B_m,B,J,BmJ,C\n1,100,50,40,4000,52.0\n2,60,45,42,2520,46.9\n",
            encoding="utf-8",
        )
        assert main(["report", "--stats", str(stats)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_single_row_notice(self, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        stats.write_text("iteration,B_m,B,J,BmJ,C\n1,10,5,4,40,7.0\n", encoding="utf-8")
        assert main(["report", "--stats", str(stats)]) == 0
        assert "insufficient trace" in capsys.readouterr().out

    def test_malformed_stats_exits_two(self, tmp_path):
        stats = tmp_path / "stats.csv"
        stats.write_text("iteration,B_m\n1,x\n", encoding="utf-8")
        assert main(["report", "--stats", str(stats)]) == 2


class TestGridSearch:
    def test_writes_table_and_best(self, tmp_path, capsys):
        planted = make_planted_corpus(n_names=10, n_units=4, seed=2)
        names = tmp_path / "names.tsv"
        write_corpus(planted, names)
        config = tmp_path / "run.cfg"
        config.write_text("min_length = 2\nmax_iterations = 4\n", encoding="utf-8")
        out = tmp_path / "grid"
        code = main(
            [
                "grid-search",
                "--names", str(names),
                "--input-format", "name_freq",
                "--config", str(config),
                "--step", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "grid.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["w_avg_len", "w_len_var", "w_demand", "w_extra", "C"]
        assert len(rows) == 11
        assert "best weights:" in capsys.readouterr().out

    def test_empty_corpus_exits_one(self, tmp_path, capsys):
        names = tmp_path / "names.txt"
        names.write_text("a\nb9\n", encoding="utf-8")
        code = main(["grid-search", "--names", str(names), "--out", str(tmp_path / "g")])
        assert code == 1
        assert "empty corpus after normalization" in capsys.readouterr().err

    def test_bad_step_exits_two(self, tmp_path):
        names = tmp_path / "names.txt"
        names.write_text("rama\n", encoding="utf-8")
        assert main(
            ["grid-search", "--names", str(names), "--step", "0.3", "--out", str(tmp_path / "g")]
        ) == 2

    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_non_positive_step_exits_two(self, tmp_path, capsys, step):
        names = tmp_path / "names.txt"
        names.write_text("rama\n", encoding="utf-8")
        code = main(
            ["grid-search", "--names", str(names), "--step", step, "--out", str(tmp_path / "g")]
        )
        assert code == 2
        assert "grid_step must be positive" in capsys.readouterr().err

    def test_cap_below_one_exits_two(self, tmp_path, capsys):
        names = tmp_path / "names.txt"
        names.write_text("rama\nsita\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("cap = 0\n", encoding="utf-8")
        code = main(
            ["grid-search", "--names", str(names), "--config", str(config),
             "--step", "0.5", "--out", str(tmp_path / "g")]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: cap must be >= 1, got 0\n"


class TestUnusableOut:
    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking --out")

        for attr in ("run_alg1", "run_alg2", "grid_search_weights"):
            monkeypatch.setattr(cli, attr, no_work)
        (tmp_path / "names.txt").write_text("rama\nsita\n", encoding="utf-8")
        (tmp_path / "basis.txt").write_text("ra\nma\n", encoding="utf-8")
        (tmp_path / "seg.tsv").write_text("rama\tra ma\n", encoding="utf-8")
        (tmp_path / "table.tsv").write_text("ra\tr a\tr a\nma\tm a\tm a\n", encoding="utf-8")
        (tmp_path / "a_file").write_text("", encoding="utf-8")
        (tmp_path / "a_dir").mkdir()
        return tmp_path

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["induce", "--names", "names.txt"], "a_file"),
            (["grid-search", "--names", "names.txt"], "a_file"),
            (["ortho", "--basis", "basis.txt"], "a_dir"),
            (
                ["transcribe", "--names", "names.txt", "--basis", "basis.txt",
                 "--segmentations", "seg.tsv", "--table", "table.tsv"],
                "a_dir",
            ),
        ],
    )
    def test_exits_two_with_one_line(self, inputs, capsys, argv, out):
        argv = [str(inputs / a) if a.endswith((".txt", ".tsv")) else a for a in argv]
        code = main([*argv, "--out", str(inputs / out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(inputs / out) in captured.err
        assert captured.err.count("\n") == 1
