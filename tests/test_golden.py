"""Golden outputs: ``induce`` and ``grid-search`` on small planted
corpora must keep writing the same bytes.

A change that alters any of these files changes behaviour. Regenerate a
digest only for an intended output change, and record it in CHANGES.md.
"""

import hashlib

import pytest

from namebasis.cli import main
from namebasis.synthetic import make_planted_corpus, write_corpus

GOLDEN = {
    # case: (algorithm, names, units, pool seed, extra config, digests)
    "alg1": (
        "alg1",
        120,
        20,
        7,
        "",
        {
            "basis.txt": "08f9e94aa251e48bf113d196148a7f02f6a6562ce91878a5667136bb3c0b6f08",
            "segmentations.tsv": "f6f77d2b257e2bccbea13864f601ea9a26edaa9c8214893b54922a1bdc7d885b",
            "stats.csv": "b9a32ec36a0bc6a2c2d8cf3860cd8cac82848086105721447b00128dd2587eba",
        },
    ),
    # A cap of 10 on gapped tilings: 13 names reach it in round 1 and 18
    # in round 2, so this pins which rows the cap keeps for alg1.
    "alg1-capped": (
        "alg1",
        120,
        20,
        7,
        "cap = 10\n",
        {
            "basis.txt": "809abf7df94d616876b13bdde32faf1880cb0d5eb7f051e1b6bc2062b7f660bc",
            "segmentations.tsv": "945ad96af1acd8d861240c3b345529f6d5e43935583679d475c2a2382a69b8b2",
            "stats.csv": "375013d988f29e88233eb056cc6082ca1a1e45274cef257d1b40a6068c68b0ea",
        },
    ),
    "alg2": (
        "alg2",
        50,
        12,
        7,
        "workers = 2\n",
        {
            "basis.txt": "672bbbcce22271655c69dd4c63af827680ac9170867261f0dc7aca944df82854",
            "segmentations.tsv": "e77a9707de9f1f0157347ff151384cc10958dd714e02cd09862a81fd5bac0275",
            "stats.csv": "5dc74bde43f620d488d18018c62c0d11417498f5d369f1b5477725128dfaa98c",
        },
    ),
    # The syntax term on: whole names still win, so this matches "alg2".
    "alg2-syntax": (
        "alg2",
        50,
        12,
        7,
        "weights = 0.2,0.2,0.2,0.4\n",
        {
            "basis.txt": "672bbbcce22271655c69dd4c63af827680ac9170867261f0dc7aca944df82854",
            "segmentations.tsv": "e77a9707de9f1f0157347ff151384cc10958dd714e02cd09862a81fd5bac0275",
            "stats.csv": "5dc74bde43f620d488d18018c62c0d11417498f5d369f1b5477725128dfaa98c",
        },
    ),
    # segmentations.tsv regenerated when segment_corpus began choosing
    # among covering tilings only: jrvfdsjrvfdsugldrwemub now gets its
    # best of all 8 covering tilings (the first 5000 gapped ones held 4).
    "alg2-pav-inverted": (
        "alg2",
        50,
        12,
        7,
        "pav_inverted = true\n",
        {
            "basis.txt": "3136613ead6cec0adaa6933f6ae994101030dc296e05a69fd385049caa789484",
            "segmentations.tsv": "6adeabcacbc98828fa1b47602c8cebcd0c899376bb6860724874e9781f64d7c8",
            "stats.csv": "e0871530c04dcb73e792f05b33258ef96980903b5d8cdd725205c635adec41e5",
        },
    ),
    # Whole names left out and one-letter parts allowed: most names have
    # more than 40 compositions, so this pins which rows the cap keeps.
    "alg2-split-capped": (
        "alg2",
        50,
        12,
        7,
        "include_whole = false\nmin_segment = 1\ncap = 40\n",
        {
            "basis.txt": "4f4771334778b56816c35a643da1bccab15b07afdd42aea3848c71e614d80bce",
            "segmentations.tsv": "f08e1a285539214cb8c20394d81f305219e185b70c3adbb8b988708c37b75479",
            "stats.csv": "42b8a17ff6114401caf69985c578728d12300ded77d1a4d9918aa49c2f382623",
        },
    ),
    # Inverted demand makes names split, so the syntax term decides here.
    "alg2-syntax-pav-inverted": (
        "alg2",
        50,
        12,
        7,
        "weights = 0.2,0.2,0.2,0.4\npav_inverted = true\n",
        {
            "basis.txt": "0d7f140b30d64e4db09d2e834781f50f05004a8ab80c7549728fb6e4a8e75ba9",
            "segmentations.tsv": "65cbf6714a3bf6ad390cef789cb46a7474977479cb95d8e837dacbce77237def",
            "stats.csv": "69a7c3fd32e50f59fd91fbcb89fbb30e044861d21a9e858a88f454ff05b1abe4",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_induce_outputs_are_byte_identical(tmp_path, capsys, case):
    algorithm, n_names, n_units, seed, extra, digests = GOLDEN[case]
    planted = make_planted_corpus(n_names=n_names, n_units=n_units, seed=seed)
    names = tmp_path / "names.tsv"
    write_corpus(planted, names, format="name_freq")
    config = tmp_path / "run.cfg"
    config.write_text(f"algorithm = {algorithm}\nmin_length = 2\n{extra}", encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        [
            "induce",
            "--names", str(names),
            "--input-format", "name_freq",
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    actual = {
        filename: hashlib.sha256((out / filename).read_bytes()).hexdigest()
        for filename in digests
    }
    assert actual == digests


GRID_GOLDEN = {
    # case: (algorithm, names, units, pool seed, extra config, step,
    #        grid.csv digest, printed summary)
    # Inverted demand makes the weights change the result: 19 distinct
    # costs over 35 weight sets.
    "alg2-pav-inverted": (
        "alg2",
        50,
        12,
        7,
        "pav_inverted = true\n",
        "0.25",
        "79d6a51e40317ce2154317a50dc0da42d977c2801ed95050ca31a9ad408030e2",
        "35 weight sets evaluated\nbest weights: 0.0,0.0,0.0,1.0 (cost 12.0000)\n",
    ),
    "alg1": (
        "alg1",
        40,
        8,
        3,
        "max_iterations = 6\n",
        "0.25",
        "c8b2c86154bca6576d44cfe907fc534660b45008ad3dcdb11125b32a9659e962",
        "35 weight sets evaluated\nbest weights: 0.0,0.25,0.75,0.0 (cost 8.0000)\n",
    ),
}


@pytest.mark.parametrize("case", sorted(GRID_GOLDEN))
def test_grid_search_outputs_are_byte_identical(tmp_path, capsys, case):
    algorithm, n_names, n_units, seed, extra, step, digest, printed = GRID_GOLDEN[case]
    planted = make_planted_corpus(n_names=n_names, n_units=n_units, seed=seed)
    names = tmp_path / "names.tsv"
    write_corpus(planted, names, format="name_freq")
    config = tmp_path / "run.cfg"
    config.write_text(f"algorithm = {algorithm}\nmin_length = 2\n{extra}", encoding="utf-8")
    out = tmp_path / "out"
    code = main(
        [
            "grid-search",
            "--names", str(names),
            "--input-format", "name_freq",
            "--config", str(config),
            "--step", step,
            "--out", str(out),
        ]
    )
    assert code == 0
    assert hashlib.sha256((out / "grid.csv").read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out == printed


# The corpus files every case above reads, and the benchmark's corpus pins,
# depend on these bytes.
CORPUS_GOLDEN = {
    "name_freq": "cbfa149fe9068d4d122bae56dfea8f7f0938b7ff7fcfaf77cfc21395f803ce85",
    "plain": "42a3740e1ce7b4f7124a34164c2e2c46c7651bd91fe86141fc18df9286bbe626",
}


@pytest.mark.parametrize("format", sorted(CORPUS_GOLDEN))
def test_write_corpus_is_byte_identical(tmp_path, format):
    path = tmp_path / "names.txt"
    write_corpus(make_planted_corpus(n_names=120, n_units=20, seed=5), path, format=format)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS_GOLDEN[format]
