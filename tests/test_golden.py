"""Golden outputs: ``induce`` on small planted corpora must keep writing
the same bytes.

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
    "alg2-pav-inverted": (
        "alg2",
        50,
        12,
        7,
        "pav_inverted = true\n",
        {
            "basis.txt": "3136613ead6cec0adaa6933f6ae994101030dc296e05a69fd385049caa789484",
            "segmentations.tsv": "070dab26eb6cb59acec1bf969d376fa91692c5a26eab7e20e70dd27823dfa7d2",
            "stats.csv": "e0871530c04dcb73e792f05b33258ef96980903b5d8cdd725205c635adec41e5",
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
