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
    # algorithm: (names, units, pool seed, extra config, digests)
    "alg1": (
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
}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_induce_outputs_are_byte_identical(tmp_path, capsys, algorithm):
    n_names, n_units, seed, extra, digests = GOLDEN[algorithm]
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
