"""Golden digests of the `aucal demo --seed 7` artifacts.

Criterion 09 compares two runs of the current code with each other, so it
cannot see a change that moves every run's output the same way. These
SHA-256 digests were recorded once; a refactor that is meant to leave
behaviour alone must leave them alone too.
"""

from aucal.cli import run
from aucal.report import file_digest

GOLDEN = {
    "audit_after.json": "0a6f2bcef080b446ae3b76bb86b417f5832cc8a10359255488aab2de6a9cfa79",
    "audit_before.csv": "8ee3ddc21deb1fba89e333ce5d161e770aee8ddead583de2f100f64c07b047fd",
    "audit_before.json": "c9f558b146417020330d73e095e6bde9369ccbeadffc2d48f7f343b5ec12bb7c",
    "data.csv": "7bb58609043886d356bcb4ceb09087c20822902f57a1fd834a495d042e96273c",
    "eval_aucfer.json": "def56e9c4ef3c0b765e95cf190fd3dde051f6242ede955208610dddefc833242",
    "eval_baseline.json": "32010983ee1b17dc5a5dc90d57f4e9bcf519e9ba3c037e474b9825fbca227512",
    "flips.json": "3247136fcc9fea223b2f30a83e644f557c5bf015145e2043169ecc12077da05d",
    "model_aucfer.json": "1715066991680c3b1038b342502259d3e008c49591ae0e5ff4eb63631e62f5e1",
    "model_baseline.json": "c774c1fed2552de51db15a97d7306664be500469f905192e793a5c5881135974",
    "relabeled.csv": "85437ad49b958bebe73c4591dc8bca203f505dd7238b8063ca62637e725a66ad",
    "summary.csv": "8730c82db2ec0909ead61f12a15bf448a75f0d59b489cb9bb4d8781bd5d4ff35",
}


def test_demo_artifacts_match_golden_digests(tmp_path):
    assert run(["demo", "--seed", "7", "--out", str(tmp_path)]) == 0
    digests = {p.name: file_digest(p) for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN
