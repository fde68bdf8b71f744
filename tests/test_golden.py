"""Golden digests of the `aucal demo --seed 7` artifacts.

Criterion 09 compares two runs of the current code with each other, so it
cannot see a change that moves every run's output the same way. These
SHA-256 digests were recorded once; a refactor that is meant to leave
behaviour alone must leave them alone too.
"""

from aucal.cli import run
from aucal.report import file_digest

GOLDEN = {
    "audit_after.json": "0aaf0beeb18f7438680d656e3e46c4ad8ccde61d43a488a83516be5a66403319",
    "audit_before.csv": "9a22ec8c0a58bb96f288d99a45195ee7afebc60629543f205d851dce9286059d",
    "audit_before.json": "4c1161d7bbe39a53edec2a25ae29145881531a701f603ccabf146e374a955a09",
    "data.csv": "dc66e6f4a605cd9517d88ecf017a8648f6f599816063fc3807274d811e54e690",
    "eval_aucfer.json": "cffb986981117f073d1ec9db544cf8fc7bc1b0928bdbc67bfefc9c3a189e3fdb",
    "eval_baseline.json": "32010983ee1b17dc5a5dc90d57f4e9bcf519e9ba3c037e474b9825fbca227512",
    "flips.json": "3247136fcc9fea223b2f30a83e644f557c5bf015145e2043169ecc12077da05d",
    "model_aucfer.json": "0e77f47ae8d27027f8c3870664e591c0a9051abd4cc04a61fc2e7036b812c7f2",
    "model_baseline.json": "d4b128567090af83555b2d30db58db70f7503a4958442fb643e7392d3406385c",
    "relabeled.csv": "c7693227ecf6b80da9c3c4dcfde24a20b94e2768c94a9ad51844db82a14e1c90",
    "summary.csv": "8730c82db2ec0909ead61f12a15bf448a75f0d59b489cb9bb4d8781bd5d4ff35",
}


def test_demo_artifacts_match_golden_digests(tmp_path):
    assert run(["demo", "--seed", "7", "--out", str(tmp_path)]) == 0
    digests = {p.name: file_digest(p) for p in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN
