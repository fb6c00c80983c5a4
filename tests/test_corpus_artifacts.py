"""Byte-identity of the corpus run directories under --fixed-clock.

Runs `pipeline --provider mock --fixed-clock` on every bundled block and
compares the sha256 of each deterministic artifact with a recorded digest.
The run directory and the source directory are replaced by placeholders
before hashing, so the digests do not depend on where the run happens.

A change that alters what a report says, how coverage is counted or how
harness.st is printed shows up here.  When such a change is intended,
print the new table with

    PYTHONPATH=src python tests/test_corpus_artifacts.py

and paste it over EXPECTED.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from stbench import corpus
from stbench.cli import main

ARTIFACTS = (
    "report.json",
    "report.txt",
    "coverage.lcov",
    "coverage.annotated.txt",
    "monitor.txt",
    "harness.st",
)

# block -> (exit code, artifact -> sha256 of its placeholder text)
EXPECTED: dict[str, tuple[int, dict[str, str]]] = {
    "DEC_TO_HEX": (1, {
        "report.json": "0f27c74d667a79728b3908ab88a6ae7dec91dd0e740112de99d8f03e80d5a916",
        "report.txt": "29a39fa4dd6a919da7216dbec91020c39b2a247f2e0468bebba34a75af74c55b",
        "coverage.lcov": "6e8320412851b96fbeb1491f559e4e808334c3e55fe144892b71e05a62ecbbcb",
        "coverage.annotated.txt": "52c3b8fc6dc59453b157cac1b14364c3ee33b736e5bf573a74995ff9118864c8",
        "monitor.txt": "12daf669a4379f031841494ff26bf18378febdc740ce2c165b5522794c494b8e",
        "harness.st": "db2c71484cb56a2e04738c73532e7aa14f47ae1041097a8de0f597286b3ed396",
    }),
    "GEN_SIN": (0, {
        "report.json": "0187cf333ec9e7317537123ab5da2663f785aae520f88f492b0b00a1ead5ac14",
        "report.txt": "1e52cbf02df311cf071d5f2c42703f87473cfc46b924f6482e183b439858fd27",
        "coverage.lcov": "007b3e9c452e6c65ac12759bf408f1f0079bf0621dd148879249a76c1d431cd7",
        "coverage.annotated.txt": "1546014a701e87d8c097ff867f1ffc9f73f71d653e8e355de0e0587390e34e39",
        "monitor.txt": "52b0163c127ec4c73988f83a527359ea7a7ce6d06ff85047f1d24cdec1b0c484",
        "harness.st": "77cdf3c4eec747fb4907389cb4863a1a8fd47e18af63b4ec2df9cb657005bd5c",
    }),
    "TRAFFIC_CTRL": (0, {
        "report.json": "3b1a30180c7aa2c8d7eb56e5d7afd3702b972b446f87f94dcda076e2644d796c",
        "report.txt": "e4b838886aa1a9a06587a80cca7692a4f7cceeb33df8aa7b7e2805e355f03b6d",
        "coverage.lcov": "e71e7b125b4e1afaa2c81b3482d4053e3a24d20beca4c6070f8727ea60cd1433",
        "coverage.annotated.txt": "d63dda8863772adcfdaf5abad325e79bd5aa3d2a28afddc99d650a8e251bfff0",
        "monitor.txt": "161c52b973c7c52b384abde06be6b6d5b1eeed45627c9a61e49b63f767ecaf27",
        "harness.st": "22f6c07f54d4697bc137d63e1f4a931a0f5a59a87896f940344435989ac6f410",
    }),
    "COUNT_ACC": (0, {
        "report.json": "f371f7be14228e2d86e7800c7b6b2057a4226eb264236c8af8eab246ed92c811",
        "report.txt": "ef6e61472cd99af960bb8270d9d9fd0ffa098daf2665bb744c09d41bd84570b6",
        "coverage.lcov": "01bbd4f4a52a4d21141c72b90722eab31fd018c3a557d4017e63daebd253e97d",
        "coverage.annotated.txt": "f4d9c826d4116e3c7208977480ea3dd2b22f42c8de837ddbf7d54f134431c510",
        "monitor.txt": "2ec0e60c78db75323d60b94e4d5beb33de036ed524f99314157631cd46395ce0",
        "harness.st": "897f48ea8e51b57ab3a45631a149212803198ef446672d60b81db5dc41ce2281",
    }),
    "PI_CTRL": (0, {
        "report.json": "4792ab58f1945728313d4a53b68a528b4d3ba48a8563d950809354dac282220b",
        "report.txt": "6c04e53663eabbea1bf62ab168fa29c0e046e4896a91b33d74a30b49ec007c5e",
        "coverage.lcov": "e7e38988f80991c1256b4b58fdef73b41a5d323adcc3621d1a24a2ecbeb41839",
        "coverage.annotated.txt": "d77f1ca179329ccf4e363bf6a4cba322f2b0417326b3eaf46cc67cac3f72493e",
        "monitor.txt": "8188f693115dbc38b74dd9f729525908068a6b31d463d07479f0a3a91fe3f2d0",
        "harness.st": "498fb1a8a4cd757a04de97f0f01f182d4142763a69eefb88dbf008deb589af5a",
    }),
    "DELAY_GATE": (0, {
        "report.json": "6f79aec77b6c7c3792f11e55d9a1bbd71d49e39c8e0289216be88cee88c2e584",
        "report.txt": "9597d322dbd62a0c486e1763679dc4d216f6f108d660ef1827efb5db87adc1ed",
        "coverage.lcov": "a1d9580a6e35c4e2d37fbfbb3dbc0b1451ece242a0ba817b93313f290725d8bc",
        "coverage.annotated.txt": "c937099aedcecb2641ada0f3de599d0a9b6216ef76671cac4ee902b4de17c6dc",
        "monitor.txt": "25b66c88acb913894669491089071a4511d521eb08e9557032b8a09e578d4f1e",
        "harness.st": "caf9f017d2615432ee3aa499ad53ffcd9fc93c840195e0522d5f82fa02635e19",
    }),
    "LOGIC_MUX": (0, {
        "report.json": "9860858cb58c7c20cdb9958ba755661f25329f2fdc36406bea0de40298eb5d9a",
        "report.txt": "01d5521dc2a27a64669e883950655607eb810c3a400b3d90cc33e5f2d61b3ee4",
        "coverage.lcov": "429462c34c330d43a7c144adaa72f64e4acef2913d0a0a7f96075fa08702776f",
        "coverage.annotated.txt": "404d9b3ffe3d09ecd0efe8eef16d6f18df3846e63cc506c99278547c0e1cd3e3",
        "monitor.txt": "ee790d6c0367c1235320f4c46256c51e1f9247f1477035465a4e91ff61ed11d2",
        "harness.st": "874c0942ae96267698677b86af2dd42aedbbac1a8ff7cd801645a57a963a68b7",
    }),
    "EDGE_COUNT": (0, {
        "report.json": "99496a0f69d4650eb7f1f93540b90f31c0ae827a1407ff73f7e969c0abe8af10",
        "report.txt": "8cbb82784453abc5191caca7ff0767a713f5931c0dd10b2816c85ed836001727",
        "coverage.lcov": "3c1e0bfe5eb86d792b1f643d4c58e70f56b57b4519fae688ced7bb2c638a5d56",
        "coverage.annotated.txt": "80100002b6813abd7174cad28d2b59fb5f94b7166fed80b9a91efcf53710fa57",
        "monitor.txt": "2ec0e60c78db75323d60b94e4d5beb33de036ed524f99314157631cd46395ce0",
        "harness.st": "48c1535f60e80823dd752012a9fd93e8bdac70d810eba87566a11b37ae9219ab",
    }),
}


def run_block(name: str, out: Path) -> tuple[int, dict[str, str]]:
    """Exit code and artifact digests of one mock pipeline run into out."""
    unit = corpus.block_path(name)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([
            "pipeline", "--unit", str(unit), "--provider", "mock",
            "--fixture", str(corpus.fixture_path(name)), "--out", str(out), "--fixed-clock",
        ])
    places = ((str(out), "<RUN>"), (str(unit.parent), "<SRC>"))
    digests = {}
    for artifact in ARTIFACTS:
        text = (out / artifact).read_text(encoding="utf-8")
        for path, placeholder in places:
            text = text.replace(path, placeholder)
        digests[artifact] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return code, digests


@pytest.mark.parametrize("name", [b.name for b in corpus.BLOCKS])
def test_corpus_artifacts_are_byte_identical(name, tmp_path):
    code, digests = run_block(name, tmp_path / "run")
    expected_code, expected = EXPECTED[name]
    assert code == expected_code
    assert digests == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("EXPECTED: dict[str, tuple[int, dict[str, str]]] = {\n")
        for block in corpus.BLOCKS:
            code, digests = run_block(block.name, Path(tmp) / block.name)
            sys.stdout.write(f'    "{block.name}": ({code}, {{\n')
            for artifact, digest in digests.items():
                sys.stdout.write(f'        "{artifact}": "{digest}",\n')
            sys.stdout.write("    }),\n")
        sys.stdout.write("}\n")
