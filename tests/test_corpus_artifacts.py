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
        "coverage.lcov": "b75029b8d669baf0c3e45f251472bcd0af428850d4831f8f6f6c2f8de7c571d2",
        "coverage.annotated.txt": "c22a5dd347a437ba14a9560f55c5207e6f126e5daf89ae81250a04077edd2f48",
        "monitor.txt": "12daf669a4379f031841494ff26bf18378febdc740ce2c165b5522794c494b8e",
        "harness.st": "db2c71484cb56a2e04738c73532e7aa14f47ae1041097a8de0f597286b3ed396",
    }),
    "GEN_SIN": (0, {
        "report.json": "0187cf333ec9e7317537123ab5da2663f785aae520f88f492b0b00a1ead5ac14",
        "report.txt": "1e52cbf02df311cf071d5f2c42703f87473cfc46b924f6482e183b439858fd27",
        "coverage.lcov": "4eb196be88205f85c1fd16e7cf1dea87f14aaaa98c71d7630028ed7adea9a4ab",
        "coverage.annotated.txt": "baf0991d093b04187b31347ab150ff67cefa4bd645fd32bd45e015d53a01502a",
        "monitor.txt": "52b0163c127ec4c73988f83a527359ea7a7ce6d06ff85047f1d24cdec1b0c484",
        "harness.st": "77cdf3c4eec747fb4907389cb4863a1a8fd47e18af63b4ec2df9cb657005bd5c",
    }),
    "TRAFFIC_CTRL": (0, {
        "report.json": "3b1a30180c7aa2c8d7eb56e5d7afd3702b972b446f87f94dcda076e2644d796c",
        "report.txt": "e4b838886aa1a9a06587a80cca7692a4f7cceeb33df8aa7b7e2805e355f03b6d",
        "coverage.lcov": "fff70d1cb754fab533c8bd07ac65e0a412db26f48df8fc3e353ebbbf8d70bb7f",
        "coverage.annotated.txt": "5a777a59ebfcc5325983d77ba8cb0a1065054dd112193241d16954ff42c48959",
        "monitor.txt": "161c52b973c7c52b384abde06be6b6d5b1eeed45627c9a61e49b63f767ecaf27",
        "harness.st": "22f6c07f54d4697bc137d63e1f4a931a0f5a59a87896f940344435989ac6f410",
    }),
    "COUNT_ACC": (0, {
        "report.json": "f371f7be14228e2d86e7800c7b6b2057a4226eb264236c8af8eab246ed92c811",
        "report.txt": "ef6e61472cd99af960bb8270d9d9fd0ffa098daf2665bb744c09d41bd84570b6",
        "coverage.lcov": "03dac9cd6fa101234bea947ecd4509c375631341a522ddfbb272ac12eb5e858a",
        "coverage.annotated.txt": "8bfd80e36846fdd13e68b88ea69d8eda7466309daca4531aefcf1afdc31de1bb",
        "monitor.txt": "2ec0e60c78db75323d60b94e4d5beb33de036ed524f99314157631cd46395ce0",
        "harness.st": "897f48ea8e51b57ab3a45631a149212803198ef446672d60b81db5dc41ce2281",
    }),
    "PI_CTRL": (0, {
        "report.json": "4792ab58f1945728313d4a53b68a528b4d3ba48a8563d950809354dac282220b",
        "report.txt": "6c04e53663eabbea1bf62ab168fa29c0e046e4896a91b33d74a30b49ec007c5e",
        "coverage.lcov": "c99292d225140953680fb3611fba291080792134cab9f31b36f013782f8ed66e",
        "coverage.annotated.txt": "07aa29a613fd945ab835bb648e5ca4df321b2f0cb31c0d1cd45fe1edd64659be",
        "monitor.txt": "8188f693115dbc38b74dd9f729525908068a6b31d463d07479f0a3a91fe3f2d0",
        "harness.st": "498fb1a8a4cd757a04de97f0f01f182d4142763a69eefb88dbf008deb589af5a",
    }),
    "DELAY_GATE": (0, {
        "report.json": "6f79aec77b6c7c3792f11e55d9a1bbd71d49e39c8e0289216be88cee88c2e584",
        "report.txt": "9597d322dbd62a0c486e1763679dc4d216f6f108d660ef1827efb5db87adc1ed",
        "coverage.lcov": "be884fe2fccab55146f5568d5495f97ca4886e212cd9b6929bcfa21cb7fb1c54",
        "coverage.annotated.txt": "459f93fec4188d9477e66b91e107fa27c08134c9f8bf8683b579d6f833d022d6",
        "monitor.txt": "25b66c88acb913894669491089071a4511d521eb08e9557032b8a09e578d4f1e",
        "harness.st": "caf9f017d2615432ee3aa499ad53ffcd9fc93c840195e0522d5f82fa02635e19",
    }),
    "LOGIC_MUX": (0, {
        "report.json": "9860858cb58c7c20cdb9958ba755661f25329f2fdc36406bea0de40298eb5d9a",
        "report.txt": "01d5521dc2a27a64669e883950655607eb810c3a400b3d90cc33e5f2d61b3ee4",
        "coverage.lcov": "299f6e86bb13a675ac3ce6955678b0cd539365cf4ad4f8b1a0648908e4b1490a",
        "coverage.annotated.txt": "7a37d9ba54e902e51b282d21f0c7a0afb229315712646e8e1e375ba81237dd6e",
        "monitor.txt": "ee790d6c0367c1235320f4c46256c51e1f9247f1477035465a4e91ff61ed11d2",
        "harness.st": "874c0942ae96267698677b86af2dd42aedbbac1a8ff7cd801645a57a963a68b7",
    }),
    "EDGE_COUNT": (0, {
        "report.json": "99496a0f69d4650eb7f1f93540b90f31c0ae827a1407ff73f7e969c0abe8af10",
        "report.txt": "8cbb82784453abc5191caca7ff0767a713f5931c0dd10b2816c85ed836001727",
        "coverage.lcov": "03aedee83ae74b64995239dcced4368f4cdfb6d73c39dba59f8ca2170e54560c",
        "coverage.annotated.txt": "b04fc80526ba10f07a24199dfd5cfbef2ad00ba05c70b0e48d292aeae7b5e9e6",
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
