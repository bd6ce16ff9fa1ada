"""Byte-for-byte goldens for the verify suites that perfbench does not run.

Each hash is the SHA-256 of the JSON that `verify SUITE --format json`
printed before the constructions layer was reduced to one strip-chain
search and one almost-triplet builder; a refactor that changes any
answer, label or key order changes the hash.
"""

import hashlib

import pytest

from veroschur.cli import main

GOLDENS = {
    "staircase": "b22ccaa3080f1a88c605760fdb3b660db5b454e972aee283a5eb49fc99df9c2a",
    "patterns": "e3fab882fd871e7fade5dc74e4b11edd7f00683b99e85f8f3d7b2cf2739777f0",
    "newell": "ed2c6dc7c7ed3829aa9a722d5eb3b93657f7f6ef7a7ec85e1869b654604d096b",
    "doubling": "6683f821e315d0abf32a70c319ab63f66b568780d479be7104f1469dab6b9c0c",
    "raicu": "d336fd7f6d2630dd779a103a30a2472bfec98fc60d31e54e52649c0d59dcdb86",
    "green": "ec3e7702a940bf929d617349ae3924853883f903b3eaeac11858b3194896e08d",
    "kostka-cone": "9e763369cea781409e497ae1614486dee4c9c677510b1a922caaf7ed1d05ee66",
}


@pytest.mark.parametrize("suite", sorted(GOLDENS))
def test_verify_suite_output_is_unchanged(suite, capsys):
    code = main(["verify", suite, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[suite]
