"""Byte-for-byte goldens, mostly for commands that perfbench does not run.

Each suite hash is the SHA-256 of the JSON that `verify SUITE --format json`
printed before the constructions layer was reduced to one strip-chain
search and one almost-triplet builder; the patterns hash was re-pinned
when that suite gained the n = 5 twin-census check (p = 14), with its
other checks unchanged.  The decompose hashes were taken from the
monomial-DP weight tables, before the cycle-index expansion replaced
them, and sit on both sides of n = p; the two Pieri-product hashes were
taken before one box walker replaced the row-by-row strip recursion, and
the seven sign-heavy ones from the cycle-index weight tables, before the
plethysms were built as Pieri and alternant products, and the last four
from the cycle-index products, before Newton's identity replaced them;
the last four decompose hashes were taken from the Pieri and alternant
products, before horizontal strips on the k-abacus replaced both.  The
cones hashes were taken from the enumerating lattice count, before the
layered DP replaced it; none of these runs has enough levels to print a
fit.  The syzygy
hashes were taken before the sparse rank became a column reduction keyed
by each column's largest row, the four after the first five before one
packed-weight search built all three Koszul bases, the three with b >= d
and q >= 1 while b >= d still ran over the full ring instead of the
Artinian quotient, and the last one while the linear strand's left term
was counted, not listed; perfbench runs none of these commands.  The
q = 0, b = d hash was re-pinned when the truncation flag began to fold
b >= d into q, which turned its "truncation" from true to false.  The ratio
hashes were taken before the ratio experiments moved from constructions
into verify; perfbench runs the first three of them.  A refactor that
changes any answer, label or key order changes the hash.

The benchmark's own goldens, perfbench/goldens.json, are replayed here too:
every command of its workload pools, in process, against the exit code and
stdout hash that the benchmark checks, so output drift shows in these tests
and not only at the benchmark's output gate.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from veroschur.cli import main

GOLDENS = {
    "staircase": "b22ccaa3080f1a88c605760fdb3b660db5b454e972aee283a5eb49fc99df9c2a",
    "patterns": "784caec2bb06e4ed5bf6d480976c50c6ca7607fd0750fbcc36a63f7ddff2a338",
    "newell": "ed2c6dc7c7ed3829aa9a722d5eb3b93657f7f6ef7a7ec85e1869b654604d096b",
    "doubling": "6683f821e315d0abf32a70c319ab63f66b568780d479be7104f1469dab6b9c0c",
    "raicu": "d336fd7f6d2630dd779a103a30a2472bfec98fc60d31e54e52649c0d59dcdb86",
    "green": "ec3e7702a940bf929d617349ae3924853883f903b3eaeac11858b3194896e08d",
    "kostka-cone": "9e763369cea781409e497ae1614486dee4c9c677510b1a922caaf7ed1d05ee66",
}

DECOMPOSE_GOLDENS = {
    "sym -p 7 -d 2 -n 6": "197696d9b173946088edfb85663aaf33b25465179ea7587af5b7d624a37c7b0c",
    "sym -p 7 -d 2 -n 7": "6b4ae5a6025c73f5a5a8a17c95520841d18108c913d5f8cee5e0b42638642d5a",
    "wedge -p 6 -d 3 -n 5": "3e5cf4d88a02b64caa2dd8f4aa239e4e32b1859cd4d0725a9aaf05375a572ede",
    "wedge -p 6 -d 3 -n 6": "f42d286104f296909704d3585b05b2d4f8b2f56e032560811e2648ac627823e6",
    "sym -p 5 -d 5": "26075fde98636e1dc03d2c0d570ab80721a29bd61ee4899f6337de23300c77a8",
    # Pieri products: a tensor power truncated to n = 3 rows, and a twist
    "tensor -p 5 -d 2 -n 3": "99d1be3846784b10774b156a09bbab60a9286d1d0ef0e2235113022c4883a50d",
    "sym -p 3 -d 2 --tensor-sym 3": "c4daf2d451d9172aa453049f3f45dbd01badd51710e7785ebaa6f6944773e278",
    # sign-heavy plethysms, hashed from the cycle-index weight tables:
    # n < p, n = 1, d = 0 and an empty exterior power
    "wedge -p 6 -d 3 -n 3": "bebb03c129eca5dbc74371442b0946f908940f8bf2ad0856e02fc7d28f332f5f",
    "wedge -p 6 -d 3 -n 4": "01946bd8fb9b22084eabfcf5742ffb5f90ce7a76123e42ebec537140a8543b7b",
    "wedge -p 7 -d 2 -n 7": "65e5910deda05842b669c4616aa7232821a7e00eee4f0e4df94e38450a558975",
    "sym -p 8 -d 2 -n 8": "1f2c71780167896376c7d99766faf888c9a358fecf4796f06fbb32cda83e57ee",
    "sym -p 5 -d 0 -n 3": "408ae4dcfda7c38da5ab0f3732fddbcb7a0e1cb498edb0e35a583b3b9d06572a",
    "sym -p 6 -d 4 -n 1": "98e14d495643a2cd14e4b6b479ae10b0ed8987832dceae3863cb0ccdf3d0745a",
    "wedge -p 4 -d 1 -n 2": "e2e345970e7acd204f1f13be6563daf8b4014707091bb2d9eac4c39c2eb017ac",
    # many Newton steps each, hashed from the cycle-index products
    "sym -p 12 -d 3 -n 4": "01a7acc82849d93b95ec3964bad08db5739b6cd3857755655402b349e5182ae9",
    "wedge -p 12 -d 3 -n 5": "31c75253d323ad510114a8b970010fa57b6a8166d42171068a36d977f84fec88",
    "sym -p 16 -d 2 -n 4": "967d64ba3df97d417a6d6919759e722c7bd591c9a17d73b83cf20b4a7082fa02",
    "sym -p 30 -d 2 -n 2": "4b8aa528e48348ca5364391658e8cb6c5244dfcf834d06d474636a8c8e35c794",
    # hashed from the Pieri and alternant products, before horizontal
    # strips on the k-abacus replaced both
    "sym -p 8 -d 4 -n 6": "4024ff2bbeb9cc7d5bedab007e48e5d11522057368ee6b3d455293294f79f5fd",
    "wedge -p 10 -d 3 -n 6": "f7b3b7adaaa267dd8ef84bd1e2e2d71de08e64ce8082d482a3394c398a6e1714",
    "wedge -p 6 -d 4 -n 8": "9b18ad68250c9ed3988131589ce4b22ed98dce8b35c9f56d965803815da042e4",
    "tensor -p 6 -d 3 -n 10 --tensor-sym 2": "8616143a0465020e16b88a8c17466f1e766f72a84f503ecf9cdd5862092ed91b",
}

CONES_GOLDENS = {
    "-p 6 --d-min 1 --d-max 3": "ac12aa295adf87964d174e884236e35c5527efffdab7178b9461713b97a3ca15",
    "-p 5 --d-min 1 --d-max 4": "a0de0183f5a1e7fea0302f215acd84796b5311af2f416e57b95a9cb5f0c01f13",
    "-p 4 --d-min 1 --d-max 4": "f803fec46ab468fef723e69d5deae0254fe8e71054edba7644251671bb681863",
}

SYZYGY_GOLDENS = {
    "-p 4 -q 1 -d 2": "8ffc1981397698d14275192155aee0da61282a995d0216222ed671dee019c8db",
    "-p 2 -q 1 -d 4 -n 5": "bb03295f5ce1a2f77f5af23d447389ee1e6d7f431adb83cfc6fa8910d7bdbfbd",
    "-p 1 -q 1 -d 30 -n 2": "5f3e3ce1142eaf70d78b7a3f5ce873d3efdaf4b2202765305a93423209274223",
    "-p 2 -q 1 -b 2 -d 4 -n 3": "78f9778eb828baa805132c804377942c803c65d0041e477ba671d2454c71e9c7",
    "-p 3 -q 0 -b 1 -d 3 -n 4": "96cc5fdb35baeb197c34d7db731f018ad5cd9362afc50f024dd2b83e25eed294",
    # p = 0: no right term
    "-p 0 -q 0 -b 4 -d 5 -n 3": "42ab99db45ba6932b2f07a485557580486f56d17515421e31ae61faf297136e0",
    # q = 0 and b < d: the left term has a negative degree
    "-p 2 -q 0 -b 2 -d 4 -n 4": "5216b9cbbd513fa53f4cde836c7a87bdb654bb0f93399241e797c8a6a47ef44a",
    # b >= d: the left term is S^0 when q = 0, and the spec folds to
    # (2, 1, 0, 3), faithful at n = 3
    "-p 2 -q 0 -b 3 -d 3 -n 3": "d164569f331500f019c9e54a36b00d93e7d92959e48c9ef621cb69f0d29fb4f5",
    # n = 2
    "-p 4 -q 1 -d 6 -n 2": "41cf6a25ce49601217fb7684a99174cf2b5c51537c4416b3df7b7ba6f1b61e04",
    # b >= d with q >= 1, hashed while b >= d still ran over the full ring
    "-p 3 -q 1 -b 3 -d 3": "f7dff87c649ba5e41a22091496ebe572a9f17b5238c3b78c0f595ebeef9f4840",
    "-p 1 -q 1 -b 7 -d 3 -n 3": "192e880e5e098ffe43bb058c11b06b3e5c051a5fd494ce0546ce40c7bb593c51",
    "-p 2 -q 2 -b 4 -d 2 -n 3": "4edd836a9ce7900103d317038e50d47b67babae4657350a228ed4625069fc492",
    # q = 0, b = d below the strand rule (d < p - 1): the basis search on
    # the linear strand, hashed while its left term was counted
    "-p 5 -q 0 -b 3 -d 3 -n 4": "07080d59ae03ea3f8a1bf214ecbf95614604ccd65a427978af95330eb49edf00",
}

RATIO_GOLDENS = {
    "ratios": "6dc5d35ddda18c7c7817508b1dfa2c5e0a79aea00415993ae4a4ea63f6391f80",
    "ratios --theorem wedge-tensor-share -p 3 --d-max 8": "2bbb78803134287ee33e9b9d751fbb8f894d95ac107120d6154fdf7967c96067",
    "ratios --theorem sym-vs-wedge -p 3 --d-max 18": "38479f06d536704836db1f3e6948751264ef561df38abbb279ce4ecaf340c580",
    "ratios --theorem syzygy-share -p 1 --d-max 30": "a90272a747f09b85b803e057a7279019c1da688beaea44b6bde3cf7f48700f16",
    "ratios --theorem twist-total -p 2 -b 1 --d-max 12": "de3b14a3e89ca5a3e188dda3c64ce2464e94bf97d3b2af8a2652ec291f9992a8",
    "ratios --theorem twist-types -p 2 -b 2 --d-max 12": "018c8b7c944545b839aeb2dca7e19398380b4ed286e6c3b175e7999720b5c7e9",
    "ratios --theorem schur-share -p 3 --mu 2,1 --d-max 12": "0480f0b05b2e3735303029cd19eb68eef8b40f61485e98d2399e22c4b63fb700",
}

BENCH_GOLDENS = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "goldens.json").read_text())


@pytest.mark.parametrize("suite", sorted(GOLDENS))
def test_verify_suite_output_is_unchanged(suite, capsys):
    code = main(["verify", suite, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[suite]


@pytest.mark.parametrize("args", sorted(DECOMPOSE_GOLDENS))
def test_decompose_output_is_unchanged(args, capsys):
    code = main(["decompose", *args.split(), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_GOLDENS[args]


@pytest.mark.parametrize("args", sorted(CONES_GOLDENS))
def test_cones_output_is_unchanged(args, capsys):
    code = main(["cones", *args.split(), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONES_GOLDENS[args]


@pytest.mark.parametrize("args", sorted(SYZYGY_GOLDENS))
def test_syzygy_output_is_unchanged(args, capsys):
    code = main(["syzygy", *args.split(), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYZYGY_GOLDENS[args]


@pytest.mark.parametrize("args", list(RATIO_GOLDENS))
def test_ratios_output_is_unchanged(args, capsys):
    code = main(["verify", *args.split(), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RATIO_GOLDENS[args]


@pytest.mark.parametrize("command", sorted(BENCH_GOLDENS))
def test_bench_command_output_is_unchanged(command, capsys):
    code = main([*command.split(), "--format", "json"])
    out = capsys.readouterr().out
    assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} \
        == BENCH_GOLDENS[command]
