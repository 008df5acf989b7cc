"""Byte-identity of the CLI's outputs.

Each case runs ``leapertour.cli.main`` in-process and pins the sha256 of
the bytes it writes: the ``--output`` file for ``generate``, stdout for
``fold --dump`` and ``sweep``.  A change that reorders a tour, a rendering
or a report changes a digest.

Plain ``pytest`` runs a lean subset: per leaper a ``tour`` with no seed and
with seed 7, a ``--symmetric`` tour, one ``grid`` and one ``svg``; a (2,5)
3x4 tiling as ``grid``; the tilings in ``TILINGS`` but the (1,40) one;
``fold --dump`` for the free leapers with p + q <= 15; and
``sweep --max-sum 15``.  ``pytest -m slow`` adds the rest of the set: every
leaper x seed (none, 0, 1, 7) x format, ``--symmetric`` in every format, the
(2,5) 3x4 tiling as ``tour``, and the (1,40) 2x2 tiling.
"""

import hashlib

import pytest

from leapertour.cli import free_leapers, main

LEAPERS = ((1, 2), (2, 5), (4, 9), (10, 21), (12, 25))
SEEDS = (None, 0, 1, 7)
FORMATS = ("tour", "grid", "svg")
LEAN_GENERATE = {(None, "tour"), (7, "tour"), (0, "grid"), (1, "svg")}
# (p, q, seed, k, l, format, lean): both seam orientations and parities, a
# row (4x1) and a column (1x3) with one orientation only, and the widest
# seam strips, q / side = 40 / 82
TILINGS = (
    (2, 5, 3, 3, 4, "grid", True),
    (1, 4, None, 2, 3, "tour", True),
    (3, 8, 2, 3, 2, "tour", True),
    (4, 9, None, 1, 3, "tour", True),
    (2, 5, None, 4, 1, "tour", True),
    (1, 40, 7, 2, 2, "tour", False),
)


def _cases():
    """(case id, argv, lean) for every pinned output."""
    for p, q in LEAPERS:
        pq = ["--p", str(p), "--q", str(q)]
        for seed in SEEDS:
            for fmt in FORMATS:
                seeded = [] if seed is None else ["--seed", str(seed)]
                yield (
                    f"generate-{p}-{q}-seed{seed}-{fmt}",
                    ["generate", *pq, *seeded, "--format", fmt],
                    (seed, fmt) in LEAN_GENERATE,
                )
        for fmt in FORMATS:
            yield (
                f"symmetric-{p}-{q}-{fmt}",
                ["generate", *pq, "--symmetric", "--format", fmt],
                fmt == "tour",
            )
    for fmt in ("tour", "grid"):
        yield (
            f"tile-2-5-3x4-{fmt}",
            ["generate", "--p", "2", "--q", "5", "--tile-k", "3", "--tile-l", "4", "--format", fmt],
            fmt == "grid",
        )
    for p, q, seed, k, l, fmt, lean in TILINGS:
        seeded = [] if seed is None else ["--seed", str(seed)]
        yield (
            f"tile-{p}-{q}-seed{seed}-{k}x{l}-{fmt}",
            ["generate", "--p", str(p), "--q", str(q), *seeded,
             "--tile-k", str(k), "--tile-l", str(l), "--format", fmt],
            lean,
        )
    for p, q in free_leapers(15):
        yield f"fold-{p}-{q}", ["fold", "--p", str(p), "--q", str(q), "--dump"], True
    yield "sweep-15", ["sweep", "--max-sum", "15"], True


def output_digest(argv, tmp_path, capsys) -> str:
    """Run the CLI on argv, check it exits 0, and hash what it wrote."""
    if argv[0] == "generate":
        path = tmp_path / "out"
        assert main([*argv, "--output", str(path)]) == 0
        data = path.read_bytes()
    else:
        assert main(argv) == 0
        data = capsys.readouterr().out.encode()
    return hashlib.sha256(data).hexdigest()


# sha256 per case id; a change that means to alter an output updates its
# digest here and says why.
DIGESTS = {
    "generate-1-2-seedNone-tour": "4c3181d9e2f5fe3a803e678ec92f6f0017a2780a2325206c99ccc9e1631b726e",
    "generate-1-2-seedNone-grid": "f7f483f75573f8e0b11103b88f8333e9d3c1e23fac7735c83d975676e2a2346c",
    "generate-1-2-seedNone-svg": "aacde76c406e937e346d578f4c34341b95747f73d245e35d60603d48e7b48695",
    "generate-1-2-seed0-tour": "4c3181d9e2f5fe3a803e678ec92f6f0017a2780a2325206c99ccc9e1631b726e",
    "generate-1-2-seed0-grid": "f7f483f75573f8e0b11103b88f8333e9d3c1e23fac7735c83d975676e2a2346c",
    "generate-1-2-seed0-svg": "aacde76c406e937e346d578f4c34341b95747f73d245e35d60603d48e7b48695",
    "generate-1-2-seed1-tour": "3831213af259b5aae8c5869d4815debb156806aa97763fb2926b017bd45ab97b",
    "generate-1-2-seed1-grid": "592b02fda30dc73a2429f2d4110595dbe7350ce36e3f27ffc4323413f8f013c6",
    "generate-1-2-seed1-svg": "58d8e4a6db9d5b481bded911949648e4ea96e1dba948d0c1476a2c86354f3217",
    "generate-1-2-seed7-tour": "3831213af259b5aae8c5869d4815debb156806aa97763fb2926b017bd45ab97b",
    "generate-1-2-seed7-grid": "592b02fda30dc73a2429f2d4110595dbe7350ce36e3f27ffc4323413f8f013c6",
    "generate-1-2-seed7-svg": "58d8e4a6db9d5b481bded911949648e4ea96e1dba948d0c1476a2c86354f3217",
    "symmetric-1-2-tour": "4c3181d9e2f5fe3a803e678ec92f6f0017a2780a2325206c99ccc9e1631b726e",
    "symmetric-1-2-grid": "f7f483f75573f8e0b11103b88f8333e9d3c1e23fac7735c83d975676e2a2346c",
    "symmetric-1-2-svg": "aacde76c406e937e346d578f4c34341b95747f73d245e35d60603d48e7b48695",
    "generate-2-5-seedNone-tour": "49dfa372e0ace0971408887a9d9cdba0d4582541df2e925553e5f9464b34e220",
    "generate-2-5-seedNone-grid": "6e2a5e4887ef52db61d59c39ad6a010602f4af41741a6de341fd077652a87219",
    "generate-2-5-seedNone-svg": "cc113ee59f75c6871cf1639af5b426ffc8c9a98e97944a3b8b3ec6eaaf97df07",
    "generate-2-5-seed0-tour": "4476cea5bc5a645a68825742c5bb407affd637d5844534d0bab239e1dea773fa",
    "generate-2-5-seed0-grid": "1a3423367bbc3e88c23ba1e6d4680f43a288d205465df71961d4d3821235c468",
    "generate-2-5-seed0-svg": "6c7a93206c33137c93af05593ba868b2b9efe18de244acaa697b5424a7e2197c",
    "generate-2-5-seed1-tour": "1f86f6a2d6f8589eadadd33fb14bacd22e4b1c0837c2bd3c9850afeed7b805b6",
    "generate-2-5-seed1-grid": "c5ea1673037f8e9d3fec5843be686a0a5b2245ec15c096440f90672c92597fe0",
    "generate-2-5-seed1-svg": "4765506406731e260495639774aad0615ed150feb8f7d92c5e9426eb342a238f",
    "generate-2-5-seed7-tour": "99a267aa6193684ee7d6f984d372ccc8a2d1b47de608a9bfee446986248ca208",
    "generate-2-5-seed7-grid": "0cd2e339f0d0eafa8bed4c4f41446f19f98566f21bd88bd32ef5cce71f28cbd8",
    "generate-2-5-seed7-svg": "a6a8e60e83bb9f42dac66832c43bf6fde27183622a01667db51ed54df057c119",
    "symmetric-2-5-tour": "fa7606b88d5acbaf482e542e7781bbeab0cfa5f569e591e9643d8f5e245af880",
    "symmetric-2-5-grid": "8c0a924456c558f6a219e46d0531bd98444d695268369bbc04a7ef3988c874d6",
    "symmetric-2-5-svg": "319da3d91a25f0c7da70718bed931e952d6b27505efda01ef0588ccdedd0b6c6",
    "generate-4-9-seedNone-tour": "d4430a7faf8ae327e9771b872a3d5bd931ed4fa6432c8530ae24b05e00c3b3d4",
    "generate-4-9-seedNone-grid": "0e1bfba61a06e3b2179b6655a29d57427b435bee536876846d82a1dfeeb4fa63",
    "generate-4-9-seedNone-svg": "f19fd449dcb1c6191e122d520edbc8c33fa5b54e049955d8bc44ae16aac0b2cd",
    "generate-4-9-seed0-tour": "7c86c98ab3e9def15e38876857114bb5461e7d15e186ab10789580d8fbfc771c",
    "generate-4-9-seed0-grid": "888081fe8ed61346d55f960bd19cbcd0465e088e5de1a39781ae9df61091f0bf",
    "generate-4-9-seed0-svg": "6a9c36e07a21c76f5b981251be95ad99052288af2835dfd560f1b6f5642a5951",
    "generate-4-9-seed1-tour": "bcbc851661b20d95ac1629485cc02bdb26b25c8a0c3ee0485fb55220c279edb8",
    "generate-4-9-seed1-grid": "e7d7e91c815a8bb724592f1cd33483501c61140622c10578d1d1e4922f0ce5ee",
    "generate-4-9-seed1-svg": "694227636c33252ddcbf3a413e0e50b1d61b82a37568efe51355a7dfbe0e72dc",
    "generate-4-9-seed7-tour": "ca532c86a96c1409041595f22a64fe918d8a692648d0d342175fb0602b8c44e5",
    "generate-4-9-seed7-grid": "70c84037cd7bc9bef3ba5645bf2f134b7a416df0e20cca618f8560e5c6d39edd",
    "generate-4-9-seed7-svg": "03d8d7c496d249667bbbf3c59f9c9d1865635c298c02b6445aac59d7d7f022a9",
    "symmetric-4-9-tour": "32c372e93158a45d77d28ca203b699e7644d66fc6e55cdb7010d1e198a2b41d4",
    "symmetric-4-9-grid": "0ebabd0bb760fb39fbdb200030c4bf51ff44d502f4bb42497bb22b316c8ede2e",
    "symmetric-4-9-svg": "f764b9aa852597794d3b64b11a67044aec28eed4701331e5adbe16005ef3dd3c",
    "generate-10-21-seedNone-tour": "0d8e9b16280583dc27d82879633dc1de7a6bda083ed2a85e5b1333877aa97398",
    "generate-10-21-seedNone-grid": "cc87b22cdc7d4dced6f1c83bbcc0c34d757be1a79d92cc6bb61d9234ef3ba077",
    "generate-10-21-seedNone-svg": "cd4029604c16833e13ac66d63e997ec24f3cb3c811b21245f63b09ee75545f0e",
    "generate-10-21-seed0-tour": "0e68f5a887271acc98d0619a76599eebef6a10c983fb22fc22eae1e55fb16d93",
    "generate-10-21-seed0-grid": "05fcdcd8f3fb1e80de3fbc8988bf65892ae2cf48fc25df09e6611b11d651d7a2",
    "generate-10-21-seed0-svg": "51996b39c7058555b37815b887a29d142bc5cb615ffc7fcd045c76c68842ca71",
    "generate-10-21-seed1-tour": "c61078a8bdccf7ee08726243f6d8242f5a6b2c8d7e37e3fe3e83ff5e25a5fd3f",
    "generate-10-21-seed1-grid": "6391ca5ff8dee956d73558439415d66f720ab02980139e81ec51cc3185167bcf",
    "generate-10-21-seed1-svg": "5a3c7ce5f9e77c82a0a9dfb1d0c50559096c27580dbed1d04ea05197ad17a4a2",
    "generate-10-21-seed7-tour": "6b7da13851808e07185997472aa6f27de17e3aac23f9e7444bff3bcc12adba55",
    "generate-10-21-seed7-grid": "e1c7279c1cc9a9ca580439f77ab9680cf3994fcb5429b92d94c74973c40fa6c2",
    "generate-10-21-seed7-svg": "fb1476fa69191dadeb16c4f2ad3d9cbf2d08e252641551f984510561e7ccdb46",
    "symmetric-10-21-tour": "45e3b3617fbabb718f31a1b8422cbbfe2a7f57f7d24e57976ec800668eb764f9",
    "symmetric-10-21-grid": "5f235282c3cd0b76010b407d82417afd3d5b0cd068e7eaeb05293660e20f0f87",
    "symmetric-10-21-svg": "67306d463125362fdab2d927560caa33c45cbd5a293399685abe66330646d026",
    "generate-12-25-seedNone-tour": "d410810ecd46f0d2213062ead3ad614686c8f4309b60cf2561b28354f9563d51",
    "generate-12-25-seedNone-grid": "a358bae56c0b43f42a8aab3ab8ebda4b04994e96e26fffa4077a4daea8bd0976",
    "generate-12-25-seedNone-svg": "c00b438bad8d186dba6c4f2ae32cb19e487886c56bbf052dc8a967a5e890a837",
    "generate-12-25-seed0-tour": "9ae007acc4fcb984ff193eb2840e771815a3878176bec9eb83a29288ac96dddc",
    "generate-12-25-seed0-grid": "220ede49a6481ab4011454195630691d90b4b8c54e51fcf5c057e256efb9a8b7",
    "generate-12-25-seed0-svg": "4900b99cef505e5874ab7e359fb25a27c8921a237c1022e9424b98937c12b6b6",
    "generate-12-25-seed1-tour": "328f3d815e0a16db8fc9bbb2bc7fdd4be8b875e4f96a85f997f4318203df04ae",
    "generate-12-25-seed1-grid": "33bb4d6652c80f7a2b06fa8bd26de3f093c631e7d27af2d60485ce1832aa76e7",
    "generate-12-25-seed1-svg": "fddd78fa4bc4cf6151dcd6f218ca16bb9acf6298a2fcaed5de3c653383dbd4e3",
    "generate-12-25-seed7-tour": "c285dccdb0d653f927ccbce93d86037c6b49f759bf2e2133dfb1ca326dd8560f",
    "generate-12-25-seed7-grid": "c8babeb77010bd1a741ace5a57a4668c9fac476f0446c2d5e11fed0e7dc9a869",
    "generate-12-25-seed7-svg": "031b484fa6c55ff3df5a08c92bffe351b8b08c93a52141421fa54de7b8c304ba",
    "symmetric-12-25-tour": "9b4f714543f9c26ba05ca1ca6c794067b60d14e3eab6412cafa56a7e9ddebafa",
    "symmetric-12-25-grid": "bf044b698e5ed690f253cfe533d99fa1e4e370b98f00f5b75f2008941f0db6de",
    "symmetric-12-25-svg": "a4e01e92a078ab4c16edd4cb92c7b282d75543864dc291fc3490c7a4b7e0bf25",
    "tile-2-5-3x4-tour": "64d4cff76e590018669ff3dc56cd1928c0324897ad806486ff54993a0f76ccfd",
    "tile-2-5-3x4-grid": "7f7da80abc81d5560a1cfa2b528317613dfc36120f1c3ffda5f33c44106954d6",
    # recorded with whole copies searched per seam; the seam strips must give the same tours
    "tile-2-5-seed3-3x4-grid": "7f320aea30a5d90162890ba7d71918013b1457f2e737651e74af10acb6629982",
    "tile-1-4-seedNone-2x3-tour": "488db860c4ecbd91aefe091b47eeec6e84c8dd2f823e4e452ccf4ddfdd384203",
    "tile-3-8-seed2-3x2-tour": "d035c4da4d68fdf826668eec972f7eb29c170717b391258c2beb8bafaa35c49c",
    "tile-4-9-seedNone-1x3-tour": "976b5bd60e38e52dfabd95552676d495abfa9ffd9ad89999ae5d46f1ee594392",
    "tile-2-5-seedNone-4x1-tour": "edf5f6eed5b8214f1ff9c59b1cae291a0cda84290de74c26bc25c043189c94c3",
    "tile-1-40-seed7-2x2-tour": "81e00b209cf1f3509ff7b5fdeb3936181c338b5364ad6a114cd44ebad829b561",
    "fold-1-2": "03a4a5a7dcbebe8566d5e82fc681872d912437a37fd085dea2b487b1bc8cbed3",
    "fold-1-4": "e4614a58f839a8101d04a5859f48af723e1f84af6557ef17469490d4a6adad3a",
    "fold-2-3": "4f598c23c6aef4e578be29de94c6e24c0e3a1d34b2966e32d2b71b07ef4f9f88",
    "fold-1-6": "da4d9407a156270f678e8751b221317a1fa7767f5d205241e45b68909c438ce8",
    "fold-2-5": "7a28b0da553591653a80b7bcb194852b6c44d6aae3efcfed70b0a5656fc01831",
    "fold-3-4": "7e9ff9ffadb32dd1513b0b184cff0c4039588e5b0811bac446aed477034a4a9b",
    "fold-1-8": "0307ad0b240dfd03d30fddbc69b4e4c1c900f7c7ff550838d321ce22e8f91b1d",
    "fold-2-7": "5cc28e6917bc3d45fb76729da7e91da6ed686ffa24aee769051700bfa35765f8",
    "fold-4-5": "f35d8c2ee9158f0b82c425ca8fbd6ebd027ff55d216b45a119a0c64f457410b4",
    "fold-1-10": "6db89a25a6d5517fc36b4404cf295374f6aadc8db20b868d0047b4713a359939",
    "fold-2-9": "685ff500ec48ade2d7215cbaaa7e6bea648b2ab28b78483863a4dc59807ca5f7",
    "fold-3-8": "af09320c0608bd0457e281a5c85dd85d666314201bb35e3d1af0336eddb4b29f",
    "fold-4-7": "131c5af9832c94d60d1098ad42fdbfba453f7ee859ad36f0cabf5160787d7b40",
    "fold-5-6": "aac722313610996c02c77c6c7e9a6cb7a94f3067f5bf10e9b60c13deb364e4e3",
    "fold-1-12": "425acbabcfc86f8c57a234f244fe8c2830240316738cb9d7fa090ae6037779e9",
    "fold-2-11": "cea5d28bdbbdcbd5343c886f521eb4e5d68ce95d8ed2fd2d12d0863f67b401df",
    "fold-3-10": "ff73c58a6d1d699d19025c0fb374f10c4fb4422639a14a78a9e729353ec2f525",
    "fold-4-9": "490224f5019859ecad00eeff0601258a7ed241145c74efca143e470fd6b2dc6f",
    "fold-5-8": "04ca1d0a63dc620bf111dcd4d05da6b3323d219b288f5eb69f104a4aa37b05d8",
    "fold-6-7": "2d8836a50b3a462cf352e64c5166bf3412f7b3f53deca0dfd079602fe69d6b99",
    "fold-1-14": "6b3d91f466fe6bf70884d8c34c1846035873c14d487b55e7a3cfb854a344527b",
    "fold-2-13": "f89c4c783470233f8ecffea026dddcb11994af505aa3a3b373dc070e9fe85a09",
    "fold-4-11": "7cacde885af9c0b07586c37b1dfcbdfab0b32d64315c288478e7d67896cc44d2",
    "fold-7-8": "26a2ce0852f103fe40270962326506b2f0a81368ff569dbf52c66b8766e81f0d",
    "sweep-15": "23ea28d8b4ff4d890fa2342639a762eb69942a38e2865aa6a06f1d55cbfc289d",
}


@pytest.mark.parametrize(
    "case,argv",
    [
        pytest.param(case, argv, id=case, marks=[] if lean else [pytest.mark.slow])
        for case, argv, lean in _cases()
    ],
)
def test_output_is_byte_identical(case, argv, tmp_path, capsys):
    assert output_digest(argv, tmp_path, capsys) == DIGESTS[case]
