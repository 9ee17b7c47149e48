"""Simulated streams: every byte pinned, and memory bounded by the output.

`DIGESTS` holds the SHA-256 of `generate(model, count)` for each model below
at each of `COUNTS`, recorded from the generator as it stood before its
sampling rule and packer were rewritten (when it drew through
`Generator.choice` and packed through a per-bit uint64 matrix).  A change
that keeps the streams passes unedited; a change of the streams is a
format change and must say so.  The counts sit on both sides of one byte
and of the 2^16-sample chunk `generate` draws and packs at a time.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from blockext.sources import file_source, generate, iid_biased, iid_table, markov, parse_model
from blockext.sources import sample_chunks

COUNTS = (1, 7, 8, 9, 2**16 - 1, 2**16, 2**16 + 1, 200_001)
FILE_BITS = 3


def _table(shape, seed):
    """Seeded random probabilities along the last axis, each row summing to 1."""
    rows = np.random.default_rng(seed).random(shape)
    return rows / rows.sum(axis=-1, keepdims=True)


MODELS = {
    **{f"iid-biased-p{p}": (lambda p=p: iid_biased(p, seed=11)) for p in (0.0, 0.6278, 1.0)},
    **{f"iid-table-b{b}": (lambda b=b: iid_table(_table(1 << b, b), b, seed=20 + b))
       for b in (1, 3, 13, 16)},
    **{f"uniform-b{b}": (lambda b=b: parse_model({"kind": "uniform", "b": b, "seed": 7}))
       for b in (1, 3, 13, 16)},
    **{f"markov-b{b}": (lambda b=b: markov(_table((1 << b, 1 << b), 40 + b), b, seed=30 + b))
       for b in (1, 2, 3)},
}

DIGESTS = {
    "iid-biased-p0.0": (
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
        "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
        "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
        "b1fb0079828ab653919011a9f8cfdd3704387eb08e1dc971155b33c03e0da1ef",
        "175754db2ecfb719cd03984a1be241634e7f1959b1fa476443cf00b219dae936",
    ),
    "iid-biased-p0.6278": (
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "d2e2adf7177b7a8afddbc12d1634cf23ea1a71020f6a1308070a16400fb68fde",
        "2ea970ff63aec5d7a014ca6447ec743d3ba37450b85ebdcbb582b089b0194fa2",
        "4178147ef8d014f7e45adb9b3256f01d87acb5957dd853f416713e45e7838f27",
        "145073eda19ad135a3b1c1929f1062cc93fca7292be6c6446c5a46387d597bf0",
        "787a13e13d0536b17b7c0cb2799e51f12d3438546fa367e309f4b85af3885f0c",
        "8221b7c0a073e1c0d5118b25732178fa8069b77dc48374fdf6f0430610b1cd31",
        "374c701070970fb2df7017783bb35407a06f858b13fef9fc63dbb8f1846cb565",
    ),
    "iid-biased-p1.0": (
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "620bfdaa346b088fb49998d92f19a7eaf6bfc2fb0aee015753966da1028cb731",
        "a8100ae6aa1940d0b663bb31cd466142ebbdbd5187131b92d93818987832eb89",
        "437cb43a30226e639b33d84533cfc3ddd970a40055b9c8c0bf7e3795cf184eb6",
        "32563463f2849fbc6ac8401c4c4b94992a3027a136f30d51b82543b34e6228f0",
        "7d2c7ac4888bfd75cd5f56e8d61f69595121183afc81556c876732fd3782c62f",
        "fd2933c6d7b90f219a0c1e8a97e0bb36674d759c1f1b771ac4f2e396bbc630af",
        "aefeb932d56df83a488341a8525ed22231126579215c80487b42a0a9e1453e1b",
    ),
    "iid-table-b1": (
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "50e721e49c013f00c62cf59f2163542a9d8df02464efeb615d31051b0fddc326",
        "50e721e49c013f00c62cf59f2163542a9d8df02464efeb615d31051b0fddc326",
        "1f1e6d88973421a23b7f3a960420da259668d751451c1d1d14c4996c2422a8f2",
        "567d309a7b6422d2b8a7cc45e5e18be2625495caf54ab6176e7e245dc587763f",
        "567d309a7b6422d2b8a7cc45e5e18be2625495caf54ab6176e7e245dc587763f",
        "2f5ad83b96bf1dea6403d3c8741099e47f82076b480b93ebf22aca2534a468d7",
        "4cd90fe89d6d1f2ee240877c7b4b2df995d7aaf5771a8c6275ae5df3d5362b23",
    ),
    "iid-table-b3": (
        "e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db",
        "18ac718692fd5007b04512390d1bbf2fc19d8da8006f587e9eb618ac7dc42309",
        "15a7ac95349f9b36819f2485c1e639fecf3b8505951fbc4703a4304897ce10f8",
        "f6ecb85453761738bee38a8bdf498de178cd94a28bab62eeb76e7c03c5f4bdcd",
        "895936d384c0ed96a3fea98f7e1df51ed32291a5dba4276f90fc86263705acd3",
        "41b3a163470cc21fdb7bd464197a53ffbb31480f191d6830812091cf8aa53fdb",
        "a5f4a21c48453854aae9fc13b21c09b7d1ce2959d69c7901fbc7f8dc8b3300c9",
        "9b5df6cc69b487817eb67d6bbb4d247fea95abddf3e196967c4b36a923d57462",
    ),
    "iid-table-b13": (
        "8342d2dd00dae69e0a88c4b524c21b6c8b6406731d63588b4a7998f9c63e57d1",
        "cc1755ea4dcfc12ffa9d49c0434a844286cded9ecaad9909c6f33f64dc6477d9",
        "41921c0d661e89104858837297d4f8b7accfb46c897c490b7e0762eff68de9f9",
        "ed90b0d5e560e704c9720662020d2db195a1b596c31f6e0f6b1e363270d9af40",
        "eda5f2c3d80369c8a8b16edeb86cc79e232dd2cb432f4eccfa8291fe3791540e",
        "5e340ee64d7712d41042e91c90712502413926c61c8cc99643ac604050fb2915",
        "f165f0369efe7f8e718221ed976e4a21730115603e138f6da0a11064d5c9e11d",
        "456e1859af2cb012d175614b125d334b0099cc97d70b140cca47fa9d6bf9338d",
    ),
    "iid-table-b16": (
        "cdc59f9719eb526eba5e249037f4a4296eda7a7dea0fb158b49cb38840e61f19",
        "a89070ee1b32cc0b3459a45684d6435cacb1edfd36ce295f5ff92f7809184ee5",
        "4a0a00fd30456fc258084853525fa0038010b0e3d306c45074c93023e5a36e05",
        "36fbf45047bdacc60f9e286e1bed51e83d096d6abf7b0dcffb81c237aa476b95",
        "c3010db00f1e8a9196fead447c2c8baa431480a8964ea4204926b0e4daace9ed",
        "729099fb4ad63a4cde3d9d89c8e2b916be15bfad9dfbe33744e8e87bd3dac8eb",
        "aad56fe1c6cbbe2a94ce306094f635c7047764f7c1f2b1031be8522b89cc6add",
        "d33b1e656d9c5dfbace4ee41aff5a58fb1815320ea6aa67694664a0cc36a1fd8",
    ),
    "uniform-b1": (
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "265fda17a34611b1533d8a281ff680dc5791b0ce0a11c25b35e11c8e75685509",
        "2dbf9365a0b09d85bbd6176d8b2332aa5ae97bef652712473bc69165e74b22ed",
        "b7d34d5b883f80434b4dfd30f4f0103fddda301bbf751d868b32244df65c55ba",
        "8e2ebaf7f02cb77b41176582efb21bab5ee7aeb79b979cb5d27544feacb64718",
        "8e2ebaf7f02cb77b41176582efb21bab5ee7aeb79b979cb5d27544feacb64718",
        "7d5d781d03187d57bfae03851f4c0b412aa9b4fde6ec57ed6e4bcc8bbba5d032",
        "c1f4749da73d7914342f0412cbd243e77794d5bd701663aa1485b89456c4719a",
    ),
    "uniform-b3": (
        "e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db",
        "0b895d02169b306f1146339b065d0fddc10a59f6fe3d096455a8bd4b0f43bbb3",
        "265ddd46e89d3a6b009c2b071ec540fd468ff0ad22a184131b94292e965071ff",
        "0447b83f33554d26490dc6e205ef2bf92f99897a14de05a247d845728d1726c2",
        "b0f2f9d051f3050503af39cfdf4baac6f1e257f650807c5e369cf8d624c98a9f",
        "c5432872e902a1f6274ac2e18c64872dec23708b09a238c74f3bfce29b3509c6",
        "0691e620162dcae5feb4c25291e491f1c324206e6d3c4b8e54a9a9d8bab59fd5",
        "3a2649f6fb594dcf3f1a9963fea6cde84729d92b884c4603007e2bb4e766b8ce",
    ),
    "uniform-b13": (
        "f431a7f47862c05a44c40ef1f447d207ba15d339cef1fb9357564974137c1673",
        "b71512c8e78d6d9390e8243b004d61035ad6a1cc35ff00c2d4290dc60868115a",
        "4655a0aecf947221d7c1d5092d6de5ddd0da37131c12c1652a27318bd69402cd",
        "0e6a9dd643826329587ef5b3e9b60d55651011cdab18d6974b665f3a57488322",
        "42f6710f6e717ef1c8d4fd455855e7b4c4a974bdf6e248cea811080af989c08d",
        "f999667cd4d9d19e630d0a7489b2d95baf567e49eb0e03d7684341fc88e4f9cd",
        "83fe0e51a8b5a2f5ada91bae856da6f09bc48f8bc418a3a9c25b64cf50590daf",
        "edba57566fc2b6f1d1108fca26bb228b3aa5681d40486beec78cb326cec2a378",
    ),
    "uniform-b16": (
        "b35fe18a502791ff188698fc61c88c0b61d2e82ef990cdd068f51b09f904836d",
        "08aac357bdffb84f91bbb97b025ba72d84a7904c1f1f3cda7bbe62304f03aa3f",
        "c92735a09a1f8860aed5cde9b763101397e06c7ccbd19017e7211c819a6c489a",
        "7248799e33115b1f49c98f320589f5304c89e5afab448a235d063e5297504cd8",
        "f62c3b156a25fc69119ccb57e3b949de1eb05accea2a5de7bc632e1211d33a8f",
        "55b6ce38b5095c24b96e70831de9d027d5ea8f55c6670c381ba89cb058fe4cf8",
        "5acecfdaeeacd39d7f815091d32fb3f148ee18f569296948f5eb02f69e824678",
        "e1f7fcb07b8726e0c1467072e000caf35ed9144d4dfb2424fe5ac4c5fb995902",
    ),
    "markov-b1": (
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "1f18d650d205d71d934c3646ff5fac1c096ba52eba4cf758b865364f4167d3cd",
        "1f18d650d205d71d934c3646ff5fac1c096ba52eba4cf758b865364f4167d3cd",
        "9db374756abdee7a36154901f76e8ea2cbcb7af47fde1b2be040e6071ca319c4",
        "ac885f271bb06f09fa7af7f82d42c54e40c10b12ad676f2ae23b9f9fe21d716d",
        "f4886ed5dd7dad03b508630910ab80b7063831d0e9916e7825f679f34ab07a39",
        "c470f2cef38b18dd077ffdc3eae896b314212e7658d12d3971c77975b5f94402",
        "731411c6e1a7e5a27a451478689fb68470a2843b6c67c10ca0d52dd3ea8f22aa",
    ),
    "markov-b2": (
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "83b22796eda8c3522a0cb9268fd30f9142b1fe1738a2e6e2c3dde787c70b4eda",
        "1268fb01d4b685a034a839d7e75eb4cb9351b1ec1916a1a8a8b92d3def0e40a9",
        "e23c2ea70ba07f659ee7f76926dd1f9d3c3e02ec3e1d03dd18a76c7b460a3aeb",
        "3797ed0c19c01cc8fa1067442a51d24a9f891817fdea339812e8f4e8e09d716c",
        "ee00345371a3b16a625652d9ef5f3399151d2d8d16c65de9b5ebafe4f46e0a02",
        "a536e8b1a6b34ab0137223d158c88b2d15aef1164742a23151aacecd6632d264",
        "df91ecc08db896822bbf599f4ddccf3b0606093c3999c3431474744da4415d56",
    ),
    "markov-b3": (
        "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5",
        "14634f73cb2cfa04d372819f41bf0a6b4f5be90cc49f32c0cc42cc4b969d72a5",
        "a583f2a7ed15efcc3bfda05a94e6cfdfabfaa6f4c0a45f9a648d60774ba9d965",
        "12c2a5f538a8e01d54abfcd59d5764c687e719ae67860fb833e10d3e1122a6d5",
        "af937ca6ebcb0b923f162ecef1c25230fbb6f83e4f34a4ee3d1c57d786600133",
        "16bbd11afdfe334c692df1c612bb9a53d97bdceef5d837fd127669806e759d71",
        "b00228fb29e9f6c4eece6e2b1afaa69d4a968f51c1dfed7448906894cd539d6f",
        "9e4cd279689dfcecca5fb36e2477fa7d0314f7b204bc1a1984165acccb1f2512",
    ),
    "file": (
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "3e632d916f882224a8ac8cc0b838b22873edaeb7ca1730705ba8aa3d8cc7a0a0",
        "f38d55aa4cf42ad7e697c9ec43f0027d7666b1be5338fd821f900753c9abf069",
        "b9795b9b7eecdab35947ffdf45d7c131cdba9f1a9f7a3a70142adba676539488",
        "4f125e49f62b157bc223c192ff48cc363474286de32c57d12aba7888e67b9ca6",
        "bc6aa76aedd0a79626549a5b82e112f0433cce0499e025ac545d8d22643da6af",
        "35dddce0ed235f7d4d87f660d2dcb902bd8eb461e217eb0800fa76aad8bc6be3",
        "154acf4378dc760ec6b79ba37e27e5c5f5e60d754c87d854c50b2e440cd1aa7e",
    ),
}


@pytest.mark.parametrize("name", DIGESTS)
@pytest.mark.parametrize("count", COUNTS)
def test_generate_gives_the_recorded_bytes(tmp_path, name, count):
    if name == "file":
        path = tmp_path / "captured.bin"
        path.write_bytes(np.random.default_rng(5).bytes(COUNTS[-1] * FILE_BITS // 8 + 1))
        model = file_source(str(path), FILE_BITS)
    else:
        model = MODELS[name]()
    data = generate(model, count)
    assert len(data) == (count * model.bits_per_sample + 7) // 8
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name][COUNTS.index(count)]


def test_generate_memory_is_about_the_output():
    model = iid_table(np.full(2**16, 2.0**-16), 16)
    tracemalloc.start()
    try:
        data = generate(model, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 2**21
    assert peak < 16 * 2**20, peak


def test_sample_chunks_memory_is_one_chunk():
    model = markov(np.full((4, 4), 0.25), 2, seed=3)
    tracemalloc.start()
    try:
        written = sum(len(chunk) for chunk in sample_chunks(model, 2**22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == 2**20
    assert peak < 4 * 2**20, peak


def test_file_replay_memory_is_one_chunk(tmp_path):
    path = tmp_path / "captured.bin"
    path.write_bytes(np.random.default_rng(6).bytes(2**22))
    tracemalloc.start()
    try:
        written = sum(len(chunk) for chunk in sample_chunks(file_source(str(path), 8), 2**22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == 2**22
    assert peak < 2**20, peak
