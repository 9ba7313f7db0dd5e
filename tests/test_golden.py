"""Golden circuits: SHA-256 of Circuit.to_json() and export_qasm() for fixed
layouts and variants.

The JSON digests were computed with the original quadratic synthesizers (full
scans per star, per merge and per BFS layer). Any rewrite of the synthesis
loops must keep every tie-break, so every digest here must stay unchanged.
The QASM digests were computed with the original if/elif exporter, so the
statement table that replaced it must reproduce its output byte for byte.

The layout digests pin the graphs themselves: SHA-256 of LayoutGraph.to_json()
for Erdős–Rényi graphs and random connected subgraphs, computed with the
original generator that drew one scalar uniform per vertex pair. The
array-drawn generator must reproduce every graph bit for bit.

The validation digest pins which op sequences a Circuit accepts, the depth
of each accepted one and the exact error of each rejected one. It was
computed with the separate `Circuit.validate` loop and `depth` walk, before
the per-op checks moved into `Schedule.emit`.

The simulator digests pin what the stabilizer simulator samples: the `run`
classical bits, outcome log and stabilizer rows, and the noiseless and noisy
`sample_counts` histograms, on synthesized GHZ circuits and on random
Clifford + measure + reset + CondX circuits whose 2n tableau rows end just
before, at and just after a 64-bit word boundary. They were computed with the
row-major uint8 tableau, before the x/z columns were bit-packed; the packed
tableau must reproduce every run and every sample bit for bit. The
heavy-noise digests (a noisy run, and 1000 noisy shots, which leave padding
in the last word) were computed with the batched per-shot sign engine,
before Pauli-frame sampling replaced it; the frames must reproduce them bit
for bit. The measurement-runs digest pins `run` and `sample_counts` on a
circuit with runs of consecutive mid-circuit MeasureZ; it was computed while
the readout of `sample_counts` was still a path of its own, before it became
ordinary MeasureZ events and mid-circuit runs of deterministic MeasureZ began
to take their outcomes from one product.

Every `sample_counts` digest was re-pinned once more when shot s's key became
(derive_seed(m, "shot") + s) mod 2**64 instead of derive_seed(m, "shot", s);
every `run` digest stayed the one pinned before.
"""

import hashlib
import random
import re

import numpy as np
import pytest

from ghz_synth.circuit import (
    CX,
    Circuit,
    CondX,
    H,
    MalformedCircuitError,
    MeasureZ,
    Reset,
    X,
    count_2q,
    count_measurements,
    depth,
    export_qasm,
)
from ghz_synth.growing import synthesize_growing
from ghz_synth.layouts import (
    connected_erdos_renyi,
    eagle_127,
    random_connected_subgraph,
    rect_grid,
)
from ghz_synth.merging import AbsoluteSize, HighestDegree, ScalingFactor, synthesize_merging
from ghz_synth.rng import derive_seed
from ghz_synth.stabilizer import NoiseModel, run, sample_counts
from ghz_synth.testutil import random_clifford_circuit

LAYOUTS = {
    "eagle_127": lambda: eagle_127(),
    "grid_12x9": lambda: rect_grid(12, 9),
    "grid_16x32": lambda: rect_grid(16, 32),
    "grid_64x64": lambda: rect_grid(64, 64),
    "eagle_sub_30_s1": lambda: random_connected_subgraph(eagle_127(), 30, 1)[0],
    "eagle_sub_64_s2": lambda: random_connected_subgraph(eagle_127(), 64, 2)[0],
    "eagle_sub_100_s3": lambda: random_connected_subgraph(eagle_127(), 100, 3)[0],
    "er_20_p0.3_s1": lambda: connected_erdos_renyi(20, 0.3, 1),
    "er_60_p0.1_s2": lambda: connected_erdos_renyi(60, 0.1, 2),
    "er_100_p0.5_s3": lambda: connected_erdos_renyi(100, 0.5, 3),
}

VARIANTS = {
    "growing": synthesize_growing,
    "highest_degree": lambda g: synthesize_merging(g, HighestDegree()),
    "scaling_factor=0.7": lambda g: synthesize_merging(g, ScalingFactor(0.7)),
    "absolute_size=4": lambda g: synthesize_merging(g, AbsoluteSize(4)),
}

GOLDEN = {
    ("eagle_127", "growing"):
        "d7a3f63177ea33164c2559a261b287266e83e3ab5228ea2ae958ff156aacfc83",
    ("eagle_127", "highest_degree"):
        "58d89c6aa8e96c00bc23ea0fe5daf2c1733ea4765974baf1db289c87a476036b",
    ("eagle_127", "scaling_factor=0.7"):
        "51e739edde3be4b7b8389e78431cd024bba4b61ef6c45067e42a50313a8b5813",
    ("eagle_127", "absolute_size=4"):
        "58d89c6aa8e96c00bc23ea0fe5daf2c1733ea4765974baf1db289c87a476036b",
    ("grid_12x9", "growing"):
        "a8ef6fa08e5b35b383a91f44d900d84f90665dbceec8935d51bddd6a2074bcbd",
    ("grid_12x9", "highest_degree"):
        "de020750b03aec9fc0dbe15e3a65b365532c0ce603d437406d0d8f971298d011",
    ("grid_12x9", "scaling_factor=0.7"):
        "9f26731f53bda35b2ae27ee034671c4cb2b83e517af1eae060ecc77a13c13594",
    ("grid_12x9", "absolute_size=4"):
        "9f26731f53bda35b2ae27ee034671c4cb2b83e517af1eae060ecc77a13c13594",
    ("grid_16x32", "growing"):
        "04944f172ad984231bd7c557996384f64b1bc9ea9ccf7b8688ddbd789f8585d2",
    ("grid_16x32", "highest_degree"):
        "2e9df4aa88ce5a52e010eb8d22489ddabf0802274094c63320ab0c08c3a0d6e0",
    ("grid_16x32", "scaling_factor=0.7"):
        "ab26b18bf232a4753ee0ef312e98f9383bda06e89bcbb3977af71ed7fa78e857",
    ("grid_16x32", "absolute_size=4"):
        "ab26b18bf232a4753ee0ef312e98f9383bda06e89bcbb3977af71ed7fa78e857",
    ("grid_64x64", "growing"):
        "caf04befeef25bab4eff0d42e508a23d3bc3f62d0cf69d523f3f435f3e0f1d66",
    ("grid_64x64", "highest_degree"):
        "b4f0cda74b6295d8546706ca0bdf4dae438f8e4b44143b013f409ef3fa1cd668",
    ("grid_64x64", "scaling_factor=0.7"):
        "26ea5528a0733bc23c26d988ab3e01273db698752af45b3e6bc92a4312ce97f8",
    ("grid_64x64", "absolute_size=4"):
        "26ea5528a0733bc23c26d988ab3e01273db698752af45b3e6bc92a4312ce97f8",
    ("eagle_sub_30_s1", "growing"):
        "35bc89f566c044ad5d0b172497280e918c59065a052ab6bb23390b9e4737de85",
    ("eagle_sub_30_s1", "highest_degree"):
        "cfdd18070649f4a3d2806214b27c725c412f8f183be8694d6ec15008c7d721f8",
    ("eagle_sub_30_s1", "scaling_factor=0.7"):
        "4d103ea7a187cca35da4f0e5ab615b9c7ca11ea492586a783d8d9e8be2e0477e",
    ("eagle_sub_30_s1", "absolute_size=4"):
        "cfdd18070649f4a3d2806214b27c725c412f8f183be8694d6ec15008c7d721f8",
    ("eagle_sub_64_s2", "growing"):
        "e992be49ddc9fd7be82c80729e4796e225c2163375fd0185079644cc4af98648",
    ("eagle_sub_64_s2", "highest_degree"):
        "627c8666622602724c2bcc7b3a3c8a2fb9fe3dfba8565b490ac8f174e02401d9",
    ("eagle_sub_64_s2", "scaling_factor=0.7"):
        "75ab1c9be2bb719743bb05ed2533fd8328c3d1310d0111d8afe4f89fbbdbd216",
    ("eagle_sub_64_s2", "absolute_size=4"):
        "627c8666622602724c2bcc7b3a3c8a2fb9fe3dfba8565b490ac8f174e02401d9",
    ("eagle_sub_100_s3", "growing"):
        "113221aea566ba652f25a4a9dc00a2714320b3de8cefe81d65a54957e133e62b",
    ("eagle_sub_100_s3", "highest_degree"):
        "6e942ac2cc06470f9646b4355409f9e6cdbe26215d5f2a90ef05a5234eddfa2c",
    ("eagle_sub_100_s3", "scaling_factor=0.7"):
        "24d3dfb490e2797d0ec1c5a95aaf7ef9fdc3946362450ecf48de7dd54398dbc2",
    ("eagle_sub_100_s3", "absolute_size=4"):
        "6e942ac2cc06470f9646b4355409f9e6cdbe26215d5f2a90ef05a5234eddfa2c",
    ("er_20_p0.3_s1", "growing"):
        "0812b62fafc7a3a014ca28284ac647dd6542854901f405f5744d950f5a29b9e9",
    ("er_20_p0.3_s1", "highest_degree"):
        "fb2bd283b900c925e6d3a41dc489b94c373cf35044a54d7cea56ea078456835d",
    ("er_20_p0.3_s1", "scaling_factor=0.7"):
        "6bc462cbab2149b5df9f8c736f9841b26bc6010a0b335f108d1b3b9ec30e97e2",
    ("er_20_p0.3_s1", "absolute_size=4"):
        "732f9f969cbd6a679977ef9468bddca1f69053c6633feaec0ece5ef0610a144b",
    ("er_60_p0.1_s2", "growing"):
        "e1285b53be5311158a924c53c5e8c7703c2e679a58009f6c50a3b2922306d40c",
    ("er_60_p0.1_s2", "highest_degree"):
        "b464ae27c937c246fb2a9cc872348cd50febbe42e07f365c6ee47ba7a2025d0b",
    ("er_60_p0.1_s2", "scaling_factor=0.7"):
        "c685f6c64abd5d3a64de2ead5f5ac76a5377bb9a5aebb47f612015f04684a498",
    ("er_60_p0.1_s2", "absolute_size=4"):
        "ef9a56fe0dcd8a54b03361b60cadef27dc0a37a3924b086c6b4047f1f04b377f",
    ("er_100_p0.5_s3", "growing"):
        "42fe3dc4f011d842afd52a2e1960b7ddd0132f2b83c0a6a653b6e9d9c3507f9b",
    ("er_100_p0.5_s3", "highest_degree"):
        "783e2902d26a67b281aeff05d4aade6f42e9131c415c15a4b837abccd6bda0b7",
    ("er_100_p0.5_s3", "scaling_factor=0.7"):
        "34fd2156e3d1ef3af0c06fd06eecb0fe4de39cfe38b463af326f05837739e8a9",
    ("er_100_p0.5_s3", "absolute_size=4"):
        "df7e717175341981e9c64de85779bc513fd2be137a9f0c46b0903bae79d78ff3",
}

QASM_GOLDEN = {
    ("eagle_127", "growing"):
        "5c6690d63728e5e7cb080f79e6073c1f019e47cdf4e7e8a06713217038b6361a",
    ("eagle_127", "highest_degree"):
        "236fac1e8ff4ef4fe0a5aef0bbdd2c37c72a02a81cea71667ba60b39b9df66aa",
    ("eagle_127", "scaling_factor=0.7"):
        "7c284c8e6e08b9617439bbb44dd1687867baf2fab44707d8769a746bc5f4d8e8",
    ("eagle_127", "absolute_size=4"):
        "236fac1e8ff4ef4fe0a5aef0bbdd2c37c72a02a81cea71667ba60b39b9df66aa",
    ("grid_12x9", "growing"):
        "5e307d8675ab659d4d15c36d90314ebb947c95c5ac7abf35f37551555a92aa5f",
    ("grid_12x9", "highest_degree"):
        "29321e647c888a477dcc4fa60b10d055da58c36becbaef809bb0a8c5e508a87f",
    ("grid_12x9", "scaling_factor=0.7"):
        "94d45a69df8b0d864a3f52379c1a2006249e2f7aff09d49c2334f5e9c8072445",
    ("grid_12x9", "absolute_size=4"):
        "94d45a69df8b0d864a3f52379c1a2006249e2f7aff09d49c2334f5e9c8072445",
    ("grid_16x32", "growing"):
        "a6f46a3b33f8b8cda36d0fb4b2c38296508c9c6c9eaa804154da3463190598b3",
    ("grid_16x32", "highest_degree"):
        "e65155b794529035cb8af6f77463ac5df6ae0aa4b8b1bc85dfcc9307a92c22ea",
    ("grid_16x32", "scaling_factor=0.7"):
        "a41ebd9fb598b74415cd20237eddecb34165f0755d703801deb86d091b167be5",
    ("grid_16x32", "absolute_size=4"):
        "a41ebd9fb598b74415cd20237eddecb34165f0755d703801deb86d091b167be5",
    ("grid_64x64", "growing"):
        "69aebbb6a5e7da5f61f40551c265fecd3c07be575de28b389891a9305215a83b",
    ("grid_64x64", "highest_degree"):
        "e2f21e05c6e6d5f9590d912a6f962862fb234a80949d3cda8b3f752e8b599f49",
    ("grid_64x64", "scaling_factor=0.7"):
        "6e29a90969a45b821c3ccec1c3af54ba9061d7a49b46b1e264ceee0746987709",
    ("grid_64x64", "absolute_size=4"):
        "6e29a90969a45b821c3ccec1c3af54ba9061d7a49b46b1e264ceee0746987709",
    ("eagle_sub_30_s1", "growing"):
        "3171a219eb316eb703daf9f934d76213f2f4608ad5ff23190894ba3259f88dd5",
    ("eagle_sub_30_s1", "highest_degree"):
        "3b9eabb76ae312fdd5ddd8a6c1c4e8a842e853a4ba9148bfb4593f7497adcbe0",
    ("eagle_sub_30_s1", "scaling_factor=0.7"):
        "3cd34ac75db3f8d8f932e6966b09a353fde619c39c8f74bb2ddd1dc628e6e275",
    ("eagle_sub_30_s1", "absolute_size=4"):
        "3b9eabb76ae312fdd5ddd8a6c1c4e8a842e853a4ba9148bfb4593f7497adcbe0",
    ("eagle_sub_64_s2", "growing"):
        "3d0a6333cd936def8bcbd02b6ab4b4e3ff052ffa5e1105060711119cb8109283",
    ("eagle_sub_64_s2", "highest_degree"):
        "0e9d3c85eb70442c0f578b6c42040c61bda0d25ec29ffe84187bab548ad0b3e9",
    ("eagle_sub_64_s2", "scaling_factor=0.7"):
        "79048846737b637504c679db34fd4852cee58ed7cd1326d1bf33256862015795",
    ("eagle_sub_64_s2", "absolute_size=4"):
        "0e9d3c85eb70442c0f578b6c42040c61bda0d25ec29ffe84187bab548ad0b3e9",
    ("eagle_sub_100_s3", "growing"):
        "f2bffa1db05459c1e20917daab9292940aaeafa3a0030d6b19aa5bf2da49d98d",
    ("eagle_sub_100_s3", "highest_degree"):
        "a2a11e83dfcd1244e722f08e54c0f72cb7081c513002119d809917ff8601a0ab",
    ("eagle_sub_100_s3", "scaling_factor=0.7"):
        "e2c068a4ce73600f364776420357f61a5e3fe7a3b055bc5721832f7553efd461",
    ("eagle_sub_100_s3", "absolute_size=4"):
        "a2a11e83dfcd1244e722f08e54c0f72cb7081c513002119d809917ff8601a0ab",
    ("er_20_p0.3_s1", "growing"):
        "5659d8edc26bfc40066fa45ebf8b927e1bf23642996ef07b83c2af26b855d620",
    ("er_20_p0.3_s1", "highest_degree"):
        "7772c9322de05589ea379e20d7433d59c6060732bd026542d27e1417da9848d9",
    ("er_20_p0.3_s1", "scaling_factor=0.7"):
        "d8184a0e090f9a05ba6ce5d7e00c9630b3530a4b870668c41a4c392a73506c3b",
    ("er_20_p0.3_s1", "absolute_size=4"):
        "c522286f39fd35c3728a58867b5140c02cd63bcbccffa5cff5c47f0e54b1aaf7",
    ("er_60_p0.1_s2", "growing"):
        "a0133da6fb2ca065e592f8296387abaf852ddc0b940be69c01eae5817a3dda9d",
    ("er_60_p0.1_s2", "highest_degree"):
        "ab63a087bcd009143655e65244fbebae5ec60014184ebdd331cce5c9930c1e50",
    ("er_60_p0.1_s2", "scaling_factor=0.7"):
        "0ae9fa6a2e03e29f13bc5fb509efee80d8dbdf78f9a452051640c7e0afead19b",
    ("er_60_p0.1_s2", "absolute_size=4"):
        "a92c5593cd523be180f97a2087e11fdd7c8a961cf81ccc9364535e0af128f079",
    ("er_100_p0.5_s3", "growing"):
        "1928a93704dc13ab1edf2cfc06f69a19881727390201caa9ebd8e15f89753f7d",
    ("er_100_p0.5_s3", "highest_degree"):
        "8082001d937e408d5c0f43350d9bb7ad3fb8bec9cea5173e69ea597f03060659",
    ("er_100_p0.5_s3", "scaling_factor=0.7"):
        "c939e84f69b0c5ce8103f1475bc2659d6deeb14c3d87fb3ef6751b7114c52975",
    ("er_100_p0.5_s3", "absolute_size=4"):
        "49cc8f2093db1374a93169b69282907bd4824fee1fb6d86bc008907897083fb0",
}


# (n, p): digest of the to_json() of connected_erdos_renyi(n, p, seed) for
# seeds 0, 1 and 7, joined by newlines
ER_SEEDS = (0, 1, 7)
ER_GOLDEN = {
    (1, 0.0): "2101ae211366db95827f19ec02684c15f27df4d9b53914a97733977614f950dc",
    (1, 0.1): "2101ae211366db95827f19ec02684c15f27df4d9b53914a97733977614f950dc",
    (1, 0.5): "2101ae211366db95827f19ec02684c15f27df4d9b53914a97733977614f950dc",
    (1, 1.0): "2101ae211366db95827f19ec02684c15f27df4d9b53914a97733977614f950dc",
    (2, 0.0): "327fe9a98907fd77de7758dc5cce2cae1f3bddf9eb305e9a79eaad20edba5777",
    (2, 0.1): "327fe9a98907fd77de7758dc5cce2cae1f3bddf9eb305e9a79eaad20edba5777",
    (2, 0.5): "327fe9a98907fd77de7758dc5cce2cae1f3bddf9eb305e9a79eaad20edba5777",
    (2, 1.0): "327fe9a98907fd77de7758dc5cce2cae1f3bddf9eb305e9a79eaad20edba5777",
    (3, 0.0): "d5195cad398bbd267af86b018157de52a608f22ad5dd92016f5ec3b8b54f179d",
    (3, 0.1): "d5195cad398bbd267af86b018157de52a608f22ad5dd92016f5ec3b8b54f179d",
    (3, 0.5): "af3c25c2d16912bbfb941955d2fbcf801a90b0023441722d6eaec896bff88f7d",
    (3, 1.0): "5a17028ac8b2d5d0987d6c94b49b8f1269ecdd86a8346b578e76c89e846564f5",
    (20, 0.0): "ae6b445872aa2933a0fe536c8e253ed7338fb8ab415deb7e33bb7dfb2226ba15",
    (20, 0.1): "c5ff2f6f02404872779a5909632b57101a25cfe35b2c483920a9b9efe9133586",
    (20, 0.5): "c8f2639949084396665a5047ec91af850a9f9aad99c1741c43cb8374b57a2f32",
    (20, 1.0): "753720a50f5853aebbcd831b1d49c3601691e064bc2738c584006f1bd55ea7b3",
    (60, 0.0): "a6e68caf317426e56ac4497946107cfeb0f52aeaca1345c1af91a9f9a0396eb8",
    (60, 0.1): "aa60008589f750d03363bfe7bdea0a4211db5bec39c48f91dc91835f0017a9d7",
    (60, 0.5): "921a795710da6e006dfea868dcd15444a030a386470d8316d1923d29263b3863",
    (60, 1.0): "6b38c1a399c7ef161a2f2d3709dce5ffc0bbc8a9d9e904f03939067e2576ad79",
    (100, 0.0): "538237a29ecb137397b1ef4e73137773b1b78a5717cb16b9cd1577079afe490f",
    (100, 0.1): "65431f6706d371537f53e4266e46f197321a0e3389bea51200abfb92323a137b",
    (100, 0.5): "26f6cd384cfc733f37ce50bc842bbd826ccd5c2339e97fb7ff55737845640d0d",
    (100, 1.0): "98243345e790f10da11536d7527df397b8f011188c5cedf9c4c402cf066e94f2",
    (300, 0.0): "6a8cb71340f7f90c7e4601c7418195ea317c1a5a5e1d96c40f6d63112800208d",
    (300, 0.1): "57265d8e01f7533a54835d91118da1a052cd1f17c5d7bd9c6bea8c0686273f34",
    (300, 0.5): "7b8b7ed366f5df6690b86d1de84fc7516cacb821a52457fa4d4fced74e1eaa63",
    (300, 1.0): "65ad0b2193d037f79fcfe1c51b9fc5102053ffa97e3c2b858d50adbe33243c2f",
}

# (source, k, seed): digest of sub.to_json() + repr(mapping)
SUBGRAPH_SOURCES = {
    "eagle_127": eagle_127,
    "grid_12x9": lambda: rect_grid(12, 9),
    "er_60_p0.1_s2": lambda: connected_erdos_renyi(60, 0.1, 2),
}
SUBGRAPH_GOLDEN = {
    ("eagle_127", 1, 4): "dec7d97f8d865bcea23354874e50011232e5be2928cdbf0bf751782acaf2cd34",
    ("eagle_127", 17, 4): "b2c5a7063f34296d9d6e6f38de1c266a0bcf8d1248c09a33a857af9b83be2fb9",
    ("eagle_127", 127, 4): "67f8b7240c378b9023234d39eb73c7ba38e4135a71e85cb53153648e17073d67",
    ("grid_12x9", 50, 6): "3380ed4c425213c6be5560270b00e2ec6be45767a47079c938fae2e05bb0953b",
    ("er_60_p0.1_s2", 25, 3): "327702095d079554c64e0031ffa3fba179bf18a663ba69ec46803f1b106c6485",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n,p", list(ER_GOLDEN))
def test_erdos_renyi_digest(n, p):
    text = "\n".join(connected_erdos_renyi(n, p, seed).to_json() for seed in ER_SEEDS)
    assert _sha256(text) == ER_GOLDEN[n, p]


@pytest.mark.parametrize("source,k,seed", list(SUBGRAPH_GOLDEN))
def test_random_connected_subgraph_digest(source, k, seed):
    sub, mapping = random_connected_subgraph(SUBGRAPH_SOURCES[source](), k, seed)
    assert _sha256(sub.to_json() + repr(mapping)) == SUBGRAPH_GOLDEN[source, k, seed]


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_to_json_digest(layout):
    g = LAYOUTS[layout]()
    got = {
        variant: hashlib.sha256(synth(g).to_json().encode()).hexdigest()
        for variant, synth in VARIANTS.items()
    }
    assert got == {variant: GOLDEN[layout, variant] for variant in VARIANTS}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_export_qasm_digest(layout):
    g = LAYOUTS[layout]()
    got = {
        variant: hashlib.sha256(export_qasm(synth(g)).encode()).hexdigest()
        for variant, synth in VARIANTS.items()
    }
    assert got == {variant: QASM_GOLDEN[layout, variant] for variant in VARIANTS}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_kept_counts_match_the_ops(layout):
    g = LAYOUTS[layout]()
    for variant, synth in VARIANTS.items():
        built = synth(g)
        for c in (built, Circuit.from_json(built.to_json())):
            assert count_2q(c) == sum(isinstance(op, CX) for op in c.ops), variant
            assert count_measurements(c) == sum(isinstance(op, MeasureZ) for op in c.ops), variant


# SHA-256 of the outcome lines of VALIDATION_CORPUS_SIZE random op sequences,
# joined by newlines. The seed is one whose corpus reaches the rarest message,
# a read of a twice-measured bit (`saw 2`).
VALIDATION_CORPUS_SEED = 6
VALIDATION_CORPUS_SIZE = 3000
VALIDATION_GOLDEN = "a52cbce3c4259165feaf7823bcffa631fc358c11057fbae1eadb0b38958afd1b"
# every message a per-op check can raise, with its numbers as \d+
VALIDATION_TEMPLATES = (
    r"MalformedCircuitError: op \d+: qubit \d+ out of range",
    r"MalformedCircuitError: op \d+: qubit -1 out of range",
    r"MalformedCircuitError: op \d+: qubit \d+ used after measurement without reset",
    r"MalformedCircuitError: op \d+: CX control equals target",
    r"MalformedCircuitError: op \d+: cbit \d+ out of range",
    r"MalformedCircuitError: op \d+: cbit -1 out of range",
    r"MalformedCircuitError: op \d+: CondX with no targets",
    r"MalformedCircuitError: op \d+: CondX duplicate targets",
    r"MalformedCircuitError: op \d+: cbit \d+ must be written by exactly one earlier "
    r"measurement, saw 0",
    r"MalformedCircuitError: op \d+: cbit \d+ must be written by exactly one earlier "
    r"measurement, saw 2",
    r"TypeError: unknown operation .+",
    r"ok \d+",
)
NON_OPS = ("cx 0 1", ("h", 0), None, 7)


def _index(rng: random.Random, size: int) -> int:
    """An index in -1..size: in range, when there is a range, nine times in ten."""
    if size and rng.random() < 0.9:
        return rng.randrange(size)
    return rng.choice((-1, size))


def _random_op(rng: random.Random, n: int, cbits: int):
    if rng.random() < 0.02:
        return rng.choice(NON_OPS)
    kind = rng.choice((H, X, CX, MeasureZ, Reset, CondX))
    if kind is CX:
        return CX(_index(rng, n), _index(rng, n))
    if kind is MeasureZ:
        return MeasureZ(_index(rng, n), _index(rng, cbits))
    if kind is CondX:
        targets = tuple(_index(rng, n) for _ in range(rng.randrange(4)))
        return CondX(targets, _index(rng, cbits))
    return kind(_index(rng, n))


def _validation_outcomes() -> list[str]:
    """`ok <depth>` or `<ExcType>: <message>` for each sequence of the corpus."""
    rng = random.Random(VALIDATION_CORPUS_SEED)
    lines = []
    for _ in range(VALIDATION_CORPUS_SIZE):
        n, cbits = rng.randint(1, 4), rng.randint(0, 2)
        ops = [_random_op(rng, n, cbits) for _ in range(rng.randint(0, 8))]
        try:
            lines.append(f"ok {depth(Circuit(n, cbits, ops))}")
        except (MalformedCircuitError, TypeError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return lines


def test_validation_corpus_digest():
    lines = _validation_outcomes()
    assert _sha256("\n".join(lines)) == VALIDATION_GOLDEN
    # the digest covers both sides: every message and enough accepted circuits
    for template in VALIDATION_TEMPLATES:
        assert any(re.fullmatch(template, line) for line in lines), template
    assert sum(line.startswith("ok ") for line in lines) >= 0.2 * len(lines)


SIM_CIRCUITS = {
    "eagle_127/growing": lambda: synthesize_growing(eagle_127()),
    "eagle_127/highest_degree": lambda: synthesize_merging(eagle_127(), HighestDegree()),
    "grid_16x32/growing": lambda: synthesize_growing(rect_grid(16, 32)),
    "grid_16x32/highest_degree": lambda: synthesize_merging(rect_grid(16, 32), HighestDegree()),
    **{
        f"random_{n}": (lambda n=n: random_clifford_circuit(n, 8 * n, seed=derive_seed(91, n)))
        for n in (63, 64, 65, 129)
    },
}
SIM_SHOTS = 1024
SIM_NOISE = NoiseModel(0.001, 0.01, 0.01, 0.01)
# circuit: (run, noiseless sample_counts, noisy sample_counts) digests; the run
# has seed derive_seed(92, circuit), the samples derive_seed(93, circuit). The
# noisy digests were re-pinned when the engine began drawing its errors by
# geometric skipping, one skip sampler per error class: the same error law,
# other draws. Every sample_counts digest was re-pinned again when shot s's
# key became derive_seed(m, "shot") + s (the noiseless eagle_127/growing one
# came out equal: the same 526/498 split of other shots). Every run digest is
# the one pinned before.
SIM_GOLDEN = {
    "eagle_127/growing": (
        "c27d5cf5a7af26a48488936a4091251f0682e5b8bb30b685a0bcac213dae3fb6",
        "cb186d6abde0cec469fdd31b3514d78d421bdfb08942d9956b1dc9412b850841",
        "ffcbc8c384765013a152741a2a8e3a4462dc461289dfc11a9e0ff2e7ea4f4f1e",
    ),
    "eagle_127/highest_degree": (
        "31526a849988e86e7427d50b1325513276036d03e79501c88dbaf27bcc7f90d1",
        "1205f5a373002b03db660fefa6168bd6fb75b8c41d461088efff6febbfc656e5",
        "9b49e430d8071b6bf5141278148f9f29ef956bead77d146c8a13134e50845ef9",
    ),
    "grid_16x32/growing": (
        "6cd28711149c5cd1e25567ec21f364decbd16b347d47c9b517d97de8915461b4",
        "c4b3076c5f77d6911c37ae281b6172f5b0695a8801f2cae5e29cf4427a10b930",
        "e179d2b62abd7a440bfbb3800af18251c6d1c0bb1fa59d4abce191fff6cae1d3",
    ),
    "grid_16x32/highest_degree": (
        "d0c97e66a354ff87712391bbe2d674c29d169230f89ad57e2e8ac72a3d289142",
        "5c80786483ebb1ad4d90cc0acc6c4bb9c6bf98a02e4ea5b8bfc529a8f42f948a",
        "e2179cde6e09a594bd738dbea95a0bdfe4574712d3432b9dbc0c072970397ccb",
    ),
    "random_63": (
        "853043692644d7591121f3076891bf341cd558080665d9318e00e53e555ed482",
        "e6350521b091824ebd212457d5de3da2ba7687cfd80667bcfd8e1ec7a2297eb1",
        "ec296110c8a07b2745526fe545f03b40e4508e1ea4fd4235aa0561aa95ed68d9",
    ),
    "random_64": (
        "2627ff955a9f45d012d41ba0efb35f7465333dedacbb45a24b5980b31a7dc2a1",
        "3e605f88fb02f7e40023a9aaad4b1d2c314ac818aacacdf0b59a14bde47cb7bb",
        "2231c683bfc21b3e2793965a76f1abdb8260ecbf160e30044a655c9e9826e73a",
    ),
    "random_65": (
        "72b706fe09ff870f44fccd2a3e6b35a0d572269f8ebd6f38046b1caaeb684154",
        "f6a31108b555c1ca8f52dbea1c58774e778986c639b63ac0e355912969b80e77",
        "5d0a4fc8f783ee199bf7a622b0c5e4cd11c1a462c5899b80f123c04b408a5fcf",
    ),
    "random_129": (
        "80f1b1b2801c3cf368a46ef65922ee798279c78a41df567fd66d9aefb923a459",
        "dd79fdb929ba95077484dda3aa091a51c76c7a4ff88648c14213755d1b5156b6",
        "4d9781da541ba45d7c4f56ecccb3661e2967691be7616a0e9de1f53755366ec1",
    ),
}


def _sha256_bytes(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _run_digest(out, n: int) -> str:
    sx, sz, sr = out.tableau.stabilizer_rows()
    assert sx.dtype == sz.dtype == sr.dtype == np.uint8
    assert sx.shape == sz.shape == (n, n)
    return _sha256_bytes(
        repr(out.cbits).encode(),
        repr(out.outcome_log).encode(),
        sx.tobytes(),
        sz.tobytes(),
        sr.tobytes(),
    )


@pytest.mark.parametrize("name", list(SIM_CIRCUITS))
def test_simulator_digest(name):
    c = SIM_CIRCUITS[name]()
    got = [_run_digest(run(c, seed=derive_seed(92, name)), c.qubit_count)]
    for noise in (None, SIM_NOISE):
        counts = sample_counts(c, SIM_SHOTS, derive_seed(93, name), noise)
        got.append(_sha256(repr(sorted(counts.items()))))
    assert tuple(got) == SIM_GOLDEN[name]


# Heavy noise at a shot count that is not a multiple of 64: CondX corrections
# that fire in some shots and err in fewer, reset errors, readout flips and
# the padding lanes of the last word all occur. circuit: (noisy run, noisy
# sample_counts) digests; the run has seed derive_seed(94, circuit), the
# samples derive_seed(95, circuit). Both digests are noisy, so both were
# re-pinned when the engine began drawing its errors by geometric skipping,
# and the sample_counts digests again when shot s's key became
# derive_seed(m, "shot") + s.
HEAVY_SHOTS = 1000
HEAVY_NOISE = NoiseModel(0.1, 0.2, 0.1, 0.1)
HEAVY_GOLDEN = {
    "eagle_127/highest_degree": (
        "0e8445b650a766a0e7598007c28e5254bb4b6b3bea5f4fbe9e68717a07a7a878",
        "d125518b6d4c6a4d14a50bfda753414828269fa29e86b584c3d66245c6ac476a",
    ),
    "random_65": (
        "4f53c8413e12b879acf92e212f4c1079fcaaa31d777e014c9e825a2e0ea073d6",
        "a0b7a7711c7ea1fcf09d7062bd32f448a122bd4fd5113508666d8872a519884c",
    ),
    "random_129": (
        "67f694a8123926c24e5669b3811704d631cf7e406b6e1acb2ff634cc68f28d6c",
        "c44d517e79665f9cc38bcfd99784917c348f43e1e4f4eab9106f970dc6acae44",
    ),
}


@pytest.mark.parametrize("name", list(HEAVY_GOLDEN))
def test_heavy_noise_simulator_digest(name):
    c = SIM_CIRCUITS[name]()
    out = run(c, seed=derive_seed(94, name), noise=HEAVY_NOISE)
    counts = sample_counts(c, HEAVY_SHOTS, derive_seed(95, name), HEAVY_NOISE)
    assert sum(counts.values()) == HEAVY_SHOTS
    got = (_run_digest(out, c.qubit_count), _sha256(repr(sorted(counts.items()))))
    assert got == HEAVY_GOLDEN[name]


def _measurement_runs_circuit() -> Circuit:
    """Runs of consecutive mid-circuit MeasureZ on 70 qubits (140 tableau rows).

    A deterministic run of basis states that ends on a qubit whose Z is the
    product of two stabilizers with x parts; a run that opens with a random
    GHZ measurement and has another random one inside it; CondX on bits from
    both runs; and a run over a whole random Clifford block, random and
    deterministic mixed. Some measured qubits are reset and reused; the rest
    stay measured, so the readout of sample_counts re-reads them.
    """
    n = 70
    ops = [H(0), *(CX(q, q + 1) for q in range(11))]  # GHZ on 0..11
    ops += [X(q) for q in (13, 15, 16, 19)]  # basis states on 12..19
    ops += [H(20), H(23), CX(21, 22), H(21)]  # |+> on 20, 21, 23; Z22 = X21 * X21 Z22
    rng = random.Random(96)
    for lo, hi, size in ((24, 36, 40), (36, n, 80)):  # random Clifford blocks
        for _ in range(size):
            if rng.random() < 0.3:
                ops.append(H(rng.randrange(lo, hi)))
            else:
                ops.append(CX(*rng.sample(range(lo, hi), 2)))
    ops += [MeasureZ(q, q - 12) for q in range(12, 20)] + [MeasureZ(22, 8)]  # deterministic
    ops += [MeasureZ(q, 8 + i) for i, q in enumerate((1, 2, 3, 20, 4, 5), 1)]  # cbits 9..14
    ops += [CondX((0, 6, 7, 8, 9, 10, 11), 9), CondX((21, 23), 12), CondX((23,), 1)]
    ops += [MeasureZ(q, q - 9) for q in range(24, 36)]  # cbits 15..26, the first block
    ops += [Reset(q) for q in (12, 13, 14, 15, 1, 24)]
    ops += [H(12), CX(12, 13), CX(0, 14), CX(41, 15), CX(24, 1)]
    ops += [MeasureZ(13, 27), MeasureZ(14, 28), MeasureZ(0, 29)]
    return Circuit(n, 30, ops)


# Pinned before sample_counts read out through ordinary MeasureZ events: a run
# of the circuit above at four seeds (cbits, outcome log, x/z bits and all 2n
# signs), and 1000 noiseless and 1000 heavy-noise shots of sample_counts. The
# heavy-noise digest was re-pinned when the engine began drawing its errors by
# geometric skipping, and both sample_counts digests were re-pinned when shot
# s's key became derive_seed(m, "shot") + s; the run digest is the one pinned
# before.
MEASUREMENT_RUNS_GOLDEN = (
    "1c730cb1081b76b3a25d658fbb56fc683e8748c6ae68a92e8ddb6c22f20d1318",
    "b565b15cbd18d26a6fa92f554b7291d49714209e4d24a9f45b14a650d6845005",
    "8b81f1f43a623b7a5fe5f656acd483515e4f9745ccec3da664754fccd7cece2b",
)


def test_measurement_runs_digest():
    c = _measurement_runs_circuit()
    digest = hashlib.sha256()
    for s in range(4):
        out = run(c, seed=derive_seed(97, s))
        x, z, signs = out.tableau.rows()
        for part in (repr(out.cbits).encode(), repr(out.outcome_log).encode(), x, z, signs):
            digest.update(bytes(part))
    got = [digest.hexdigest()]
    for noise in (None, HEAVY_NOISE):
        counts = sample_counts(c, HEAVY_SHOTS, derive_seed(98, "noisy" if noise else "noiseless"), noise)
        got.append(_sha256(repr(sorted(counts.items()))))
    assert tuple(got) == MEASUREMENT_RUNS_GOLDEN
