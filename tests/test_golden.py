"""Golden digests: `synth`, `profile`, `reflection`, `multicopy`, `simulate
--enumerate-basis` and `fragment` output must stay byte-identical.

The digests were recorded from the code before the lean read/write path
(one-pass `loads`, cyclic GC off in `cli.main`); the `--complex`,
`--no-fanout` and `--loadf-first-optimized` cases from the code before
every uncompute went through `circuit_ir.Block`; the reflection,
multicopy, basis-enumeration and fragment cases from the code before
qubits became plain ints; the `spf` fragment cases from the code before
the SPF ladder schedule became a closed form.  The multicopy digests were
re-recorded when the indentation walk began at k = 1: that batch's k went
from 9 to 3, and its circuit is byte-identical to the older code's output
under `--indent 3`.  The two `--complex --loadf-first-optimized` cases,
which pin LOADF's flag-free complex rotation sequence and its adjoint,
were recorded from the code before the emitters placed gate columns
directly (before LOADF's adjoint stopped going through `Gate.inverse`).
The digests of every output that holds LOADF rotations (the 8 synth
circuits and their profile reports, the reflections with a CSP stage, the
multicopy circuit and the 3 `loadf` fragments) were re-recorded when the
CSP angles began to come straight from each segment's masses instead of
from cos^2 of the contiguous angles: only LOADF's rotation parameters
moved, by at most 3.5e-15 here, the rounding error the round trip left.
The `loadf` and `loadf_dirty_b1_no_fanout` fragment digests were
re-recorded when `fragment loadf` began to keep the phases of a target
that is not real non-negative without `--complex`, as `synth` does: their
target is complex, so the `loadf` circuit is now `loadf_complex`'s.
A change that alters
the circuit JSON, a report or the profile CSV on purpose records new
digests here and says why.
"""

import hashlib
import json
import random

import pytest

from qsprep.cli import main

OUTPUTS = ("circuit.json", "synth.json", "profile.csv", "profile.json")

#: layout flags that only `synth` takes
SYNTH_ONLY = {"--complex", "--dirty-b1", "--loadf-first-optimized", "--no-fanout"}

#: flags -> sha256 of each output, for the seeded n=8 target below
GOLDEN = {
    (): {
        "circuit.json": "8d57c10018cb610ba1797e453232ea6cb93643ec56b3ed2dab7f43c74304621d",
        "synth.json": "241250356cc3acf542e9d74d92ea7732d071c8ea637aefb8c2371c7737341cfa",
        "profile.csv": "420d6b50c8420a876911d737cadd857f97b2c53141a544cc136b1d50354ed00c",
        "profile.json": "483ec3e7834798f07408ee2d6127e3d74dec7a5844af9c08d98296d3a8f9b0e8",
    },
    ("--dirty-b1", "--epsilon", "1e-6"): {
        "circuit.json": "97882b0d67f24ba54ee6663e535fddc822e711e34ff599914f7a148f4f35c553",
        "synth.json": "22c133432532b9fec2ce619e7bf64f8c0f6118e9a702d441c32a6175e4f31c97",
        "profile.csv": "7650d02366eb8269bd0662cc5e6096583d34c4fdf7e52bd891b3f837f814b60c",
        "profile.json": "2a97358a0adf26b4f70bdba693a0bf31eb594a55cd8807184989eba6be549f35",
    },
    ("--complex",): {
        "circuit.json": "c3d83ebf86e14595e63e4bb6deeb2fa2c37f5fc038f4033193574e1d71b01001",
        "synth.json": "948e26cc206fe8b8b07f0ff1537a8948eb5f8bce30d847cfd1e2e405a7c40c61",
        "profile.csv": "eb4b6a97fb88c005aa72bb7445e893e2f666cae7e8ee3e7f5ee26b11599cd7b1",
        "profile.json": "9c0361c90e5975078e10a4bb7fedcfb07bcb7d87e990107bbcf505df11e9c754",
    },
    ("--no-fanout",): {
        "circuit.json": "d7014ca1a01aa8de626ff3f3936841cd6c1c23b82e5f6f72ddd8939b01f77838",
        "synth.json": "16f51eb6b5896159539e31f7ba145a749a2190c640c25e750b460bba9ae90aba",
        "profile.csv": "cb43ef40a2d5e2b66d0143135629bf4c1505fee885bfe2d217356ce1f1114b61",
        "profile.json": "76a1e83e948e71cbfdf28a6c81427f765c2cec76ff1859cebe8eebcb4232341b",
    },
    ("--complex", "--no-fanout"): {
        "circuit.json": "8ce8604d55e8310207ef8ab5670b2562f6034e7ec51dcf5117032b8c8e58c9b6",
        "synth.json": "c679e0f6ef98a04dd901659b7dff191791e6480adc22a2a9aaf96fbfc3e5ef88",
        "profile.csv": "0e11586c8c02b4cc3bd406e0b29914af3f739bb811d8ab0b8720f3b39969c1fe",
        "profile.json": "b23e60efb66b19fdd9a36fcadbdcf2b8d84ffe8495b6b9aeafa0dbeca25f8516",
    },
    ("--loadf-first-optimized",): {
        "circuit.json": "9abd9069739434e2a65206be5d2332d346879321bb02d1363b22d35d8eba1ebf",
        "synth.json": "7192474ff59e7ff7b71ad766008609c1cf8a034f4dc58ea61e347feaf4d2f9e7",
        "profile.csv": "91111a4dedfcfbcc866dbdd6802d20c3fd780430acce37baff05018ec28529fb",
        "profile.json": "cc2739e81bafd775cdf062fff7df9871aa00747d1600e6d6c9beabf099118522",
    },
    ("--complex", "--loadf-first-optimized"): {
        "circuit.json": "d69710663bcfb0b072aa949ec2cfe8b39393a3a48540a5f8481401932eb9b755",
        "synth.json": "27d8dacc621b56a2eff8c07c75b704650e8c632412590661004cf7653069102d",
        "profile.csv": "56d5c9b4d78d5d03d0012e801a5268d73a39472c0cb6082fb278fdc5ce07ece9",
        "profile.json": "beb4871b18ed50284aa2ba1d3af512f2aabf36c9c8922c4cb8bcd82e4721f000",
    },
    ("--complex", "--loadf-first-optimized", "--no-fanout"): {
        "circuit.json": "7e201e4307fdcc20618ac07c83374b5762cd418744718c96d0a47bfa2b58392b",
        "synth.json": "45693eba8648cb15a31f239909ea8e53cf3ea8b9f489cca07d7ed827c475fc8b",
        "profile.csv": "529958052b04c5e97d3ea902ce4b9c7d0502c61091edf2466dd6ccc416b1485c",
        "profile.json": "8ee04506db96e2c07953bbb70bf48cb171843e6b3e592d2b56f866b537938da4",
    },
}


def golden_target() -> dict:
    """Dense real n=8 target from a fixed stdlib seed."""
    rng = random.Random(8)
    return {"amplitudes": [rng.uniform(0.05, 1.0) for _ in range(1 << 8)]}


def output_digests(workdir, flags) -> dict:
    """Run synth then profile in ``workdir`` (relative paths keep the reports stable)."""
    (workdir / "target.json").write_text(json.dumps(golden_target()))
    profile_flags = [f for f in flags if f not in SYNTH_ONLY]
    assert main(["synth", "--in", "target.json", *flags,
                 "--out", "circuit.json", "--report", "synth.json"]) == 0
    assert main(["profile", "--in", "circuit.json", *profile_flags,
                 "--out", "profile.csv", "--report", "profile.json"]) == 0
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.mark.parametrize("flags", list(GOLDEN), ids=["paper", "dirty_b1_epsilon", "complex",
                                                     "no_fanout", "complex_no_fanout",
                                                     "loadf_first_optimized",
                                                     "complex_loadf_first_optimized",
                                                     "complex_loadf_first_optimized_no_fanout"])
def test_outputs_match_golden_digests(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    assert output_digests(tmp_path, flags) == GOLDEN[flags]


# -- beyond synth: reflection, multicopy, basis enumeration, fragments ----------------

#: (n, m, fanout, dirty_b1) -> sha256 of ``dumps(reflection(...))`` for the seeded
#: target of ``reflection_target(n)``; m=None is the default split (SP-only at n=3, 5)
REFLECTION_GOLDEN = {
    (3, None, True, False): "c306aac3a87db08c19b0cd7f709bc97f37d2ed305bd3b4e5095f23e7a5291983",
    (3, 1, False, False): "7bf6ccebd7b8de211a5e935da79348841046cffa8deafbb037749d23c1afc053",
    (3, 1, False, True): "f0977e5796bf6b1960581dc4f2693e73db5e897af675c9cd249d8e89d1294625",
    (3, 1, True, False): "c9689788ed964957f108d8d9e2ed75e4ce4dee7ccfec65b9b00a76277a2c100d",
    (3, 1, True, True): "4dfea7d5150a0da7508c6d28f67fe1994203f23088b5cb8995a00795b73b2b36",
    (5, None, True, False): "39c95888efdb9ce219f42a50200f30602a1c62a3f229b13e42845ddbf031d142",
    (5, 2, False, False): "67b83dcb28848343b526bc2486a5122d552445e053dd751013855a31a91525e2",
    (5, 2, False, True): "37a57689cfcba4bf1e1363a64cd7940666943e7d07c8d61fd3ceb3a4a32755ff",
    (5, 2, True, False): "c773f7b3bbd666cec7f146e4716a6eecad7ccf3f4e466ee5bc6802673126fd50",
    (5, 2, True, True): "f499116994e1d88d0f052be135ded74b0bfc7fe595fb1fc615bc0e144a55724e",
}

#: output name -> sha256, for the seeded 4 x n=5 batch of ``batch_targets()``
MULTICOPY_GOLDEN = {
    "batch_circuit.json": "7d3664823766cac2cfe804b51a69d4560bdd7aaebc9d15df1f828baa0fe29350",
    "batch_report.json": "4740824562caddc0a335fbe38110fa5dd5359b4b351c202adca00eda2e670311",
}

#: output name -> sha256, for ``fragment flag --m 3`` and its ``simulate --enumerate-basis`` report
ENUMERATE_GOLDEN = {
    "flag.json": "dd1ae452e0cac6fca82d0068618cebeb3d07be8d4b181c9fa1967c16c605a70b",
    "cases.json": "b094bd5152cf8a052dbe8df14cbee456959a9cfd7b6db1046735a733a37cc5c8",
}

#: fragment case of ``FRAGMENT_ARGS`` -> {output name: sha256}
FRAGMENT_GOLDEN = {
    "copy": {
        "fragment.json": "f42fb7ce25a99551bd28d65902b617d2eba57dfc119c841425b01ad4cfd36ea9",
        "fragment_report.json": "10988d5190a0679322ecd5fd02519cca037ec45d4a6ddd2b43326213ee41349a",
    },
    "copyswap": {
        "fragment.json": "3f1d30a50cb61fc49f58f7de36843f03d7bab5b5234b994047b3c1d2a32752ac",
        "fragment_report.json": "d888e922c12e6fa6bfdebe198fabb34f98fd53f3e76db3691f74ba84ca54c8ff",
    },
    "loadf": {
        "fragment.json": "01fc25b3376b2a13df644fa46405f8341f9f48f6299c4c0a80f53caaa1b1b995",
        "fragment_report.json": "874fd9471d1381672b94a2a9c43bb528774e28566f1fc3368c42a159eca25adc",
    },
    "loadf_dirty_b1_no_fanout": {
        "fragment.json": "021fe386e096c0b30d90da23e45b5b29896db452c6b5583aed3a981cf7a46f34",
        "fragment_report.json": "4acc16b36c1e184a095cfb5cfaa13b17d5f1a92e80ced416831bbbe0b33c2e42",
    },
    "loadf_complex": {
        "fragment.json": "01fc25b3376b2a13df644fa46405f8341f9f48f6299c4c0a80f53caaa1b1b995",
        "fragment_report.json": "8bb64eef117bea43d73e64c6f96157e7028465801c58388f4f5b54e70251d0e2",
    },
    "spf": {
        "fragment.json": "26934c83ecdd5afc8406ee6303aeceb1dcb2ee4eb86be92b527bf301bdb4687c",
        "fragment_report.json": "a727a1b7d695cf9b0a02754ef8377d79adfdb16fa796d0a60300fdb88ebfe8fb",
    },
    "spf_basis": {
        "fragment.json": "84611c3a29047cdb6d319f41e0c259dea7c42f82aabdfd2c0d779ec05b44d30c",
        "fragment_report.json": "ba6cd6c48ee40aca420acaaee302b7f537bc3d8fe003f28cdff83a1945320e59",
    },
}

FRAGMENT_ARGS = {
    "copy": ("copy", "--m", "3"),
    "copyswap": ("copyswap", "--m", "3", "--basis", "5"),
    "loadf": ("loadf", "--m", "2", "--in", "target.json"),
    "loadf_dirty_b1_no_fanout": ("loadf", "--m", "2", "--in", "target.json",
                                 "--dirty-b1", "--no-fanout"),
    "loadf_complex": ("loadf", "--m", "2", "--in", "target.json", "--complex"),
    "spf": ("spf", "--m", "7"),
    "spf_basis": ("spf", "--m", "4", "--basis", "5"),
}


def reflection_target(n: int):
    from qsprep.amplitudes import make_target

    rng = random.Random(100 + n)
    return make_target([rng.uniform(0.05, 1.0) for _ in range(1 << n)])


def reflection_digest(n, m, fanout, dirty_b1) -> str:
    from qsprep import protocols as proto
    from qsprep.circuit_ir import dumps

    cfg = proto.ProtocolConfig(n=n, m=m, fanout=fanout, dirty_b1=dirty_b1)
    text = dumps(proto.reflection(reflection_target(n), cfg))
    return hashlib.sha256(text.encode()).hexdigest()


def batch_targets() -> dict:
    rng = random.Random(45)
    return {"targets": [[rng.uniform(0.05, 1.0) for _ in range(1 << 5)] for _ in range(4)]}


def digests(workdir, names) -> dict:
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in names}


def multicopy_digests(workdir) -> dict:
    (workdir / "batch.json").write_text(json.dumps(batch_targets()))
    assert main(["multicopy", "--in", "batch.json",
                 "--out", "batch_circuit.json", "--report", "batch_report.json"]) == 0
    return digests(workdir, ("batch_circuit.json", "batch_report.json"))


def enumerate_digests(workdir) -> dict:
    assert main(["fragment", "flag", "--m", "3", "--out", "flag.json", "--report", "flag_report.json"]) == 0
    assert main(["simulate", "--in", "flag.json", "--enumerate-basis", "--report", "cases.json"]) == 0
    return digests(workdir, ("flag.json", "cases.json"))


def fragment_digests(workdir, argv) -> dict:
    rng = random.Random(52)
    amps = [[rng.uniform(0.05, 1.0), rng.uniform(-1.0, 1.0)] for _ in range(1 << 5)]
    (workdir / "target.json").write_text(json.dumps({"amplitudes": amps}))
    assert main(["fragment", *argv, "--out", "fragment.json", "--report", "fragment_report.json"]) == 0
    return digests(workdir, ("fragment.json", "fragment_report.json"))


@pytest.mark.parametrize("key", list(REFLECTION_GOLDEN), ids=lambda k: "n%d_m%s_fanout%d_dirty%d" % k)
def test_reflection_matches_golden_digest(key):
    assert reflection_digest(*key) == REFLECTION_GOLDEN[key]


def test_multicopy_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert multicopy_digests(tmp_path) == MULTICOPY_GOLDEN


def test_enumerate_basis_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert enumerate_digests(tmp_path) == ENUMERATE_GOLDEN


@pytest.mark.parametrize("name", list(FRAGMENT_ARGS))
def test_fragment_matches_golden_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert fragment_digests(tmp_path, FRAGMENT_ARGS[name]) == FRAGMENT_GOLDEN[name]
