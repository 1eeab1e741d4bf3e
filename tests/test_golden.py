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
        "circuit.json": "4f07f4e970934e1d63fd268aceb3a04f327371f44509fba9feb5fae3e2d1938f",
        "synth.json": "241250356cc3acf542e9d74d92ea7732d071c8ea637aefb8c2371c7737341cfa",
        "profile.csv": "420d6b50c8420a876911d737cadd857f97b2c53141a544cc136b1d50354ed00c",
        "profile.json": "867471a3b83bd216d843922af4ba4942aee4f83f49a2663c53a6a526e2c605b5",
    },
    ("--dirty-b1", "--epsilon", "1e-6"): {
        "circuit.json": "9d3fa44efff7605a3a40787b47f2dc61202223504f8eb9348d678dac1f9c67f2",
        "synth.json": "22c133432532b9fec2ce619e7bf64f8c0f6118e9a702d441c32a6175e4f31c97",
        "profile.csv": "7650d02366eb8269bd0662cc5e6096583d34c4fdf7e52bd891b3f837f814b60c",
        "profile.json": "31674d66e63a1fa78af327f22b2b74c9cde3f43908b75462aa576cce82ff1713",
    },
    ("--complex",): {
        "circuit.json": "c05451a36fcd71461a45180b2666bc527310f5af2dc7f9635a3d37b35f9ebb95",
        "synth.json": "948e26cc206fe8b8b07f0ff1537a8948eb5f8bce30d847cfd1e2e405a7c40c61",
        "profile.csv": "eb4b6a97fb88c005aa72bb7445e893e2f666cae7e8ee3e7f5ee26b11599cd7b1",
        "profile.json": "126864df4b124374adfb7517ee7722e364c19e92b38a5d6b1475253dcb74b84e",
    },
    ("--no-fanout",): {
        "circuit.json": "84b47f2a7f3c07f7b861316d67541d459c5d2af55c69f09ed230fa2eda8ba36c",
        "synth.json": "16f51eb6b5896159539e31f7ba145a749a2190c640c25e750b460bba9ae90aba",
        "profile.csv": "cb43ef40a2d5e2b66d0143135629bf4c1505fee885bfe2d217356ce1f1114b61",
        "profile.json": "606bc00c83a1404d5a1fdd033e0ee5f89001ddfbaefea5d42b3cf8393220ee43",
    },
    ("--complex", "--no-fanout"): {
        "circuit.json": "9fab271f9bf334b7e57fef47c5868559b85feae6596426d17ab8b9a840eb6cd8",
        "synth.json": "c679e0f6ef98a04dd901659b7dff191791e6480adc22a2a9aaf96fbfc3e5ef88",
        "profile.csv": "0e11586c8c02b4cc3bd406e0b29914af3f739bb811d8ab0b8720f3b39969c1fe",
        "profile.json": "05ad87d3855a1db526976573e08e470b4fa0c4521fc37b45f0a2a7b3a955fe4b",
    },
    ("--loadf-first-optimized",): {
        "circuit.json": "fcd7be5b16e36093d1cec8c3803aa62eafc1d5d438941bd2349dc8f2256a6298",
        "synth.json": "7192474ff59e7ff7b71ad766008609c1cf8a034f4dc58ea61e347feaf4d2f9e7",
        "profile.csv": "91111a4dedfcfbcc866dbdd6802d20c3fd780430acce37baff05018ec28529fb",
        "profile.json": "e21bcd74b9581ae28816553982103ce601c3af9f07b7e7d88d45dc48a1cba5c7",
    },
    ("--complex", "--loadf-first-optimized"): {
        "circuit.json": "e0247e09e7ae1cdc99d3e8ac5c445fe4f951b54d823cd8ddac51b916217c2399",
        "synth.json": "27d8dacc621b56a2eff8c07c75b704650e8c632412590661004cf7653069102d",
        "profile.csv": "56d5c9b4d78d5d03d0012e801a5268d73a39472c0cb6082fb278fdc5ce07ece9",
        "profile.json": "02118fab70916e63b1ff7d050ec7d6ea56adf1945d8283b888b3adcc87635ac3",
    },
    ("--complex", "--loadf-first-optimized", "--no-fanout"): {
        "circuit.json": "a8ae222a99cb20dc87aea6b25da05ae0ab50d5b5feaec368c5a96d933fdcf86f",
        "synth.json": "45693eba8648cb15a31f239909ea8e53cf3ea8b9f489cca07d7ed827c475fc8b",
        "profile.csv": "529958052b04c5e97d3ea902ce4b9c7d0502c61091edf2466dd6ccc416b1485c",
        "profile.json": "56019b7dd26d6eae5fc38a6fd140b08544654defb4e1c9653c34f0a3cdd1439b",
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
    (3, 1, False, False): "94d50ffc986a67a666d967bcd828b4e82822821313bdc8082c1ee289e1879e84",
    (3, 1, False, True): "27d8328fd1a22c3d7d34f3ec224dba0a94588f34bc598f55b571613742b9e606",
    (3, 1, True, False): "e0d2262c33bfc5f89ca960c7adeb37dc161ea5d9615fe56d5559783c3fb4d123",
    (3, 1, True, True): "48308c0cde07917b5cb787269fc053d68657d5433dd4326fa5dd622d0e5fc9da",
    (5, None, True, False): "39c95888efdb9ce219f42a50200f30602a1c62a3f229b13e42845ddbf031d142",
    (5, 2, False, False): "c8a529c5d5433f24ebe22a7549a359b6567a42654e2ed3250e03ad9b01286aae",
    (5, 2, False, True): "55c2a41add36b84a6e5152958ea2fd321ca29d88828f8cb2d8a0b47cf9811e4f",
    (5, 2, True, False): "f67946c873a95ebf2d1515dd097e11eb82c5aa6a46439ce9993e0e2b4329ae18",
    (5, 2, True, True): "cccef60d4cc531a5a8066888f88c4822138c84a0c482bb41f17eb94c70e184e4",
}

#: output name -> sha256, for the seeded 4 x n=5 batch of ``batch_targets()``
MULTICOPY_GOLDEN = {
    "batch_circuit.json": "f9b9ed99196db1b434bb91b0358984514d0971537b688ea3e7c348c4fcd66a96",
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
        "fragment.json": "b364565133aeff72ab83f8898d400fd2d41aa64c403797dc75ff44f118af6ad2",
        "fragment_report.json": "7f53eb213b10555535093d501bd07c66459938f0eba1120a4637fee1d5d9a010",
    },
    "loadf_dirty_b1_no_fanout": {
        "fragment.json": "8136deaed4ff69cf8b8a69adc06b04dfa3649e7898fde788b13a89013605dae3",
        "fragment_report.json": "09eeeeac103bc690331e826c75cc822ce20026368b55e0cfc7e38a7e06e996d0",
    },
    "loadf_complex": {
        "fragment.json": "7e9cd8a15cb8bb9a03398d56cf7713e7c44a4b291b542eff8a2c806339d92d1c",
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
