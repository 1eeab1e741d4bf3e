"""Golden digests: `synth` and `profile` output must stay byte-identical.

The digests were recorded from the code before the lean read/write path
(one-pass `loads`, cyclic GC off in `cli.main`); the `--complex`,
`--no-fanout` and `--loadf-first-optimized` cases from the code before
every uncompute went through `circuit_ir.Block`.  A change that alters
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
                                                     "loadf_first_optimized"])
def test_outputs_match_golden_digests(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    assert output_digests(tmp_path, flags) == GOLDEN[flags]
