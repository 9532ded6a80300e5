"""Seeded generators: determinism, canonical text, stored input hashes."""

import hashlib
import json

import pytest

import workloads
from conftest import BENCH

SYNTHETIC = [n for n in workloads.NAMES if n != "bundled_reproduce"]


@pytest.mark.parametrize("name", SYNTHETIC)
def test_same_seed_gives_identical_inputs(name):
    first, planted = workloads.generate(name, 7)
    again, planted_again = workloads.generate(name, 7)
    assert first == again and planted == planted_again
    other, _ = workloads.generate(name, 8)
    assert other["table.csv"] != first["table.csv"]


@pytest.mark.parametrize("name", SYNTHETIC)
def test_inputs_match_the_stored_hashes(name):
    refs = json.loads((BENCH / "references" / f"{name}.json").read_text())["seeds"]
    for seed, record in refs.items():
        files, _ = workloads.generate(name, int(seed))
        text = files["table.csv"] + files.get("model.json", "")
        assert hashlib.sha256(text.encode()).hexdigest() == record["inputs_sha256"], seed


@pytest.mark.parametrize("name", SYNTHETIC)
def test_table_text_is_in_canonical_emit_form(name):
    from casecontrol import emit, ingest

    text = workloads.generate(name, 0)[0]["table.csv"]
    assert emit(ingest(text)) == text
    variables, counts = workloads._parse_csv(text)
    assert ingest(text).variables == variables
    assert (ingest(text).counts == counts).all()
