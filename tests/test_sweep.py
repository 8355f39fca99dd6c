"""The layer sweep of bench/baseline.py gives the answers recorded in
bench/records/baseline.json: one digest per (pair, p, op), byte for byte."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from baseline import sweep  # noqa: E402


def test_sweep_digests_match_the_record():
    with open(ROOT / "bench/records/baseline.json", encoding="utf-8") as fh:
        want = {(r["pair"], r["p"], r["op"]): r["digest"] for r in json.load(fh)["sweep"]}
    got = {(r["pair"], r["p"], r["op"]): r["digest"] for r in sweep()}
    assert len(want) == 48
    assert got == want
