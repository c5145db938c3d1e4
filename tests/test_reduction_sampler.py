"""tools/reduction_sampler.py: mutate and higgs on seeded random documents."""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from pathlib import Path

from quiveralg.qpformat import parse_qp

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reduction_sampler.py"
spec = importlib.util.spec_from_file_location("reduction_sampler", TOOL)
sampler = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sampler)


def test_sampler_calls_end_in_an_answer_or_a_typed_refusal(capsys):
    assert sampler.main(["--seed", "3", "--documents", "40"]) == 0
    *calls, last = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {c["command"] for c in calls} == {"mutate", "higgs"}
    assert {c["exit"] for c in calls} <= {0, 3, 4}
    assert all(c["stderr"].startswith("error: ") for c in calls if c["exit"])
    counts = Counter((c["command"], str(c["exit"])) for c in calls)
    assert last == {"summary": {
        command: {code: n for (cmd, code), n in sorted(counts.items()) if cmd == command}
        for command in ("higgs", "mutate")
    }}
    assert counts["mutate", "0"] and counts["higgs", "0"]


def test_sampler_documents_have_the_stated_shape():
    rng = sampler.random.Random(5)
    for _ in range(200):
        doc = parse_qp(sampler.random_document(rng)[0])
        assert 3 <= len(doc.quiver.vertices) <= 4 and 3 <= len(doc.quiver.arrows) <= 7
        assert len(doc.potential.terms) <= 4
        assert all(2 <= len(w) <= 4 for w in doc.potential.terms)
