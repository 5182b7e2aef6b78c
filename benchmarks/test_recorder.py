"""The bench recorder: one section per call, the others kept."""

import json

from recorder import SCHEMA_VERSION, record


def test_record_replaces_its_section_and_keeps_the_others(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    record("alpha", {"kept": 1, "dropped": 2}, path=path)
    record("beta", {"sibling": 3}, path=path)
    # A rerun that no longer writes "dropped" leaves no trace of it.
    record("alpha", {"kept": 4}, path=path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload == {"schema": SCHEMA_VERSION,
                       "sections": {"alpha": {"kept": 4},
                                    "beta": {"sibling": 3}}}
