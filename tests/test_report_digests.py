"""Every report of the digest corpus (`record_report_digests.py`) is recomputed
and compared with its recorded digest in `report_digests.json`, so each
canonical report stays byte-identical unless the file is re-recorded. The
same pass validates every report-v1 document against `docs/report_schema.json`."""

import json
from pathlib import Path

import jsonschema

from record_report_digests import DIGESTS, changed_keys, digests, reports
from toursid.constructions import star
from toursid.properties import check_anti_on_family

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text()
)


def _validated(entries, seen: list):
    """Pass `entries` through, validating each report-v1 document."""
    validator = jsonschema.Draft7Validator(SCHEMA)
    for key, text in entries:
        if text.startswith("{"):
            doc = json.loads(text)
            if doc.get("schema") == SCHEMA["$id"]:
                errors = [e.message for e in validator.iter_errors(doc)]
                assert not errors, f"{key}: {errors[:3]}"
                seen.append(key)
        yield key, text


def test_every_report_matches_its_recorded_digest():
    recorded = json.loads(DIGESTS.read_text())
    seen = []
    changed = changed_keys(recorded, digests(_validated(reports(), seen)))
    assert not changed, f"{len(changed)} reports changed:\n" + "\n".join(changed)
    # the quasi and forcing entries are not reports
    assert len(seen) == sum(not k.startswith(("quasi|", "forcing|")) for k in recorded)


def test_schema_refuses_a_key_outside_its_regime():
    validator = jsonschema.Draft7Validator(SCHEMA)
    doc = json.loads(check_anti_on_family(star(2, 2), "transitive", [4, 5]).to_json())
    sampled = json.loads(
        check_anti_on_family(star(2, 2), "transitive", [4, 5], seed=3, samples=10).to_json()
    )
    assert validator.is_valid(doc) and validator.is_valid(sampled)
    for original, edit in (
        (doc, lambda d: d["regime"].update(base="1 0\n")),  # base belongs to blowup
        (doc, lambda d: d["regime"].update(samples=5)),  # samples to sampled-family
        (doc, lambda d: d["curve"][0].update(hits=1)),  # an exact row has no hits
        (doc, lambda d: d["extra"].update(witness_hits=1)),
        (doc, lambda d: d["regime"].update(seed=3)),  # an exact transitive scan has none
        (sampled, lambda d: d["regime"].pop("seed")),  # a sampled scan records its seed
    ):
        tampered = json.loads(json.dumps(original))
        edit(tampered)
        assert not validator.is_valid(tampered)
