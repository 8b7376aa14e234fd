"""Every report of the digest corpus (`record_report_digests.py`) is recomputed
and compared with its recorded digest in `report_digests.json`, so each
canonical report stays byte-identical unless the file is re-recorded."""

import json

from record_report_digests import DIGESTS, digests


def test_every_report_matches_its_recorded_digest():
    recorded = json.loads(DIGESTS.read_text())
    got = digests()
    changed = sorted(k for k in recorded.keys() | got.keys() if recorded.get(k) != got.get(k))
    assert not changed, f"{len(changed)} reports changed, e.g. {changed[:5]}"
