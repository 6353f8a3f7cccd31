"""The byte-identity tool runs end to end at test size, and its digests
are the recorded ones."""
import re

import pytest

import identity


@pytest.fixture(scope="module")
def tiny():
    """One test-size digest run, shared by the tests of this module."""
    return identity.digests(tiny=True)


def test_identity_digests_every_output_family(tiny):
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in tiny.values())
    assert {name.split("/")[0].split(".")[0] for name in tiny} == {
        "library", "smoke", "track", "distill", "combat",
    }
    for name in ("smoke/data/idle-5000.clip", "smoke/track/pi_track.ckpt",
                 "smoke/slmp/pi_phi.ckpt", "smoke/combat/metrics.csv",
                 "smoke/eval-track.csv", "smoke/fight.fighter2.clip",
                 "track.params", "track.envs", "distill.metrics", "combat.params",
                 "combat.decisions", "combat.contacts", "combat.swap"):
        assert name in tiny


def test_tiny_digests_are_the_recorded_ones(tiny):
    """Every output family has the digest of ``identity_tiny.txt``.  The
    row rule that makes them independent of the batch split is a property
    of the host's BLAS kernels, so on a host other than the record's the
    test is skipped, naming the fields that differ."""
    head, recorded = identity.read_record()
    other = [f"{key} {head.get(key)!r} recorded, {value!r} here"
             for key, value in identity.host().items() if head.get(key) != value]
    if other:
        pytest.skip("the record was made on another host: " + "; ".join(other))
    changed = identity.changes(recorded, tiny)
    assert not changed, "families that differ from identity_tiny.txt:\n" + "\n".join(changed)


def test_changes_name_every_moved_added_and_missing_family():
    recorded = {"a": "1", "b": "2", "c": "3"}
    assert identity.changes(recorded, {"a": "1", "b": "9", "d": "4"}) == ["moved b", "added d", "missing c"]
    assert identity.changes(recorded, dict(recorded)) == []


def test_record_round_trip(tmp_path):
    found = {"library.frames": "ab" * 32, "smoke/x.ckpt:values": "cd" * 32}
    identity.write_record(found, tmp_path / "r.txt")
    assert identity.read_record(tmp_path / "r.txt") == (identity.host(), found)
