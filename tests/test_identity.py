"""The byte-identity tool runs end to end at test size."""
import re

import identity


def test_identity_digests_every_output_family():
    digests = identity.digests(tiny=True)
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())
    assert {name.split("/")[0].split(".")[0] for name in digests} == {
        "library", "smoke", "track", "distill", "combat",
    }
    for name in ("smoke/data/idle-5000.clip", "smoke/track/pi_track.ckpt",
                 "smoke/slmp/pi_phi.ckpt", "smoke/combat/metrics.csv",
                 "smoke/eval-track.csv", "smoke/fight.fighter2.clip",
                 "track.params", "distill.metrics", "combat.params"):
        assert name in digests
