"""One SHA-256 per output family of the package, for byte-identity checks.

    PYTHONPATH=src python tests/identity.py > digests.txt

prints ``<family> <sha256>`` lines for

- the frames of ``motion.generate_library()``;
- every file the ``SMOKE_CFG`` command-line pipeline writes (gen-data,
  train-track, distill, eval-track, eval-survival, viz-sphere,
  train-combat, rollout);
- the final parameters and ``metrics.csv`` of 2 updates each of
  ``train_tracking``, ``train_slmp`` (``slmp_update``) and 2 epochs of
  ``self_play_train``, chained as in the pipeline: the distillation reads
  the tracking expert and self-play reads the distilled prior.

A byte-identity check of a change is a diff of the output of two
checkouts.  ``digests(tiny=True)`` runs the same families at test size.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from slmp import cli  # noqa: E402
from slmp import combat as cb  # noqa: E402
from slmp import distill as di  # noqa: E402
from slmp import motion as mo  # noqa: E402
from slmp import tracking as tr  # noqa: E402
from test_cli import SMOKE_CFG  # noqa: E402

SEED = 11
TINY_COUNTS = {"idle": 1, "footwork": 1, "jab": 1}
TINY_TRACK = {"envs": 2, "horizon": 8, "epochs_per_update": 1}
TINY_SLMP = {"envs": 2, "fresh_per_update": 8, "batch": 32}
TINY_COMBAT = {"envs": 1, "horizon": 4}


def sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def array_sha(arrays) -> str:
    return sha(*(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays))


def smoke_pipeline(work: Path) -> dict[str, str]:
    """Digest of every file the ``SMOKE_CFG`` pipeline writes under ``work``."""
    cfg = work / "smoke.cfg"
    cfg.write_text(SMOKE_CFG)
    common = ["--seed", "5", "--config", str(cfg)]
    data, track, slmp, combat = (str(work / d) for d in ("data", "track", "slmp", "combat"))
    for argv in (
        ["gen-data", "--out", data],
        ["train-track", "--out", track, "--clips", data],
        ["distill", "--expert", track, "--out", slmp, "--clips", data, "--mode", "slmp",
         "--skip-expert-check"],
        ["eval-track", "--slmp", slmp, "--expert", track, "--clips", data,
         "--out", str(work / "eval-track.csv")],
        ["eval-survival", "--slmp", slmp, "--out", str(work / "eval-survival.csv")],
        ["viz-sphere", "--slmp", slmp, "--out", str(work / "cloud.txt")],
        ["train-combat", "--slmp", slmp, "--out", combat],
        ["rollout", "--mode", "combat", "--ckpt", combat, "--frames", str(work / "fight.clip"),
         "--seconds", "1"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv + common)
        if code != 0:
            raise RuntimeError(f"slmp {argv[0]} failed")
    return {
        f"smoke/{p.relative_to(work).as_posix()}": sha(p.read_bytes())
        for p in sorted(work.rglob("*")) if p.is_file() and p != cfg
    }


def training(work: Path, clips: list[mo.MotionClip], tiny: bool) -> dict[str, str]:
    """Digests of 2 tracking updates, 2 distill updates and 2 self-play epochs."""
    ts = tr.train_tracking(clips, tr.PpoConfig(updates=2, **(TINY_TRACK if tiny else {})),
                           work / "track", SEED, log=False)
    dn = di.train_slmp(clips, work / "track" / "pi_track.ckpt",
                       di.SlmpConfig(updates=2, **(TINY_SLMP if tiny else {})),
                       work / "distill", SEED, log=False, skip_expert_check=True)
    params, values = cb.self_play_train(
        work / "distill", cb.CombatConfig(epochs=2, **(TINY_COMBAT if tiny else {})),
        work / "combat", SEED, log=False)
    out = {}
    for stage, arrays in (
        ("track", [ts.policy_params, ts.value_params]),
        ("distill", [dn.enc_params, dn.phi_params, dn.disc_params]),
        ("combat", [*params, *values]),
    ):
        out[f"{stage}.params"] = array_sha(arrays)
        out[f"{stage}.metrics"] = sha((work / stage / "metrics.csv").read_bytes())
    return out


def digests(tiny: bool = False) -> dict[str, str]:
    """Family name to SHA-256 hex digest, in a fixed order."""
    clips = mo.generate_library(TINY_COUNTS if tiny else None)
    out = {"library.frames": array_sha([c.frames for c in clips])}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "smoke").mkdir()
        out.update(smoke_pipeline(work / "smoke"))
        out.update(training(work, clips, tiny))
    return out


def main() -> None:
    for name, digest in digests().items():
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
