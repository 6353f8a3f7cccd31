"""One SHA-256 per output family of the package, for byte-identity checks.

    PYTHONPATH=src python tests/identity.py > digests.txt

prints ``<family> <sha256>`` lines for

- the frames of ``motion.generate_library()``;
- every file the ``SMOKE_CFG`` command-line pipeline writes (gen-data,
  train-track, distill, eval-track, eval-survival, viz-sphere,
  train-combat, rollout), and for each text table among them
  (checkpoints, Adam states, clips, ``envs.txt`` and the sphere cloud) a
  ``:values`` line: the float64 arrays the package's own loader reads
  back, so that a change of how values are spelled moves the file's line
  but not its ``:values`` line;
- the final parameters and ``metrics.csv`` of 2 updates each of
  ``train_tracking``, ``train_slmp`` (``slmp_update``) and 2 epochs of
  ``self_play_train``, chained as in the pipeline: the distillation reads
  the tracking expert and self-play reads the distilled prior;
- both instances' final parameters and the ``metrics.csv`` of 2 tiny
  self-play epochs with a swap after each, so that each instance trains
  once (``combat.swap``);
- the ``envs.txt`` rollout state that those tracking updates end with,
  as bytes and as the values read back;
- the rewards, hit counts, termination reasons and episode times of 16
  ``CombatEnv.decision_step`` calls of 2 envs over a tiny prior, close
  enough to land hits and knock fighters down (``combat.decisions``);
- the World and the site force reports of 16 coupled ``step_batch``
  steps of 8 fighter pairs in contact (``combat.contacts``).

A byte-identity check of a change is a diff of the output of two
checkouts.  ``digests(tiny=True)`` runs the same families at test size
(``--tiny``), and ``identity_tiny.txt`` records them, headed by the host
they were made on (``host``); ``tests/test_identity.py`` compares each run
with it.  A change that moves an output on purpose rewrites the record:

    python tests/identity.py --tiny --record
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from slmp import cli  # noqa: E402
from slmp import combat as cb  # noqa: E402
from slmp import distill as di  # noqa: E402
from slmp import evaluate as ev  # noqa: E402
from slmp import motion as mo  # noqa: E402
from slmp import nets  # noqa: E402
from slmp import physics as ph  # noqa: E402
from slmp import tracking as tr  # noqa: E402
from slmp.seeding import seed_for  # noqa: E402
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


def table_values(path: Path) -> list[np.ndarray] | None:
    """The arrays the package reads back from the text table ``path``, or
    None when ``path`` is not one.  ``envs.txt`` is read as
    ``tracking.resume_train_state`` reads it, for the default character."""
    if path.suffix == ".ckpt":
        return [nets.load_checkpoint(path)[2]]
    if path.suffix == ".clip":
        return [mo.load_clip(path).frames]
    if path.suffix == ".txt" and path.name.startswith("adam_"):
        state = nets.adam_state_load(path)
        return [state.m, state.v]
    if path.name == "envs.txt":
        spec = ph.default_character()
        width = 2 * (3 + spec.ndof + len(spec.sites))
        return [nets.read_table(path, tr.ENVS, lambda head: (head["envs"], width))[1]]
    if path.name == "cloud.txt":
        cloud = ev.load_cloud(path)
        return [cloud.z, cloud.cluster_id, cloud.actions]
    return None


def file_digests(prefix: str, path: Path) -> dict[str, str]:
    """``prefix`` -> the digest of the bytes of ``path`` and, for a text
    table, ``prefix:values`` -> the digest of the values read back."""
    out = {prefix: sha(path.read_bytes())}
    values = table_values(path)
    if values is not None:
        out[f"{prefix}:values"] = array_sha(values)
    return out


def smoke_pipeline(work: Path) -> dict[str, str]:
    """Digests of every file the ``SMOKE_CFG`` pipeline writes under
    ``work`` (``file_digests``)."""
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
    out = {}
    for p in sorted(work.rglob("*")):
        if p.is_file() and p != cfg:
            out.update(file_digests(f"smoke/{p.relative_to(work).as_posix()}", p))
    return out


def training(work: Path, clips: list[mo.MotionClip], tiny: bool) -> dict[str, str]:
    """Digests of 2 tracking updates, 2 distill updates, 2 self-play epochs,
    and 2 tiny self-play epochs that swap roles after each."""
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
    out.update(file_digests("track.envs", work / "track" / "envs.txt"))
    params, values = cb.self_play_train(
        work / "distill", cb.CombatConfig(epochs=2, swap_period=1, **TINY_COMBAT),
        work / "swap", SEED, log=False)
    out["combat.swap"] = sha(array_sha([*params, *values]).encode(),
                             (work / "swap" / "metrics.csv").read_bytes())
    return out


def combat_decisions() -> dict[str, str]:
    """Digest of 16 decisions of a 2-env ``CombatEnv`` driven by random
    latents through a tiny random prior: per decision the (E, 2) rewards,
    the (E, 2) hit counts, the termination reasons and the episode times."""
    spec = ph.default_character()
    phys = ph.default_config(spec)
    rng = np.random.default_rng(SEED)
    phi_spec = nets.MlpSpec(tr.PROPRIO.width(spec) + 4, (16,), spec.n_joints,
                            activation="silu")
    phi_params = 0.3 * nets.init_params(phi_spec, rng)
    cfg = cb.CombatConfig(spawn_gap=0.45, f_hit=5.0)
    env = cb.CombatEnv(phi_spec, phi_params, spec, phys, cfg,
                       [np.random.default_rng(seed_for(SEED, f"decisions-{i}")) for i in range(2)])
    chunks = []
    for _ in range(16):
        _, rewards, _, info = env.decision_step(di.sample_sphere(4, rng, 4))
        chunks += [rewards.tobytes(), info["hits"].astype(np.int64).tobytes(),
                   repr(info["reason"]).encode(), info["t"].tobytes()]
    return {"combat.decisions": sha(*chunks)}


def combat_contacts() -> dict[str, str]:
    """Digest of 16 coupled ``step_batch`` steps of 8 fighter pairs 0.25 m
    apart, from stances with seeded arm and leg offsets under seeded PD
    targets: per step every World field and the three site arrays of the
    ContactReport.  The pairs start with several contacts per direction,
    so the order in which a pair's contact forces are summed shows here.
    Pair contact is unstable at this range: most rows diverge within a
    few steps, and the digest holds their frozen states."""
    spec = ph.default_character()
    phys = ph.default_config(spec)
    rng = np.random.default_rng(SEED)
    states = []
    for _ in range(8):
        for s, side in ((ph.nominal_stance(spec, phys), -1.0),
                        (ph.mirror_state(ph.nominal_stance(spec, phys)), 1.0)):
            s.root_pos[0] += side * 0.125
            s.anchor_x += side * 0.125
            s.joint_angles = s.joint_angles + rng.uniform(-0.5, 0.5, spec.n_joints)
            states.append(s)
    world = ph.World.of(states, spec)
    arrays = []
    for _ in range(16):
        targets = world.q[:, 1:] + rng.uniform(-0.5, 0.5, (len(world), spec.n_joints))
        world, rep = ph.step_batch(world, spec, phys.dt, phys, pd_targets=targets, coupled=True)
        arrays += [getattr(world, f.name) for f in fields(world)]
        arrays += [rep.site_force, rep.site_ground, rep.site_opponent]
    return {"combat.contacts": array_sha(arrays)}


def digests(tiny: bool = False) -> dict[str, str]:
    """Family name to SHA-256 hex digest, in a fixed order."""
    clips = mo.generate_library(TINY_COUNTS if tiny else None)
    out = {"library.frames": array_sha([c.frames for c in clips])}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "smoke").mkdir()
        out.update(smoke_pipeline(work / "smoke"))
        out.update(training(work, clips, tiny))
    out.update(combat_decisions())
    out.update(combat_contacts())
    return out


RECORD = Path(__file__).with_name("identity_tiny.txt")


def host() -> dict[str, str]:
    """What the digests hang on besides the source: the numpy and BLAS
    builds, the CPU model and the row rule's ``ROW_TILE`` and
    ``LEARN_DTYPE``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "cpu": models[0] if models else "unknown", "ROW_TILE": str(nets.ROW_TILE),
            "LEARN_DTYPE": np.dtype(nets.LEARN_DTYPE).name}


def write_record(found: dict[str, str], path: Path = RECORD) -> None:
    """``path``: one ``# key: value`` line per ``host`` field, then one
    ``<family> <sha256>`` line per family of ``found``."""
    lines = [f"# {key}: {value}" for key, value in host().items()]
    path.write_text("\n".join(lines + [f"{name} {digest}" for name, digest in found.items()]) + "\n")


def read_record(path: Path = RECORD) -> tuple[dict[str, str], dict[str, str]]:
    """The (host, digests) that ``write_record`` wrote to ``path``."""
    head, found = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(": ", 1)
            head[key] = value
        else:
            name, digest = line.split(" ")
            found[name] = digest
    return head, found


def changes(recorded: dict[str, str], found: dict[str, str]) -> list[str]:
    """Every family of ``found`` that moved from or is not in ``recorded``,
    and every recorded family that ``found`` lacks, one line each."""
    return ([f"moved {name}" for name in found if name in recorded and found[name] != recorded[name]]
            + [f"added {name}" for name in found if name not in recorded]
            + [f"missing {name}" for name in recorded if name not in found])


def main() -> None:
    parser = argparse.ArgumentParser(description="Print one SHA-256 per output family.")
    parser.add_argument("--tiny", action="store_true", help="run the families at test size")
    parser.add_argument("--record", action="store_true",
                        help=f"with --tiny, also rewrite {RECORD.name} with this host and these lines")
    args = parser.parse_args()
    if args.record and not args.tiny:
        parser.error("--record rewrites the test-size record, so it needs --tiny")
    found = digests(tiny=args.tiny)
    if args.record:
        write_record(found)
    for name, digest in found.items():
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
