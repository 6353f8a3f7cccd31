"""Command-line entry point wiring configuration, seeding, datasets,
training stages, and evaluations into reproducible commands.

An option that sets a run value has its config key as ``dest``; ``run``
applies those over the config file through ``config.load_config``, and
each command reads only the resulting ``RunConfig``."""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import combat as cb
from . import distill as di
from . import evaluate as ev
from . import motion as mo
from . import tracking as tr
from .config import ConfigError, RunConfig, load_config, write_echo
from .seeding import seed_for


def _load_clips(args, cfg: RunConfig, spec, phys) -> list[mo.MotionClip]:
    if getattr(args, "clips", None):
        paths = sorted(Path(args.clips).glob("*.clip"))
        if not paths:
            raise FileNotFoundError(f"no .clip files in {args.clips}")
        return [mo.load_clip(p) for p in paths]
    return _generate_library(cfg, spec, phys)


def _generate_library(cfg: RunConfig, spec, phys) -> list[mo.MotionClip]:
    return mo.generate_library(
        cfg.data.counts(), cfg.data.duration, cfg.data.hz, spec, phys,
        seed=0 if cfg.seed == 0 else cfg.seed * 1000,
    )


def _expert_ckpt(path: str) -> Path:
    """An expert checkpoint file, or the ``pi_track.ckpt`` of a train-track output dir."""
    p = Path(path)
    return p / "pi_track.ckpt" if p.is_dir() else p


def cmd_gen_data(args, cfg: RunConfig, spec, phys) -> int:
    clips = _generate_library(cfg, spec, phys)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_echo(cfg, out)
    for clip in clips:
        mo.save_clip(clip, out / f"{clip.clip_id}.clip")
    print(f"wrote {len(clips)} clips to {out}")
    return 0


def cmd_train_track(args, cfg: RunConfig, spec, phys) -> int:
    clips = _load_clips(args, cfg, spec, phys)
    write_echo(cfg, args.out)
    tr.train_tracking(
        clips, cfg.ppo, args.out, seed_for(cfg.seed, "track"), spec, phys,
        resume=args.resume,
    )
    return 0


def cmd_distill(args, cfg: RunConfig, spec, phys) -> int:
    clips = _load_clips(args, cfg, spec, phys)
    write_echo(cfg, args.out)
    di.train_slmp(
        clips, _expert_ckpt(args.expert), cfg.slmp, args.out,
        seed_for(cfg.seed, f"distill-{cfg.slmp.mode}"), spec, phys,
        skip_expert_check=args.skip_expert_check,
    )
    return 0


def cmd_eval_track(args, cfg: RunConfig, spec, phys) -> int:
    clips = _load_clips(args, cfg, spec, phys)
    expert = _expert_ckpt(args.expert) if args.expert else None
    res = ev.latent_tracking_eval(clips, args.slmp, expert, spec, phys, cfg.eval.e_div)
    lines = ["method,success,mean_joint_error"]
    for name, row in res.items():
        lines.append(f"{name},{row['success']!r},{row['mean_joint_error']!r}")
    text = "\n".join(lines) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_eval_survival(args, cfg: RunConfig, spec, phys) -> int:
    curve = ev.survival_eval(
        *di.load_prior(args.slmp, spec), cfg.eval.trials, tuple(cfg.eval.horizons),
        seed_for(cfg.seed, "survival"), cfg.eval.resample_period, cfg.eval.fixed_z,
        spec, phys,
    )
    ev.save_survival(curve, args.out)
    print(
        " ".join(f"{h:g}s={f:.3f}" for h, f in zip(curve.horizons, curve.fractions))
    )
    return 0


def cmd_viz_sphere(args, cfg: RunConfig, spec, phys) -> int:
    phi_spec, phi_params, latent = di.load_prior(args.slmp, spec)
    state = ev.fixture_state(args.state, spec, phys)
    decode = ev.prior_decoder(phi_spec, phi_params, state, spec)
    cloud = ev.sphere_clusters(
        decode, latent, cfg.eval.samples, cfg.eval.clusters,
        seed_for(cfg.seed, f"sphere-{args.state}"),
    )
    ev.save_cloud(cloud, args.out)
    print(f"wrote {cloud.z.shape[0]} points, {len(set(cloud.cluster_id))} clusters")
    return 0


def cmd_train_combat(args, cfg: RunConfig, spec, phys) -> int:
    write_echo(cfg, args.out)
    cb.self_play_train(args.slmp, cfg.combat, args.out, seed_for(cfg.seed, "combat"), spec, phys)
    return 0


def cmd_rollout(args, cfg: RunConfig, spec, phys) -> int:
    decision = phys.dt * cfg.combat.k_hl
    if not (math.isfinite(args.seconds) and args.seconds >= decision):
        raise ValueError(f"--seconds must be finite and cover at least one decision "
                         f"({decision!r} s), got {args.seconds!r}")
    fighters = cb.rollout_combat(
        args.ckpt, args.seconds, seed_for(cfg.seed, "rollout"), cfg.combat, spec, phys
    )
    out, rate = Path(args.frames), phys.hz / cfg.combat.k_hl
    for i, frames in enumerate(fighters, start=1):
        path = out.with_name(f"{out.stem}.fighter{i}.clip")
        mo.save_clip(mo.MotionClip(rate, "combat", f"combat-rollout-fighter{i}", frames), path)
        print(f"wrote {len(frames)} frames to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slmp",
        description="Planar character control through a spherical latent motion prior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="path to a section.key=value config file")
        p.add_argument("--seed", help="master seed (overrides config)")

    p = sub.add_parser("gen-data", help="write the procedural clip library")
    common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-track", help="stage 1: PPO tracking expert")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--clips", default=None, help="clip directory (default: generate)")
    p.add_argument("--updates", dest="ppo.updates")
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("distill", help="stage 2: distill the expert into the latent prior")
    common(p)
    p.add_argument("--expert", required=True, help="expert checkpoint file or train-track output dir")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", dest="slmp.mode", choices=di.ABLATION_MODES)
    p.add_argument("--clips", default=None)
    p.add_argument("--updates", dest="slmp.updates")
    p.add_argument("--skip-expert-check", action="store_true")

    p = sub.add_parser("eval-track", help="latent tracking success / mean joint error")
    common(p)
    p.add_argument("--slmp", required=True, help="distill output dir")
    p.add_argument("--expert", default=None)
    p.add_argument("--clips", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval-survival", help="random-latent rollout survival curve")
    common(p)
    p.add_argument("--slmp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", dest="eval.trials")
    p.add_argument("--resample-period", dest="eval.resample_period")
    p.add_argument("--fixed-z", dest="eval.fixed_z", action="store_const", const="true")

    p = sub.add_parser("viz-sphere", help="state-conditioned sphere clustering export")
    common(p)
    p.add_argument("--slmp", required=True)
    p.add_argument("--state", choices=("guard", "airborne"), default="guard")
    p.add_argument("--samples", dest="eval.samples")
    p.add_argument("--k", dest="eval.clusters")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-combat", help="stage 3: alternating self-play combat")
    common(p)
    p.add_argument("--slmp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", dest="combat.epochs")

    p = sub.add_parser("rollout", help="dump a deterministic rollout as text frames")
    common(p)
    p.add_argument("--mode", required=True, choices=("combat",))
    p.add_argument("--ckpt", required=True)
    p.add_argument(
        "--frames", required=True,
        help="path whose stem names the outputs: one clip per fighter, "
             "<stem>.fighter1.clip and <stem>.fighter2.clip, next to it",
    )
    p.add_argument("--seconds", type=float, default=10.0)

    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-track": cmd_train_track,
    "distill": cmd_distill,
    "eval-track": cmd_eval_track,
    "eval-survival": cmd_eval_survival,
    "viz-sphere": cmd_viz_sphere,
    "train-combat": cmd_train_combat,
    "rollout": cmd_rollout,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    options = {
        key: value for key, value in vars(args).items()
        if value is not None and ("." in key or key == "seed")
    }
    try:
        cfg = load_config(args.config, options)
        return COMMANDS[args.command](args, cfg, *cfg.physics.build())
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
