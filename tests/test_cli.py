import filecmp
import inspect
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reference import one_clip
from slmp import cli
from slmp import combat as cb
from slmp import distill as di
from slmp import evaluate as ev
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr
from slmp.seeding import seed_for
from slmp.config import ConfigError, RunConfig, load_config

SMOKE_CFG = """
data.duration = 3.0
data.idle = 2
data.footwork = 1
data.jab = 1
data.hook = 0
data.kick = 0
data.combo = 0
ppo.envs = 2
ppo.horizon = 16
ppo.updates = 3
ppo.epochs_per_update = 2
slmp.envs = 2
slmp.updates = 20
slmp.fresh_per_update = 8
slmp.batch = 64
eval.trials = 3
eval.horizons = 2,4
eval.samples = 32
eval.clusters = 2
combat.envs = 1
combat.horizon = 8
combat.epochs = 1
"""


@pytest.fixture()
def smoke_cfg(tmp_path):
    p = tmp_path / "smoke.cfg"
    p.write_text(SMOKE_CFG)
    return str(p)


# the end of generate_library's message for a rate that gives fewer than 2 frames
TWO_FRAMES = "need a finite positive rate that gives at least 2 frames"


# (key, value, its config text, the section's error) of values out of range
OUT_OF_RANGE = [
    ("physics.gravity", -1.0, "-1", "gravity must be non-negative, got -1.0"),
    ("physics.contact_dn", -1.0, "-1", "contact_dn must be non-negative, got -1.0"),
    ("physics.friction_mu", -1.0, "-1", "friction_mu must be non-negative, got -1.0"),
    ("physics.gravity", math.inf, "inf", "gravity must be non-negative, got inf"),
    ("physics.contact_dn", math.inf, "inf", "contact_dn must be non-negative, got inf"),
    ("physics.friction_mu", math.inf, "inf", "friction_mu must be non-negative, got inf"),
    ("physics.fall_frac", 0.0, "0", r"fall_frac must be in \(0, 1\), got 0.0"),
    ("physics.fall_frac", 1.0, "1", r"fall_frac must be in \(0, 1\), got 1.0"),
    ("data.idle", -3, "-3", "idle must be non-negative, got -3"),
    ("data.combo", -1, "-1", "combo must be non-negative, got -1"),
    ("data.hz", 0.0, "0", f"frame rate 0.0 Hz over 10.0 s: {TWO_FRAMES}"),
    ("data.hz", -60.0, "-60", f"frame rate -60.0 Hz over 10.0 s: {TWO_FRAMES}"),
    ("data.duration", 1.0, "1", r"duration must be in \[2 s, 20 s\]"),
    ("data.duration", 21.0, "21", r"duration must be in \[2 s, 20 s\]"),
    ("eval.horizons", (), "", "horizons must be positive and strictly increasing, got none"),
    ("eval.horizons", (0.0, 5.0), "0,5",
     "horizons must be positive and strictly increasing, got 0.0,5.0"),
    ("eval.horizons", (5.0, 5.0), "5,5",
     "horizons must be positive and strictly increasing, got 5.0,5.0"),
    ("eval.horizons", (10.0, 5.0), "10,5",
     "horizons must be positive and strictly increasing, got 10.0,5.0"),
    ("ppo.gae_lambda", -0.1, "-0.1", r"gae_lambda must be in \[0, 1\], got -0.1"),
    ("ppo.gae_lambda", 1.5, "1.5", r"gae_lambda must be in \[0, 1\], got 1.5"),
    ("combat.gamma", 1.5, "1.5", r"gamma must be in \(0, 1\), got 1.5"),
    ("combat.clip_eps", 0.0, "0", "clip_eps must be positive, got 0.0"),
    ("slmp.latent_dim", 1, "1", "latent_dim must be at least 2, got 1"),
]


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.slmp.beta == 0.1
        assert cfg.ppo.lr == pytest.approx(3e-4)
        assert cfg.ppo.gamma == 0.99
        assert cfg.ppo.clip_eps == 0.2
        assert cfg.slmp.lambda_distill == 1.0
        assert cfg.slmp.lambda_disc == pytest.approx(1e-4)
        assert cfg.slmp.disc_lr == pytest.approx(5e-5)

    def test_defaults_are_the_module_defaults(self):
        """Every default that ``RunConfig`` shares with a function or a
        config of the package is that module's one constant."""
        cfg = RunConfig()

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        assert cfg.data.counts() == mo.DEFAULT_COUNTS
        fn = mo.generate_library
        assert (default(fn, "frame_rate"), default(fn, "duration")) == (
            mo.CLIP_HZ, mo.CLIP_SECONDS) == (cfg.data.hz, cfg.data.duration)
        assert default(ev.survival_eval, "resample_period") == ev.RESAMPLE_PERIOD
        assert cfg.eval.resample_period == ev.RESAMPLE_PERIOD
        assert default(ev.survival_eval, "fixed_z") is cfg.eval.fixed_z is ev.FIXED_Z
        e_divs = [cfg.ppo.e_div, cfg.slmp.e_div, cfg.eval.e_div]
        e_divs += [default(f, "e_div") for f in (
            tr.EnvBatch, tr.TrackingEnv, tr.track_clips, ev.latent_tracking_eval)]
        assert e_divs == [tr.E_DIV] * 7
        floors = [cfg.ppo.energy_floor] + [
            default(f, "energy_floor") for f in (tr.EnvBatch, tr.TrackingEnv)]
        assert floors == [tr.ENERGY_FLOOR] * 3
        shared = ("gamma", "clip_eps", "gae_lambda", "epochs_per_update", "value_coef", "std_init",
                  "critic_hidden")
        assert [getattr(cfg.combat, k) for k in shared] == [getattr(cfg.ppo, k) for k in shared]

    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("\n# just a comment\n")
        cfg = load_config(p)
        assert cfg.slmp.beta == 0.1

    def test_override(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("slmp.beta = 0.5\n")
        assert load_config(p).slmp.beta == 0.5

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("slmp.betaa = 0.5\n")
        with pytest.raises(ConfigError, match="slmp.betaa"):
            load_config(p)

    def test_malformed_line_gives_line_number(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("slmp.beta = 0.1\njunk line\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(p)

    def test_type_mismatch(self, tmp_path):
        p = tmp_path / "c.cfg"
        for line, message in (
            ("ppo.envs = fast", "expected an integer, got 'fast'"),
            ("ppo.lr = fast", "expected a number, got 'fast'"),
            ("eval.horizons = 5,x", "expected comma-separated values, got '5,x'"),
            ("eval.fixed_z = maybe", "expected a boolean, got 'maybe'"),
        ):
            p.write_text(line + "\n")
            with pytest.raises(ConfigError, match=f"c.cfg:1: {message}"):
                load_config(p)

    def test_later_entries_override(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("slmp.beta = 0.5\nslmp.beta = 0.7\n")
        assert load_config(p).slmp.beta == 0.7

    def test_physics_defaults_build_the_default_character_and_config(self):
        assert load_config(None).physics.build() == (ph.default_character(), ph.default_config())

    def test_character_file_keeps_its_limits(self, tmp_path):
        """A character file's own torque limit and contact radius are built
        as written; setting either key next to the file is refused by name."""
        path = tmp_path / "char.json"
        ph.character_to_json(replace(ph.default_character(), tau_max=50.0, contact_radius=0.03), path)
        spec, _ = load_config(None, {"physics.character": str(path)}).physics.build()
        assert (spec.tau_max, spec.contact_radius) == (50.0, 0.03)
        for key, value, default in (("tau_max", "80", 200.0), ("contact_radius", "0.04", 0.05)):
            with pytest.raises(ConfigError, match=(
                    f"^physics: {key} comes from the character file .*char.json; "
                    f"leave it at {default}$")):
                load_config(None, {"physics.character": str(path), f"physics.{key}": value})

    def test_seed_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 11\n")
        assert load_config(p).seed == 11

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("key", [
        "ppo.envs", "ppo.horizon", "ppo.batch_size", "ppo.epochs_per_update",
        "slmp.envs", "slmp.batch", "slmp.fresh_per_update", "slmp.capacity", "slmp.window",
        "combat.envs", "combat.horizon", "combat.batch_size", "combat.epochs_per_update",
        "combat.k_hl", "combat.swap_period",
        "eval.trials", "eval.samples", "eval.clusters",
        "physics.substeps",
    ])
    def test_non_positive_count_named(self, tmp_path, key, value):
        """The stage config refuses the count at construction, and the
        loader names its section too."""
        refused(tmp_path, key, value, value, f"{key.split('.')[1]} must be positive, got {value}")

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf])
    @pytest.mark.parametrize("key", [
        "physics.hz", "physics.contact_kn", "physics.contact_kt", "physics.tau_max",
        "physics.contact_radius", "eval.resample_period",
        "ppo.lr", "ppo.std_init", "ppo.std_final", "slmp.lr", "slmp.disc_lr", "slmp.beta",
        "combat.lr", "combat.std_init",
    ])
    def test_non_positive_value_named(self, tmp_path, key, value):
        refused(tmp_path, key, value, value, f"{key.split('.')[1]} must be positive, got {value}")

    @pytest.mark.parametrize("key, value, text, error", OUT_OF_RANGE,
                             ids=[f"{key}={text}" for key, _, text, _ in OUT_OF_RANGE])
    def test_out_of_range_value_named(self, tmp_path, key, value, text, error):
        refused(tmp_path, key, value, text, error)

    @pytest.mark.parametrize("fresh, envs", [(300, 16), (8, 16)])
    def test_fresh_rows_not_a_multiple_of_envs_refused(self, tmp_path, fresh, envs):
        """Distillation collects whole steps of every env, so a fresh-row
        count that ``envs`` does not divide is refused, not rounded."""
        error = f"fresh_per_update {fresh} is not a multiple of envs {envs}"
        with pytest.raises(ValueError, match=f"^{error}$"):
            di.SlmpConfig(fresh_per_update=fresh, envs=envs)
        p = tmp_path / "c.cfg"
        p.write_text(f"slmp.fresh_per_update = {fresh}\nslmp.envs = {envs}\n")
        with pytest.raises(ConfigError, match=f"^slmp: {error}$"):
            load_config(p)


def refused(tmp_path, key, value, text, error):
    """The section refuses ``value`` of ``key`` at construction with
    ``error``, and the loader refuses its config line ``text`` with the
    section named too."""
    section, name = key.split(".")
    with pytest.raises(ValueError, match=f"^{error}$"):
        type(getattr(RunConfig(), section))(**{name: value})
    p = tmp_path / "c.cfg"
    p.write_text(f"{key} = {text}\n")
    with pytest.raises(ConfigError, match=f"^{section}: {error}$"):
        load_config(p)


# (command, option, config key, option value, a conflicting file value)
KEY_OPTIONS = [
    (["gen-data", "--out", "o"], ["--seed", "7"], "seed", "7", "3"),
    (["train-track", "--out", "o"], ["--updates", "7"], "ppo.updates", "7", "3"),
    (["distill", "--expert", "e", "--out", "o"], ["--updates", "7"], "slmp.updates", "7", "3"),
    (["distill", "--expert", "e", "--out", "o"], ["--mode", "nsc"], "slmp.mode", "nsc", "gan"),
    (["eval-survival", "--slmp", "s", "--out", "o"], ["--trials", "7"], "eval.trials", "7", "3"),
    (["eval-survival", "--slmp", "s", "--out", "o"], ["--resample-period", "0.25"],
     "eval.resample_period", "0.25", "2.0"),
    (["eval-survival", "--slmp", "s", "--out", "o"], ["--fixed-z"], "eval.fixed_z", "true", "false"),
    (["viz-sphere", "--slmp", "s", "--out", "o"], ["--samples", "7"], "eval.samples", "7", "3"),
    (["viz-sphere", "--slmp", "s", "--out", "o"], ["--k", "7"], "eval.clusters", "7", "3"),
    (["train-combat", "--slmp", "s", "--out", "o"], ["--epochs", "7"], "combat.epochs", "7", "3"),
]


class TestCli:
    @pytest.mark.parametrize("command, option, key, value, other", KEY_OPTIONS,
                             ids=[k[2] for k in KEY_OPTIONS])
    def test_option_is_its_config_line(self, tmp_path, monkeypatch, command, option, key, value,
                                       other):
        """The command sees the same ``RunConfig`` as from the equivalent
        config line, and the option wins over a conflicting file line."""
        seen = []
        monkeypatch.setitem(cli.COMMANDS, command[0],
                            lambda args, cfg, spec, phys: seen.append(cfg) or 0)
        line, conflicting = tmp_path / "line.cfg", tmp_path / "other.cfg"
        line.write_text(f"{key} = {value}\n")
        conflicting.write_text(f"{key} = {other}\n")
        assert cli.run(command + option) == 0
        assert cli.run(command + option + ["--config", str(conflicting)]) == 0
        assert seen == [load_config(line)] * 2 and seen[0] != RunConfig()

    @pytest.mark.parametrize("argv, error", [
        (["train-track", "--updates", "x"], "ppo.updates: expected an integer, got 'x'"),
        (["viz-sphere", "--slmp", ".", "--k", "0"], "eval: clusters must be positive, got 0"),
    ])
    def test_bad_option_value_refused_like_a_config_line(self, tmp_path, capsys, argv, error):
        out = tmp_path / "out"
        assert cli.run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_distill_mode_from_the_config_file(self, tmp_path):
        """``slmp.mode`` in the file, with no ``--mode``, is the mode the
        run echoes and trains with, seed label included."""
        spec = ph.default_character()
        data, track = tmp_path / "data", tmp_path / "track"
        data.mkdir()
        track.mkdir()
        mo.save_clip(one_clip("idle", 0, 2.0), data / "idle.clip")
        width = tr.TRACK_OBS.width(spec)
        policy = tr.GaussianPolicy(nets.MlpSpec(width, (8,), spec.n_joints))
        tr.save_policy(track / "pi_track.ckpt", "pi_track", policy,
                       policy.init(np.random.default_rng(0), 0.3))
        smoke, nsc = tmp_path / "smoke.cfg", tmp_path / "nsc.cfg"
        smoke.write_text(SMOKE_CFG)
        nsc.write_text(SMOKE_CFG + "slmp.mode = nsc\n")
        common = ["--expert", str(track), "--clips", str(data), "--updates", "2",
                  "--seed", "4", "--skip-expert-check"]
        assert cli.run(["distill", "--out", str(tmp_path / "a"), "--config", str(nsc)] + common) == 0
        echo = (tmp_path / "a" / "config.echo.txt").read_text()
        assert "slmp.mode = nsc\n" in echo
        assert cli.run(["distill", "--out", str(tmp_path / "b"), "--config", str(smoke),
                        "--mode", "nsc"] + common) == 0
        for name in ("config.echo.txt", "pi_phi.ckpt", "metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.run(["launch-rockets"]) == 2

    def test_train_track_has_no_workers_option(self, tmp_path, capsys):
        """Rollouts run in one process, so ``--workers`` is an unknown
        option: argparse refuses it before any clip is read."""
        argv = ["train-track", "--out", str(tmp_path / "out"), "--clips", str(tmp_path / "none"),
                "--workers", "2"]
        assert cli.run(argv) == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, kind, name", [("gen-data", "link", "upper_leg_l"),
                                                     ("train-track", "site", "pelvis")])
    def test_a_character_without_a_role_is_refused_by_name(self, tmp_path, capsys, command, kind, name):
        """A character file that lacks a link or site the pipeline reads
        (the left thigh, the pelvis) is refused with an ``error:`` line
        that names it."""
        spec = ph.default_character()
        if kind == "link":
            spec = replace(spec, links=tuple(replace(l, name="thigh_l") if l.name == name else l
                                             for l in spec.links))
        else:
            spec = replace(spec, sites=tuple(s for s in spec.sites if s.name != name))
        ph.character_to_json(spec, tmp_path / "char.json")
        cfg = tmp_path / "char.cfg"
        cfg.write_text(SMOKE_CFG + f"physics.character = {tmp_path / 'char.json'}\n")
        argv = [command, "--out", str(tmp_path / "out"), "--config", str(cfg)]
        assert cli.run(argv + (["--updates", "1"] if command == "train-track" else [])) == 1
        assert f"error: the character has no {kind} named '{name}'\n" in capsys.readouterr().err

    def test_distill_requires_expert(self):
        assert cli.run(["distill", "--out", "/tmp/x"]) == 2

    def test_gen_data_byte_identical(self, tmp_path, smoke_cfg):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.run(["gen-data", "--out", str(a), "--seed", "7", "--config", smoke_cfg]) == 0
        assert cli.run(["gen-data", "--out", str(b), "--seed", "7", "--config", smoke_cfg]) == 0
        files = sorted(p.name for p in a.glob("*.clip"))
        assert files
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_gen_data_rejects_a_rate_without_two_frames(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SMOKE_CFG + "data.hz = 0\n")
        out = tmp_path / "d"
        assert cli.run(["gen-data", "--out", str(out), "--config", str(cfg)]) == 1
        assert "error: data: frame rate 0.0 Hz" in capsys.readouterr().err
        assert not out.exists()

    def test_echoed_config_and_seed_in_output(self, tmp_path, smoke_cfg):
        out = tmp_path / "d"
        assert cli.run(["gen-data", "--out", str(out), "--seed", "3", "--config", smoke_cfg]) == 0
        echo = (out / "config.echo.txt").read_text()
        assert "seed = 3" in echo
        assert "slmp.beta = 0.1" in echo

    def test_truncated_prior_checkpoint_errors(self, tmp_path, capsys):
        spec = ph.default_character()
        prior = tmp_path / "slmp"
        prior.mkdir()
        rng = np.random.default_rng(0)
        for name, in_dim in (("encoder", 6), ("pi_phi", tr.PROPRIO.width(spec) + 4)):
            net = nets.MlpSpec(in_dim, (4,), 4 if name == "encoder" else spec.n_joints)
            nets.save_checkpoint(prior / f"{name}.ckpt", name, net, nets.init_params(net, rng))
        path = prior / "pi_phi.ckpt"
        path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
        assert cli.run(["eval-survival", "--slmp", str(prior), "--out", str(tmp_path / "s.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval-survival", "viz-sphere"])
    def test_prior_narrower_than_proprio_is_refused_by_file_and_key(self, tmp_path, capsys, command):
        spec = ph.default_character()
        width = tr.PROPRIO.width(spec) - 2
        prior = tmp_path / "slmp"
        prior.mkdir()
        rng = np.random.default_rng(0)
        for name, in_dim in (("encoder", 6), ("pi_phi", width)):
            net = nets.MlpSpec(in_dim, (4,), 4 if name == "encoder" else spec.n_joints)
            nets.save_checkpoint(prior / f"{name}.ckpt", name, net, nets.init_params(net, rng))
        assert cli.run([command, "--slmp", str(prior), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"error: {prior / 'pi_phi.ckpt'}: header line input={width}: " in err
        assert not (tmp_path / "o").exists()

    def test_train_combat_refuses_a_zero_swap_period(self, tmp_path, capsys):
        cfg = tmp_path / "swap.cfg"
        cfg.write_text(SMOKE_CFG + "combat.swap_period = 0\n")
        out = tmp_path / "combat"
        argv = ["train-combat", "--slmp", str(tmp_path), "--out", str(out), "--config", str(cfg)]
        assert cli.run(argv) == 1
        assert "error: combat: swap_period must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_errors(self, tmp_path):
        assert cli.run(["gen-data", "--out", str(tmp_path / "x"), "--config", "/no/such.cfg"]) == 1

    def test_full_smoke_pipeline(self, tmp_path, smoke_cfg):
        """gen-data -> train-track -> distill -> eval-track -> eval-survival exits 0."""
        data = tmp_path / "data"
        track = tmp_path / "track"
        slmp_dir = tmp_path / "slmp"
        assert cli.run(["gen-data", "--out", str(data), "--seed", "5", "--config", smoke_cfg]) == 0
        assert cli.run([
            "train-track", "--out", str(track), "--clips", str(data),
            "--seed", "5", "--config", smoke_cfg,
        ]) == 0
        assert cli.run([
            "distill", "--expert", str(track), "--out", str(slmp_dir), "--clips", str(data),
            "--mode", "slmp", "--seed", "5", "--config", smoke_cfg, "--skip-expert-check",
        ]) == 0
        assert cli.run([
            "eval-track", "--slmp", str(slmp_dir), "--expert", str(track), "--clips", str(data),
            "--out", str(tmp_path / "track.csv"), "--seed", "5", "--config", smoke_cfg,
        ]) == 0
        lines = (tmp_path / "track.csv").read_text().splitlines()
        assert lines[0] == "method,success,mean_joint_error"
        assert [line.split(",")[0] for line in lines[1:]] == ["latent", "expert"]
        assert cli.run([
            "eval-survival", "--slmp", str(slmp_dir), "--out", str(tmp_path / "surv.csv"),
            "--trials", "3", "--seed", "5", "--config", smoke_cfg,
        ]) == 0
        assert (tmp_path / "surv.csv").exists()

    def test_viz_sphere_output(self, tmp_path, smoke_cfg):
        data = tmp_path / "data"
        track = tmp_path / "track"
        slmp_dir = tmp_path / "slmp"
        cli.run(["gen-data", "--out", str(data), "--seed", "2", "--config", smoke_cfg])
        cli.run(["train-track", "--out", str(track), "--clips", str(data), "--seed", "2",
                 "--config", smoke_cfg])
        cli.run(["distill", "--expert", str(track), "--out", str(slmp_dir), "--clips", str(data),
                 "--seed", "2", "--config", smoke_cfg, "--skip-expert-check"])
        out = tmp_path / "cloud.txt"
        assert cli.run(["viz-sphere", "--slmp", str(slmp_dir), "--state", "guard",
                        "--samples", "16", "--k", "2", "--out", str(out),
                        "--seed", "2", "--config", smoke_cfg]) == 0
        assert out.read_text().startswith("SLMP-CLOUD/2\n")

    @staticmethod
    def _combat_checkpoint(tmp_path):
        """A directory with an untrained seeded prior and two fighters."""
        spec = ph.default_character()
        ckpt = tmp_path / "combat"
        ckpt.mkdir()
        rng = np.random.default_rng(0)
        phi_spec = nets.MlpSpec(tr.PROPRIO.width(spec) + 4, (16,), spec.n_joints)
        nets.save_checkpoint(ckpt / "pi_phi.ckpt", "pi_phi", phi_spec,
                             nets.init_params(phi_spec, rng) * 0.01)
        policy = tr.GaussianPolicy(nets.MlpSpec(cb.COMBAT_OBS.width(spec), (16,), 4))
        for i in (1, 2):
            tr.save_policy(ckpt / f"pi_h_{i}.ckpt", f"pi_h_{i}", policy, policy.init(rng, 0.3))
        return ckpt

    def test_rollout_writes_one_loadable_clip_per_fighter(self, tmp_path):
        ckpt = self._combat_checkpoint(tmp_path)
        assert cli.run(["rollout", "--mode", "combat", "--ckpt", str(ckpt),
                        "--frames", str(tmp_path / "fight.clip"), "--seconds", "1"]) == 0
        fighters = cb.rollout_combat(ckpt, 1.0, seed_for(0, "rollout"))
        assert [len(w) for w in fighters] == [30, 30]
        for i, w in enumerate(fighters, start=1):
            clip = mo.load_clip(tmp_path / f"fight.fighter{i}.clip")
            assert clip.n_frames == len(w)
            assert clip.frame_rate == 30.0
            for k in (0, len(w) - 1):
                assert np.array_equal(clip.frame_state(k).theta(), mo.split_frames(w)[1][k])

    @pytest.mark.parametrize("seconds", ["0", "-1", "0.03", "nan", "inf"])
    def test_rollout_refuses_less_than_one_decision(self, tmp_path, capsys, seconds):
        """A rollout shorter than one decision (1/30 s at the defaults),
        or not finite, is refused by name and writes no clip."""
        ckpt = self._combat_checkpoint(tmp_path)
        assert cli.run(["rollout", "--mode", "combat", "--ckpt", str(ckpt),
                        "--frames", str(tmp_path / "fight.clip"), "--seconds", seconds]) == 1
        assert "error: --seconds must be finite and cover at least one decision" in capsys.readouterr().err
        assert not list(tmp_path.glob("fight.*"))
