import filecmp
from pathlib import Path

import numpy as np
import pytest

from slmp import cli
from slmp import combat as cb
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr
from slmp.seeding import seed_for
from slmp.config import ConfigError, load_config

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
        p.write_text("ppo.envs = fast\n")
        with pytest.raises(ConfigError, match="integer"):
            load_config(p)

    def test_later_entries_override(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("slmp.beta = 0.5\nslmp.beta = 0.7\n")
        assert load_config(p).slmp.beta == 0.7

    def test_physics_defaults_build_the_default_character_and_config(self):
        assert load_config(None).physics.build() == (ph.default_character(), ph.default_config())

    def test_seed_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 11\n")
        assert load_config(p).seed == 11


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.run(["launch-rockets"]) == 2

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
        for name, in_dim in (("encoder", 6), ("pi_phi", tr.proprio_dim(spec) + 4)):
            net = nets.MlpSpec(in_dim, (4,), 4 if name == "encoder" else spec.n_joints)
            nets.save_checkpoint(prior / f"{name}.ckpt", name, net, nets.init_params(net, rng))
        path = prior / "pi_phi.ckpt"
        path.write_text("\n".join(path.read_text().splitlines()[:4]) + "\n")
        assert cli.run(["eval-survival", "--slmp", str(prior), "--out", str(tmp_path / "s.csv")]) == 1
        assert "error:" in capsys.readouterr().err

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
        assert out.read_text().startswith("SLMP-CLOUD/1")

    def test_rollout_writes_one_loadable_clip_per_fighter(self, tmp_path):
        spec = ph.default_character()
        ckpt = tmp_path / "combat"
        ckpt.mkdir()
        rng = np.random.default_rng(0)
        phi_spec = nets.MlpSpec(tr.proprio_dim(spec) + 4, (16,), spec.n_joints)
        nets.save_checkpoint(ckpt / "pi_phi.ckpt", "pi_phi", phi_spec,
                             nets.init_params(phi_spec, rng) * 0.01)
        policy = tr.GaussianPolicy(nets.MlpSpec(cb.combat_obs_dim(spec), (16,), 4))
        for i in (1, 2):
            nets.save_checkpoint(ckpt / f"pi_h_{i}.ckpt", f"pi_h_{i}", policy.spec,
                                 policy.init(rng, 0.3), extra=policy.spec.output_dim)
        assert cli.run(["rollout", "--mode", "combat", "--ckpt", str(ckpt),
                        "--frames", str(tmp_path / "fight.clip"), "--seconds", "1"]) == 0
        frames = cb.rollout_combat(ckpt, 1.0, seed_for(0, "rollout"))
        assert len(frames) == 30
        for i in (1, 2):
            clip = mo.load_clip(tmp_path / f"fight.fighter{i}.clip")
            assert clip.n_frames == len(frames)
            assert clip.frame_rate == 30.0
            for k in (0, len(frames) - 1):
                assert np.array_equal(clip.frame_state(k).theta(), frames[k][i - 1].theta())
