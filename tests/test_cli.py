import filecmp
import inspect
import json
import math
import re
from dataclasses import fields, replace
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
from slmp.config import ConfigError, EvalSection, RunConfig, echo_config, load_config

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


# each run setting's rule kind, keyed as echo_config prints it
KEY_RULES = {
    "physics.gravity": "non-negative", "physics.hz": "positive",
    "physics.substeps": "positive count", "physics.contact_kn": "positive",
    "physics.contact_dn": "non-negative", "physics.contact_kt": "positive",
    "physics.friction_mu": "non-negative", "physics.fall_frac": "open unit",
    "physics.character": "build",
    "data.hz": "clip rate", "data.duration": "clip duration",
    **{f"data.{family}": "count" for family in mo.FAMILIES},
    "ppo.lr": "positive", "ppo.gamma": "open unit", "ppo.clip_eps": "positive",
    "ppo.gae_lambda": "closed unit", "ppo.envs": "positive count", "ppo.horizon": "positive count",
    "ppo.batch_size": "positive count", "ppo.epochs_per_update": "positive count",
    "ppo.entropy_coef": "non-negative", "ppo.value_coef": "non-negative",
    "ppo.std_init": "positive", "ppo.std_final": "positive", "ppo.std_anneal_updates": "count",
    "ppo.learn_std": "flag", "ppo.updates": "positive count", "ppo.pi_hidden": "widths",
    "ppo.critic_hidden": "widths",
    "slmp.lambda_distill": "non-negative", "slmp.lambda_dlsc": "non-negative",
    "slmp.lambda_disc": "non-negative", "slmp.beta": "positive", "slmp.lr": "positive",
    "slmp.disc_lr": "positive", "slmp.latent_dim": "at least 2", "slmp.window": "positive count",
    "slmp.plateau_tol": "non-negative", "slmp.updates": "positive count",
    "slmp.batch": "positive count", "slmp.fresh_per_update": "positive count",
    "slmp.capacity": "positive count", "slmp.envs": "positive count", "slmp.mode": "choice",
    "slmp.encoder_hidden": "widths", "slmp.pi_phi_hidden": "widths", "slmp.disc_hidden": "widths",
    "combat.k_hit": "non-negative", "combat.f_cap": "non-negative", "combat.f_hit": "non-negative",
    "combat.hit_dist": "non-negative", "combat.knockdown_bonus": "non-negative",
    "combat.swap_period": "positive count", "combat.early_epochs": "count",
    "combat.episode_s": "non-negative", "combat.close_dist": "non-negative",
    "combat.close_s": "non-negative", "combat.farm_s": "non-negative",
    "combat.far_dist": "non-negative", "combat.k_hl": "positive count",
    "combat.spawn_gap": "non-negative", "combat.spawn_noise": "non-negative",
    "combat.epochs": "positive count", "combat.envs": "positive count",
    "combat.horizon": "positive count", "combat.lr": "positive", "combat.gamma": "open unit",
    "combat.clip_eps": "positive", "combat.gae_lambda": "closed unit",
    "combat.batch_size": "positive count", "combat.epochs_per_update": "positive count",
    "combat.entropy_coef": "non-negative", "combat.value_coef": "non-negative",
    "combat.std_init": "positive", "combat.pi_h_hidden": "widths", "combat.critic_hidden": "widths",
    "eval.trials": "positive count", "eval.horizons": "increasing",
    "eval.resample_period": "positive", "eval.fixed_z": "flag", "eval.samples": "positive count",
    "eval.clusters": "positive count",
    "seed": "integer",
}

# the body's torque limit and contact radius: no config keys, but values of
# the physics.character file, refused by name when the body is built
CHARACTER_RULES = {"physics.tau_max": "positive", "physics.contact_radius": "positive"}

# (value, its config text) of each value a kind refuses; a flag, an integer
# and a text are refused by their coercion (test_type_mismatch), and a
# character file by its build
BAD_VALUES = {
    "positive": [(0.0, "0.0"), (-1.0, "-1.0"), (math.inf, "inf"), (math.nan, "nan")],
    "non-negative": [(-1.0, "-1"), (math.inf, "inf"), (math.nan, "nan")],
    "positive count": [(0, "0"), (-1, "-1")],
    "count": [(-1, "-1")],
    "at least 2": [(1, "1"), (0, "0")],
    "open unit": [(0.0, "0"), (1.0, "1"), (-0.1, "-0.1"), (1.5, "1.5"), (math.nan, "nan")],
    "closed unit": [(-0.1, "-0.1"), (1.5, "1.5"), (math.nan, "nan")],
    "widths": [((0,), "0"), ((8, -3), "8,-3")],
    "increasing": [((), ""), ((0.0, 5.0), "0,5"), ((5.0, 5.0), "5,5"), ((10.0, 5.0), "10,5"),
                   ((1.0, math.nan), "1,nan"), ((1.0, math.inf), "1,inf")],
    "choice": [("fly", "fly")],
    "clip rate": [(0.0, "0"), (-60.0, "-60"), (math.inf, "inf"), (math.nan, "nan")],
    "clip duration": [(1.0, "1"), (21.0, "21"), (math.nan, "nan")],
    "flag": [], "integer": [], "build": [],
}

SAYS = {
    "positive": "must be positive", "positive count": "must be positive",
    "non-negative": "must be non-negative", "count": "must be non-negative",
    "at least 2": "must be at least 2", "open unit": "must be in (0, 1)",
    "closed unit": "must be in [0, 1]", "widths": "must be widths of at least 1",
    "increasing": "must be positive and strictly increasing",
    "choice": f"must be one of {di.ABLATION_MODES}",
}


def rule_error(kind, name, value):
    """The message a value that breaks a rule of ``kind`` is refused with."""
    if kind == "clip rate":  # generate_library's frame-count check, at the default duration
        return f"frame rate {value} Hz over {mo.CLIP_SECONDS} s: {TWO_FRAMES}"
    if kind == "clip duration":
        return "duration must be in [2 s, 20 s]"
    got = (",".join(map(str, value)) or "none") if isinstance(value, tuple) else value
    return f"{name} {SAYS[kind]}, got {got}"


# values beyond their kind's own: a count further below 0, and a float spelled as an integer
EXTRA_VALUES = [("data.idle", -3, "-3"), ("combat.clip_eps", 0.0, "0")]

def cases(keep):
    """(key, value, text, error) of each refused value whose kind and text
    ``keep`` holds for."""
    return [(key, value, text, rule_error(kind, key.split(".")[-1], value))
            for key, kind in (KEY_RULES | CHARACTER_RULES).items()
            for value, text in BAD_VALUES[kind] if keep(kind, text)]


# every refused value, each checked by one of four tests
NAN_CASES = cases(lambda kind, text: text == "nan")
COUNT_CASES = cases(lambda kind, text: kind == "positive count")
VALUE_CASES = cases(lambda kind, text: kind == "positive" and text != "nan")
OUT_OF_RANGE = cases(lambda kind, text: kind not in ("positive", "positive count") and text != "nan") + [
    (key, value, text, rule_error(KEY_RULES[key], key.split(".")[1], value))
    for key, value, text in EXTRA_VALUES]


# the keys of settings that the character or a tracking constant owns
REMOVED_KEYS = ["physics.tau_max", "physics.contact_radius", "ppo.e_div", "ppo.energy_floor",
                "slmp.e_div", "eval.e_div"]


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
        as written."""
        path = tmp_path / "char.json"
        ph.character_to_json(replace(ph.default_character(), tau_max=50.0, contact_radius=0.03), path)
        spec, _ = load_config(None, {"physics.character": str(path)}).physics.build()
        assert (spec.tau_max, spec.contact_radius) == (50.0, 0.03)

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, key):
        """Each of these settings has one source outside the run config: the
        character for the body's limits, ``tracking.E_DIV`` and
        ``tracking.ENERGY_FLOOR`` for the rest."""
        assert f"{key} =" not in echo_config(RunConfig())
        p = tmp_path / "c.cfg"
        p.write_text(f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"^{p}:1: unknown key '{key}'$"):
            load_config(p)
        with pytest.raises(ConfigError, match=f"^{key}: unknown key '{key}'$"):
            load_config(None, {key: "1"})

    def test_seed_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 11\n")
        assert load_config(p).seed == 11

    def test_every_key_declares_one_rule(self):
        """The table names each key that ``echo_config`` prints, and the
        key's field declares a rule, so a new key cannot arrive without one."""
        cfg = RunConfig()
        keys = [line.split(" = ")[0] for line in echo_config(cfg).splitlines()]
        assert sorted(keys) == sorted(KEY_RULES)
        for key in keys:
            section, _, name = key.rpartition(".")
            field = {f.name: f for f in fields(getattr(cfg, section) if section else cfg)}[name]
            assert "holds" in field.metadata, key

    @pytest.mark.parametrize("key, value, text, error", COUNT_CASES,
                             ids=[f"{key}-{text}" for key, _, text, _ in COUNT_CASES])
    def test_non_positive_count_named(self, tmp_path, key, value, text, error):
        """The stage config refuses the count at construction, and the
        loader names its section too."""
        refused(tmp_path, key, value, text, error)

    @pytest.mark.parametrize("key, value, text, error", VALUE_CASES,
                             ids=[f"{key}-{text}" for key, _, text, _ in VALUE_CASES])
    def test_non_positive_value_named(self, tmp_path, key, value, text, error):
        """A positive value refuses 0, -1 and infinity by its key; the
        body's torque limit and contact radius, values of the
        ``physics.character`` file, are refused when the body is built."""
        refused(tmp_path, key, value, text, error)

    @pytest.mark.parametrize("key, value, text, error", NAN_CASES, ids=[c[0] for c in NAN_CASES])
    def test_nan_value_named(self, tmp_path, key, value, text, error):
        """A float setting refuses NaN, which every ``<`` test lets through,
        by its key."""
        refused(tmp_path, key, value, text, error)

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


    def test_more_clusters_than_samples_refused(self):
        """The sphere export clusters its samples, so ``eval.clusters`` above
        ``eval.samples`` is refused by both keys when the config loads."""
        with pytest.raises(ValueError, match="^clusters 7 exceeds samples 6$"):
            EvalSection(samples=6, clusters=7)
        assert EvalSection(samples=6, clusters=6).clusters == 6
        with pytest.raises(ConfigError, match="^eval: clusters 600 exceeds samples 512$"):
            load_config(None, {"eval.clusters": "600"})

    def test_a_library_without_clips_refused(self):
        """Family counts that sum to 0 give no clip library: the ``data``
        section refuses them when the config loads."""
        error = "the clip-family counts sum to 0: a clip library needs at least one clip"
        zeros = {f"data.{family}": "0" for family in mo.FAMILIES}
        with pytest.raises(ConfigError, match=f"^data: {error}$"):
            load_config(None, zeros)
        assert load_config(None, zeros | {"data.kick": "1"}).data.counts()["kick"] == 1


def refused(tmp_path, key, value, text, error):
    """The section refuses ``value`` of ``key`` at construction with
    ``error``, and the loader refuses its config line ``text`` with the
    section named too; a key of ``CHARACTER_RULES`` is written into a
    ``physics.character`` file instead, and building the body refuses it."""
    section, name = key.split(".")
    error = re.escape(error)
    if key in CHARACTER_RULES:
        char = tmp_path / "char.json"
        ph.character_to_json(ph.default_character(), char)
        char.write_text(json.dumps(json.loads(char.read_text()) | {name: value}))
        physics = load_config(None, {"physics.character": str(char)}).physics
        with pytest.raises(ValueError, match=f"^{error}$"):
            physics.build()
        return
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

    @pytest.mark.parametrize("argv, lines, error", [
        (["train-track", "--updates", "-1"], [], "ppo: updates must be positive, got -1"),
        (["train-track"], ["ppo.pi_hidden = 0"], "ppo: pi_hidden must be widths of at least 1, got 0"),
        (["eval-survival", "--slmp", "."], ["eval.horizons = 1,nan"],
         "eval: horizons must be positive and strictly increasing, got 1.0,nan"),
        (["viz-sphere", "--slmp", "."], ["eval.clusters = 600"],
         "eval: clusters 600 exceeds samples 512"),
        (["gen-data"], [f"data.{family} = 0" for family in mo.FAMILIES],
         "data: the clip-family counts sum to 0: a clip library needs at least one clip"),
    ], ids=["updates", "pi_hidden", "horizons", "clusters", "no-clips"])
    def test_bad_value_refused_before_any_file_is_written(self, tmp_path, capsys, argv, lines, error):
        """A value its rule refuses stops the command with an ``error:``
        line that names the key, before ``--out`` is made."""
        cfg, out = tmp_path / "c.cfg", tmp_path / "out"
        cfg.write_text("".join(line + "\n" for line in lines))
        assert cli.run(argv + ["--config", str(cfg), "--out", str(out)]) == 1
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

    @pytest.mark.parametrize("command", ["gen-data", "train-track", "distill", "train-combat"])
    def test_a_character_without_a_part_is_refused_before_any_file_is_written(
            self, tmp_path, capsys, command):
        """A character file without the pelvis site, which ``gen-data``
        never reads and the training commands first read at a fall check,
        is refused when the run's character is built: every command exits
        1 naming it, and ``--out`` is never made."""
        spec = ph.default_character()
        ph.character_to_json(replace(spec, sites=tuple(s for s in spec.sites if s.name != "pelvis")),
                             tmp_path / "char.json")
        cfg = tmp_path / "char.cfg"
        cfg.write_text(SMOKE_CFG + f"physics.character = {tmp_path / 'char.json'}\n")
        inputs = {"distill": ["--expert", str(tmp_path)], "train-combat": ["--slmp", str(tmp_path)]}
        argv = [command, "--out", str(tmp_path / "out"), "--config", str(cfg), *inputs.get(command, [])]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == "error: the character has no site named 'pelvis'\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("command", ["eval-survival", "viz-sphere"])
    def test_a_directory_with_only_the_prior_is_enough(self, tmp_path, smoke_cfg, command):
        """``eval-survival`` and ``viz-sphere`` read the prior alone, so they
        run on a directory that holds only ``pi_phi.ckpt``, as a
        ``train-combat`` output directory holds it with no encoder."""
        spec = ph.default_character()
        prior = tmp_path / "slmp"
        prior.mkdir()
        phi_spec = nets.MlpSpec(tr.PROPRIO.width(spec) + 4, (8,), spec.n_joints)
        nets.save_checkpoint(prior / "pi_phi.ckpt", "pi_phi", phi_spec,
                             nets.init_params(phi_spec, np.random.default_rng(0)))
        out = tmp_path / "out.txt"
        assert cli.run([command, "--slmp", str(prior), "--out", str(out), "--config", smoke_cfg]) == 0
        assert out.exists()
        assert [p.name for p in prior.iterdir()] == ["pi_phi.ckpt"]

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
