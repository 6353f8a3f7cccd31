"""The character spec is the one description of the body: every body part
the pipeline reads is found by its link or site name, so listing the
links of a character in another order moves its columns and nothing
else."""
from dataclasses import fields, replace

import numpy as np
import pytest

import identity
from slmp import combat as cb
from slmp import evaluate as ev
from slmp import motion as mo
from slmp import nets
from slmp import physics as ph
from slmp import tracking as tr

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)
NAMES = [link.name for link in SPEC.links]
# the default's link positions, legs listed before arms
ORDER = [NAMES.index(n) for n in ("trunk", "upper_leg_l", "lower_leg_l", "upper_leg_r", "lower_leg_r",
                                  "upper_arm_l", "lower_arm_l", "upper_arm_r", "lower_arm_r")]
JOINTS = [i - 1 for i in ORDER[1:]]  # the default's joint of each legs-first joint
TOL = 1e-12


def reordered(spec: ph.CharacterSpec, order: list[int]) -> ph.CharacterSpec:
    """``spec`` with its links at the positions ``order`` (the root
    first): parents, site links and gains follow their links, and the
    sites keep their order."""
    at = {old: new for new, old in enumerate(order)}
    links = tuple(replace(spec.links[o], parent=at.get(spec.links[o].parent, -1)) for o in order)
    sites = tuple(replace(s, link=at[s.link]) for s in spec.sites)
    kp, kd = (tuple(gains[o - 1] for o in order[1:]) for gains in (spec.kp, spec.kd))
    return replace(spec, links=links, sites=sites, kp=kp, kd=kd)


LEGS_FIRST = reordered(SPEC, ORDER)


def assert_states_close(got: ph.SimState, want: ph.SimState) -> None:
    """A legs-first state against the default's, its joints permuted."""
    for name in ("root_pos", "root_angle", "root_vel", "root_ang_vel", "anchor_x"):
        assert np.abs(np.subtract(getattr(got, name), getattr(want, name))).max() <= TOL, name
    assert np.abs(got.joint_angles - want.joint_angles[JOINTS]).max() <= TOL
    assert np.abs(got.joint_vels - want.joint_vels[JOINTS]).max() <= TOL
    assert np.array_equal(got.anchor_on, want.anchor_on)


def assert_worlds_close(got: ph.World, want: ph.World) -> None:
    """Legs-first World rows against the default's, their q columns permuted."""
    for f in fields(ph.World):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("q", "qd"):
            b = b[:, ORDER]
        if a.dtype == bool:
            assert np.array_equal(a, b), f.name
        else:
            assert np.abs(a - b).max() <= TOL, f.name


def legs_first_rows(world: ph.World) -> ph.World:
    return replace(world, q=world.q[:, ORDER].copy(), qd=world.qd[:, ORDER].copy())


class TestLegsFirst:
    """The default body with its legs listed before its arms is the same
    body: its stance, fall height, clips, fixture states, one physics
    step and combat spawn equal the default's with the columns permuted."""

    def test_stance_and_fall_height(self):
        assert_states_close(ph.nominal_stance(LEGS_FIRST, CFG), ph.nominal_stance(SPEC, CFG))
        assert abs(ph.default_config(LEGS_FIRST).fall_height - CFG.fall_height) <= TOL

    def test_clip_frames(self):
        counts = dict.fromkeys(mo.FAMILIES, 1)
        got = mo.generate_library(counts, 2.5, 15.0, LEGS_FIRST, ph.default_config(LEGS_FIRST), seed=3)
        want = mo.generate_library(counts, 2.5, 15.0, SPEC, CFG, seed=3)
        n = 1 + SPEC.n_joints
        cols = [0, 1, *(2 + o for o in ORDER), 2 + n, 3 + n, *(4 + n + o for o in ORDER)]
        assert [c.clip_id for c in got] == [c.clip_id for c in want]
        for a, b in zip(got, want):
            assert np.abs(a.frames - b.frames[:, cols]).max() <= TOL, a.clip_id

    @pytest.mark.parametrize("name", ["guard", "airborne"])
    def test_fixture_states(self, name):
        got = ev.fixture_state(name, LEGS_FIRST, ph.default_config(LEGS_FIRST))
        want = ev.fixture_state(name, SPEC, CFG)
        if want.anchor_x is None:
            assert got.anchor_x is None and got.anchor_on is None
            got.anchor_x = want.anchor_x = np.zeros(1)
            got.anchor_on = want.anchor_on = np.zeros(1, dtype=bool)
        assert_states_close(got, want)

    def test_one_step_from_perturbed_stances(self):
        rng = np.random.default_rng(11)
        want = ph.World.of([ph.nominal_stance(SPEC, CFG)] * 6, SPEC)
        want.q[:, 1:] += rng.uniform(-0.3, 0.3, (6, SPEC.n_joints))
        want.qd += rng.uniform(-2.0, 2.0, want.qd.shape)
        want.root_vel += rng.uniform(-0.5, 0.5, (6, 2))
        targets = want.q[:, 1:] + rng.uniform(-0.2, 0.2, (6, SPEC.n_joints))
        got = legs_first_rows(want)
        assert_worlds_close(got, want)
        want, _ = ph.step_batch(want, SPEC, CFG.dt, CFG, targets)
        got, _ = ph.step_batch(got, LEGS_FIRST, CFG.dt, CFG, targets[:, JOINTS])
        assert_worlds_close(got, want)

    def test_combat_spawn_perturbs_the_arms(self):
        phi_spec = nets.MlpSpec(tr.PROPRIO.width(SPEC) + 4, (8,), SPEC.n_joints)
        phi_params = nets.init_params(phi_spec, np.random.default_rng(0))
        envs = [cb.CombatEnv(phi_spec, phi_params, spec, ph.default_config(spec), cb.CombatConfig(),
                             [np.random.default_rng(5), np.random.default_rng(6)])
                for spec in (LEGS_FIRST, SPEC)]
        assert_worlds_close(envs[0].world, envs[1].world)


class TestNames:
    def test_links_and_sites_are_found_by_name(self):
        assert [SPEC.link_index[n] for n in NAMES] == list(range(SPEC.n_links))
        assert LEGS_FIRST.link_index["upper_arm_l"] == 5
        assert LEGS_FIRST.joint("upper_arm_l") == 4
        assert SPEC.site_index["head_top"] == 1

    @pytest.mark.parametrize("lookup, message", [
        (lambda: SPEC.link_index["thigh_l"], "the character has no link named 'thigh_l'"),
        (lambda: SPEC.site_index["chin"], "the character has no site named 'chin'"),
        (lambda: SPEC.joint("shoulder_l"), "the character has no link named 'shoulder_l'"),
        (lambda: SPEC.joint("trunk"), "link 'trunk' is the root, which no joint moves"),
    ], ids=["link", "site", "joint", "root"])
    def test_a_missing_name_is_refused_by_name(self, lookup, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            lookup()

    @pytest.mark.parametrize("part", ["links", "sites"])
    def test_duplicate_names_are_refused(self, part):
        parts = getattr(SPEC, part)
        twin = replace(parts[2], name=parts[1].name)
        with pytest.raises(ValueError, match="link names and site names must each be unique"):
            replace(SPEC, **{part: (*parts[:2], twin, *parts[3:])})

    def test_a_role_missing_from_the_character_is_refused_by_name(self):
        thigh = tuple(replace(l, name="thigh_l") if l.name == "upper_leg_l" else l for l in SPEC.links)
        with pytest.raises(ValueError, match="no link named 'upper_leg_l'"):
            ph.nominal_stance(replace(SPEC, links=thigh), CFG)


def test_body_parts_are_the_names_the_pipeline_looks_up(monkeypatch, tmp_path):
    """``physics.BODY_PARTS``, the parts a character file must have, are
    exactly the links and sites that the smoke pipeline's eight commands
    and the airborne fixture state look up by name, so the tuple cannot
    drift from the code that reads the parts."""
    seen = set()

    def lookup(index, name):
        seen.add((index.kind, name))
        return dict.__getitem__(index, name)

    monkeypatch.setattr(ph.NameIndex, "__getitem__", lookup)
    identity.smoke_pipeline(tmp_path)
    ev.fixture_state("airborne", SPEC, CFG)
    assert seen == set(ph.BODY_PARTS)


def test_each_leg_is_solved_with_its_own_lengths():
    """With a right shin 5 cm longer than the left, the clip IK puts each
    foot on its target: the stance's feet, under a crouched, tilted root."""
    links = tuple(replace(l, length=0.45) if l.name == "lower_leg_r" else l for l in SPEC.links)
    sites = tuple(replace(s, dist=0.45) if s.name == "foot_r" else s for s in SPEC.sites)
    spec = replace(SPEC, links=links, sites=sites)
    b = mo._PoseBuilder(spec, ph.default_config(spec))
    world = ph.World.zeros(5, spec)
    world.root_pos[:] = b.root0 - [0.0, 0.1]
    world.q[:] = np.concatenate([[0.0], b.stance.joint_angles])
    world.q[:, 0] = np.linspace(-0.1, 0.1, 5)
    feet = {side: np.tile(b.foot0[side], (5, 1)) for side in "lr"}
    b.legs(world.q[:, 1:], world.root_pos, world.q[:, 0], feet["l"], feet["r"])
    k = ph.Kinematics.of(world, spec)
    for side in "lr":
        s = spec.site_index[f"foot_{side}"]
        miss = np.hypot(k.site_x[:, s] - feet[side][:, 0], k.site_y[:, s] - feet[side][:, 1])
        assert miss.max() < 1e-12, side
