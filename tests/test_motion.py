import math

import numpy as np
import pytest

import reference
from reference import one_clip
from slmp import motion as mo
from slmp import physics as ph

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)
G = mo.GOAL.of(SPEC.n_joints)


def make(family, seed=3, duration=6.0):
    return one_clip(family, seed, duration, spec=SPEC, cfg=CFG)


class TestGenerate:
    def test_deterministic(self):
        a = make("jab", 7)
        b = make("jab", 7)
        for x, y in zip(mo.split_frames(a.frames), mo.split_frames(b.frames)):
            assert np.array_equal(x, y)

    def test_idle_root_nearly_static(self):
        for seed in range(3):
            clip = make("idle", seed)
            x = mo.split_frames(clip.frames)[0][:, 0]
            assert x.max() - x.min() < 0.05

    def test_jab_hand_speed_dominates_idle(self):
        def peak_hand(clip):
            best = 0.0
            for i in range(clip.n_frames):
                v = ph.KinFrame(clip.frame_state(i), SPEC).site_vel
                best = max(best, float(np.linalg.norm(v[SPEC.site_index["hand_l"]])))
            return best

        assert peak_hand(make("jab", 1)) > 3.0 * peak_hand(make("idle", 1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make("cartwheel")

    def test_duration_bounds(self):
        with pytest.raises(ValueError):
            one_clip("idle", 0, duration=1.0, spec=SPEC, cfg=CFG)

    @pytest.mark.parametrize("rate", [0.0, 0.4, -30.0, math.nan, math.inf])
    def test_rate_must_give_two_frames(self, rate):
        """0.4 Hz over 2 s rounds to one frame; draw_start and the
        forward-difference velocities need two."""
        with pytest.raises(ValueError, match="frame rate"):
            one_clip("idle", 0, 2.0, rate, SPEC, CFG)

    def test_two_frames_suffice(self):
        clip = one_clip("idle", 0, 2.0, 1.0, SPEC, CFG)
        assert clip.n_frames == 2
        joint_vels = mo.split_frames(clip.frames)[3][:, 1:]
        assert np.array_equal(joint_vels[1], joint_vels[0])

    def test_velocities_are_forward_differences(self):
        clip = make("combo", 5)
        hz = clip.frame_rate
        root_pos, q, root_vel, qd = mo.split_frames(clip.frames)
        joints, joint_vels = q[:, 1:], qd[:, 1:]
        dq = ph.wrap_angle(joints[1:] - joints[:-1]) * hz
        assert np.abs(dq - joint_vels[:-1]).max() < 1e-6
        dp = (root_pos[1:] - root_pos[:-1]) * hz
        assert np.abs(dp - root_vel[:-1]).max() < 1e-6

    def test_no_ground_penetration_kinematically(self):
        for family in mo.FAMILIES:
            clip = make(family, 2, 4.0)
            for i in range(0, clip.n_frames, 3):
                pos = ph.KinFrame(clip.frame_state(i), SPEC).site_pos
                assert pos[:, 1].min() >= -SPEC.contact_radius

    @pytest.mark.parametrize("counts, match", [
        ({"jabs": 3}, "unknown clip family 'jabs'"),
        ({"idle": 1, "jab": -2}, "'jab' clip count must be non-negative, got -2"),
    ])
    def test_library_refuses_bad_counts(self, counts, match):
        with pytest.raises(ValueError, match=match):
            mo.generate_library(counts, duration=2.0, spec=SPEC, cfg=CFG)

    def test_only_none_means_the_default_counts(self):
        assert mo.generate_library({}, duration=2.0, spec=SPEC, cfg=CFG) == []
        assert mo.generate_library({"idle": 0}, duration=2.0, spec=SPEC, cfg=CFG) == []
        clips = mo.generate_library(None, duration=2.0, spec=SPEC, cfg=CFG)
        assert [c.family for c in clips] == [f for f, n in mo.DEFAULT_COUNTS.items() for _ in range(n)]

    def test_library_of_no_clips_is_refused(self):
        for build in (mo.ClipLibrary, mo.ClipLibrary.of):
            with pytest.raises(ValueError, match="no clips"):
                build([])

    def test_library_counts_and_ids(self):
        clips = mo.generate_library(
            {"idle": 2, "footwork": 1, "jab": 1, "hook": 0, "kick": 0, "combo": 0},
            duration=2.0, spec=SPEC, cfg=CFG,
        )
        assert [c.family for c in clips] == ["idle", "idle", "footwork", "jab"]
        assert clips[0].clip_id == "idle-000"
        assert clips[3].clip_id == "jab-003"

    def test_reference_clips_never_trigger_fall(self):
        for family in mo.FAMILIES:
            clip = make(family, 1, 4.0)
            for i in range(0, clip.n_frames, 2):
                assert not ph.detect_fall(clip.frame_state(i), SPEC, CFG), family


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


SEEDS = (5, 6)  # seed 5 kicks with the right foot, seed 6 with the left
SIZES = [(2.0, 30.0), (7.3, 60.0)]  # (duration, rate)


class TestRowGenerator:
    """The generator poses each clip on its frame times, then solves arms
    and legs for the whole library at once, with the bits of the
    per-frame loop."""

    L1, L2 = (SPEC.links[SPEC.link_index[n]].length for n in ("upper_leg_l", "lower_leg_l"))

    def test_leg_ik_rows_matches_one_leg_at_a_time(self):
        rng = np.random.default_rng(17)
        n = 600
        hip = rng.uniform(-1.0, 1.0, (n, 2))
        foot = hip + rng.uniform(-0.6, 0.6, (n, 2))
        foot[:20] = hip[:20]  # coincident: the 1e-6 distance clamp
        away = rng.uniform(-math.pi, math.pi, 60)
        reach = self.L1 + self.L2 + rng.uniform(1e-9, 1.0, 60)
        foot[20:80] = hip[20:80] + reach[:, None] * np.stack([np.cos(away), np.sin(away)], axis=1)
        root_angle = rng.uniform(-math.pi, math.pi, n)
        dist = np.linalg.norm(foot - hip, axis=1)
        assert (dist > self.L1 + self.L2).sum() >= 60

        qh, qk = ph.leg_ik_rows(hip, foot, self.L1, self.L2, root_angle)
        ref = np.array([
            reference.leg_ik(h, f, self.L1, self.L2, a) for h, f, a in zip(hip, foot, root_angle)
        ])
        assert bits(qh) == bits(ref[:, 0])
        assert bits(qk) == bits(ref[:, 1])

    @pytest.mark.parametrize("duration,rate", SIZES)
    def test_seeds_reach_every_branch(self, duration, rate):
        """Over ``SEEDS``, the per-frame poses kick with either foot, lift
        both feet in footwork, and have jabs and hooks under way."""
        b = mo._PoseBuilder(SPEC, CFG)

        def poses(family, seed):
            pose = reference.pose_fn(family, np.random.default_rng(seed), b)
            return [pose(k / rate) for k in range(round(duration * rate))]

        def raised(frames):
            return {side for side, i in (("l", 4), ("r", 5))
                    if any(f[i][1] > b.foot0[side][1] for f in frames)}

        assert [raised(poses("kick", seed)) for seed in SEEDS] == [{"r"}, {"l"}]
        for seed in SEEDS:
            assert raised(poses("footwork", seed)) == {"l", "r"}
            # jabs move the left arm, hooks the right (GUARD_ARMS order)
            for family, cols in (("jab", [0, 1]), ("hook", [2, 3]), ("combo", [0, 1, 2, 3])):
                offsets = np.array([f[3] for f in poses(family, seed)])
                assert (offsets[:, cols] != 0.0).any(axis=0).all()

    @pytest.mark.parametrize("duration,rate", SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", mo.FAMILIES)
    def test_clip_matches_per_frame_loop(self, family, seed, duration, rate):
        got = one_clip(family, seed, duration, rate, SPEC, CFG)
        want = reference.generate_clip(family, seed, duration, rate, SPEC, CFG)
        assert got.n_frames == round(duration * rate)
        assert bits(got.frames) == bits(want.frames)

    def test_library_matches_per_clip_loop(self):
        """A library at other counts, duration, rate and seed: clip k is the
        per-frame loop's clip of seed ``17 + k``."""
        counts = {"combo": 1, "kick": 2, "idle": 1, "hook": 1, "footwork": 2, "jab": 1}
        clips = mo.generate_library(counts, 3.3, 24.0, SPEC, CFG, seed=17)
        families = [f for f in mo.FAMILIES for _ in range(counts[f])]
        assert [c.family for c in clips] == families
        for k, (clip, family) in enumerate(zip(clips, families)):
            want = reference.generate_clip(family, 17 + k, 3.3, 24.0, SPEC, CFG)
            assert (clip.clip_id, clip.frame_rate) == (want.clip_id, want.frame_rate)
            assert bits(clip.frames) == bits(want.frames)

    @pytest.mark.parametrize("duration,rate", SIZES)
    def test_two_leg_solves_per_clip(self, monkeypatch, duration, rate):
        calls = []
        leg_ik_rows = ph.leg_ik_rows

        def counted(hip, *args):
            calls.append(len(hip))
            return leg_ik_rows(hip, *args)

        monkeypatch.setattr(ph, "leg_ik_rows", counted)
        clip = one_clip("kick", 1, duration, rate, SPEC, CFG)
        assert calls == [clip.n_frames] * 2

    def test_one_builder_and_two_leg_solves_per_library(self, monkeypatch):
        """The default library is posed with one ``_PoseBuilder``, and each
        leg of all its frames is solved in one call."""
        builders, calls = [], []
        leg_ik_rows = ph.leg_ik_rows

        class Counted(mo._PoseBuilder):
            def __init__(self, *args):
                builders.append(self)
                super().__init__(*args)

        def counted(hip, *args):
            calls.append(len(hip))
            return leg_ik_rows(hip, *args)

        monkeypatch.setattr(mo, "_PoseBuilder", Counted)
        monkeypatch.setattr(ph, "leg_ik_rows", counted)
        clips = mo.generate_library(spec=SPEC, cfg=CFG)
        assert len(clips) == 40 and len(builders) == 1
        assert calls == [sum(c.n_frames for c in clips)] * 2


class TestGoal:
    def test_zero_differences_at_reference(self):
        clip = make("footwork", 4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            i = int(rng.integers(clip.n_frames - 1))
            t = i / clip.frame_rate
            state = clip.frame_state(i)
            # place the state exactly at the goal frame
            j = clip.goal_frame_index(t)
            state = clip.frame_state(j)
            state.time = t
            g = mo.goal_state(clip, t, state)
            assert np.abs(g[G.d_rot]).max() < 1e-12
            assert np.abs(g[G.d_pos]).max() < 1e-12
            assert np.allclose(g[G.ref_rot][1:], ph.wrap_angle(mo.split_frames(clip.frames)[1][j, 1:]))

    def test_root_rotation_offset(self):
        clip = make("idle", 0)
        state = clip.frame_state(1)
        t = 1 / clip.frame_rate
        j = clip.goal_frame_index(t)
        delta = 0.3
        state.root_angle += delta
        g = mo.goal_state(clip, t, state)
        want = reference.wrap_angle(mo.split_frames(clip.frames)[1][j, 0] - state.root_angle)
        assert g[G.d_rot][0] == pytest.approx(want)

    def test_matches_independent_recomputation(self):
        clip = make("kick", 9)
        root_pos, q, _, qd = mo.split_frames(clip.frames)
        joints, joint_vels = q[:, 1:], qd[:, 1:]
        rng = np.random.default_rng(8)
        for _ in range(20):
            i = int(rng.integers(clip.n_frames - 2))
            t = i / clip.frame_rate
            state = clip.frame_state(i)
            state.root_pos = state.root_pos + rng.uniform(-0.2, 0.2, 2)
            state.root_angle += rng.uniform(-0.5, 0.5)
            state.joint_angles = state.joint_angles + rng.uniform(-0.3, 0.3, 8)
            g = mo.goal_state(clip, t, state)
            j = int(np.floor((t + 1 / clip.frame_rate) * clip.frame_rate + 1e-9))
            c, s = np.cos(-state.root_angle), np.sin(-state.root_angle)
            rot = np.array([[c, -s], [s, c]])
            assert np.allclose(g[G.d_pos], rot @ (root_pos[j] - state.root_pos), atol=1e-12)
            assert np.allclose(
                g[G.d_rot][1:], ph.wrap_angle(joints[j] - state.joint_angles), atol=1e-12
            )
            assert np.allclose(
                g[G.d_ang_vel][1:], joint_vels[j] - state.joint_vels, atol=1e-12
            )
            assert np.allclose(g[G.ref_pos], rot @ (root_pos[j] - state.root_pos), atol=1e-12)

    def test_goal_rows_fill_the_goal_layout(self):
        """``goal_rows``, writing into a NaN-filled buffer, fills every
        column of ``GOAL``, and each block holds the columns it held before
        the layout was declared."""
        n = SPEC.n_joints + 1
        parent = {"d_rot": slice(0, n), "d_pos": slice(n, n + 2), "d_vel": slice(n + 2, n + 4),
                  "d_ang_vel": slice(n + 4, 2 * n + 4), "ref_rot": slice(2 * n + 4, 3 * n + 4),
                  "ref_pos": slice(3 * n + 4, 3 * n + 6)}
        clip = make("kick", 9)
        rng = np.random.default_rng(3)
        ref = clip.frames[1:7]
        rows = [x + rng.uniform(-4.0, 4.0, x.shape) for x in mo.split_frames(clip.frames[:6])]
        got = mo.goal_rows(ref, *rows, out=np.full((6, G.width), np.nan))
        want = reference.observation(ref, *rows)[:, 2 * n + 4:]
        assert G.width == got.shape[1] and not np.isnan(got).any()
        assert list(vars(G)) == [*parent, "width"]
        for name, cols in parent.items():
            assert getattr(G, name) == cols, name
            assert got[:, cols].tobytes() == want[:, cols].tobytes(), name

    def test_out_of_range(self):
        clip = make("idle", 0, 4.0)
        with pytest.raises(ValueError):
            mo.goal_state(clip, clip.duration + 1.0, clip.frame_state(0))

    def test_goal_index_clamps_to_last_frame(self):
        clip = make("idle", 0, 4.0)
        assert clip.goal_frame_index(clip.duration - 1e-6) == clip.n_frames - 1


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.fixture(scope="module")
def default_clips():
    return mo.generate_library()


class TestClipLibrary:
    def times(self, clips, ci, rng):
        """Seeded times on clips ``ci``: uniform inside each clip, exactly 0,
        exactly each clip's duration, and a few past either end."""
        dur = np.array([c.duration for c in clips])[ci]
        t = rng.uniform(0.0, dur)
        t[::7], t[1::7] = 0.0, dur[1::7]
        return t, dur

    def test_sample_frames_equal_the_list_oracle(self, default_clips):
        clips, rng = default_clips, np.random.default_rng(13)
        lib = mo.ClipLibrary.of(clips)
        ci = np.concatenate([np.arange(len(clips)), rng.integers(len(clips), size=400)])
        t, dur = self.times(clips, ci, rng)
        t[2::7] = -rng.uniform(0.0, 1.0, len(t[2::7]))
        t[3::7] = dur[3::7] + rng.uniform(0.0, 1.0, len(t[3::7]))
        want = reference.sample_frames([clips[i] for i in ci], t)
        assert bits(mo.sample_frames(lib, ci, t)) == bits(want)

    def test_goal_frames_equal_the_list_oracle(self, default_clips):
        clips, rng = default_clips, np.random.default_rng(14)
        lib = mo.ClipLibrary.of(clips)
        ci = np.concatenate([np.arange(len(clips)), rng.integers(len(clips), size=400)])
        t, dur = self.times(clips, ci, rng)
        want = reference.goal_frames([clips[i] for i in ci], t)
        assert bits(mo.goal_frames(lib, ci, t)) == bits(want)
        for bad in (-0.5, 1.0):
            t_bad = t.copy()
            t_bad[5] = -0.5 if bad < 0 else dur[5] + bad
            with pytest.raises(ValueError, match="outside clip duration"):
                mo.goal_frames(lib, ci, t_bad)
            with pytest.raises(ValueError, match="outside clip duration"):
                reference.goal_frames([clips[i] for i in ci], t_bad)

    def test_one_array_with_clip_views(self):
        clips = [make("idle", 1, 3.0), make("kick", 2, 4.0), make("jab", 3, 2.0)]
        before = [bits(c.frames) for c in clips]
        lib = mo.ClipLibrary(clips)
        assert lib.frames.shape == (sum(c.n_frames for c in clips), clips[0].frames.shape[1])
        assert list(lib.offset) == [0, clips[0].n_frames, clips[0].n_frames + clips[1].n_frames]
        assert list(lib.idle_fw) == [True, False, False]
        for c, b in zip(clips, before):
            assert bits(c.frames) == b
            joints = mo.split_frames(c.frames)[1][:, 1:]
            assert np.shares_memory(c.frames, lib.frames) and np.shares_memory(joints, lib.frames)

    def test_of_builds_one_library_per_clip_list(self):
        clips = [make("idle", 1, 3.0), make("jab", 3, 2.0)]
        lib = mo.ClipLibrary.of(clips)
        assert mo.ClipLibrary.of(list(clips)) is lib
        assert mo.ClipLibrary.of(clips[::-1]) is not lib

    def test_clip_methods_go_through_the_library(self, monkeypatch):
        clip = make("hook", 6, 3.0)
        calls = []
        for name in ("sample_frames", "_goal_index"):
            fn = getattr(mo, name)
            monkeypatch.setattr(mo, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        clip.sample(1.0)
        clip.goal_frame_index(1.0)
        assert calls == ["sample_frames", "_goal_index"]


class TestClipIO:
    def test_roundtrip(self, tmp_path):
        clip = make("hook", 6)
        path = tmp_path / "clip.clip"
        mo.save_clip(clip, path)
        back = mo.load_clip(path)
        assert back.family == clip.family
        assert back.clip_id == clip.clip_id
        assert back.frame_rate == clip.frame_rate
        for x, y in zip(mo.split_frames(back.frames), mo.split_frames(clip.frames)):
            assert np.array_equal(x, y)

    def test_saved_text_matches_per_value_formatter(self, tmp_path):
        clip = make("kick", 6)
        clip.frames[0, :4] = [-0.0, 1e-300, -2.5e17, 1.0 / 3.0]
        for i, clip in enumerate((clip, make("footwork", 1, 2.0))):
            path = tmp_path / f"{i}.clip"
            mo.save_clip(clip, path)
            assert path.read_bytes() == reference.clip_text(clip).encode()

    def test_truncated_file_names_line(self, tmp_path):
        clip = make("idle", 0, 4.0)
        path = tmp_path / "t.clip"
        mo.save_clip(clip, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:20]) + "\n")
        with pytest.raises(ValueError, match="line 21"):
            mo.load_clip(path)

    def test_bad_value_names_line(self, tmp_path):
        clip = make("idle", 0, 4.0)
        path = tmp_path / "t.clip"
        mo.save_clip(clip, path)
        lines = path.read_text().splitlines()
        parts = lines[8].split()
        parts[3] = "bogus"
        lines[8] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 9"):
            mo.load_clip(path)

    @pytest.mark.parametrize("edit, where", [
        (lambda lines: lines + [lines[-1]], "line 17: data after the last of 10 rows"),
        (lambda lines: [lines[0], "hz=30.0", "frames=-3", *lines[3:]], "header line frames='-3'"),
        (lambda lines: [lines[0], "hz=0.0", *lines[2:]], "header line hz='0.0'"),
        (lambda lines: [*lines[:4], "joints=eight", *lines[5:]], "header line joints='eight'"),
        (lambda lines: [*lines[:3], "kind=idle", *lines[4:]], "header has no 'family' line"),
        (lambda lines: [*lines[:7], " ".join(["+0x1.999999999999Ap-0004", *lines[7].split()[1:]]),
                        *lines[8:]], "line 8: not a table value"),
        (lambda lines: [*lines[:8], " ".join(["+0x0.8000000000000p-1021", *lines[8].split()[1:]]),
                        *lines[9:]], "line 9: not a table value"),
        (lambda lines: [*lines[:9], lines[9][1:], *lines[10:]], "line 10: not a table value"),
        (lambda lines: [*lines[:10], " ".join(["0.5", *lines[10].split()[1:]]), *lines[11:]],
         "line 11: not a table value"),
        (lambda lines: ["SLMP-CLIP/1", *lines[1:]], "line 1: expected SLMP-CLIP/2"),
    ])
    def test_bad_file_is_refused_by_line_or_key(self, tmp_path, edit, where):
        path = tmp_path / "t.clip"
        mo.save_clip(one_clip("idle", 0, 2.0, 5.0, SPEC, CFG), path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=f"t.clip: {where}"):
            mo.load_clip(path)

    def test_one_frame_clip_round_trips(self, tmp_path):
        """A 1-frame clip, as a short combat rollout writes, saves and loads;
        only a rollout needs 2 frames."""
        clip = mo.MotionClip(6.0, "combat", "one", make("jab").frames[:1])
        mo.save_clip(clip, tmp_path / "one.clip")
        back = mo.load_clip(tmp_path / "one.clip")
        assert back.n_frames == 1 and back.frames.tobytes() == clip.frames.tobytes()

    def test_numpy_frame_rate_round_trips(self, tmp_path):
        """A clip at a numpy rate writes an ``hz=`` line that reads back."""
        clip = mo.MotionClip(np.float64(15.0), "jab", "r", make("jab").frames)
        mo.save_clip(clip, tmp_path / "r.clip")
        assert mo.load_clip(tmp_path / "r.clip").frame_rate == 15.0

    @pytest.mark.parametrize("hz", [0.0, -30.0, math.inf, math.nan])
    def test_clip_refuses_a_bad_frame_rate(self, hz):
        clip = make("idle")
        with pytest.raises(ValueError, match="frame rate .* is not finite and positive"):
            mo.MotionClip(hz, "idle", "bad", clip.frames)

    @pytest.mark.parametrize("shape", [(10,), (10, 5), (10, 4), (10, 21), (10, 22, 1)])
    def test_clip_refuses_frames_not_shaped_as_rows(self, shape):
        """Frame rows are (F, 6 + 2J): a root of 3 coordinates and 3 rates,
        then J joint angles and J joint rates."""
        with pytest.raises(ValueError, match=r"frames must be \(F, 6 \+ 2J\) rows, got shape"):
            mo.MotionClip(30.0, "idle", "bad", np.zeros(shape))

    def test_duration_from_header(self, tmp_path):
        clip = one_clip("idle", 0, 10.0, 30.0, SPEC, CFG)
        assert clip.n_frames == 300
        assert clip.duration == pytest.approx(10.0)
