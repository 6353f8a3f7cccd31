import math

import numpy as np
import pytest

import reference
from slmp import motion as mo
from slmp import physics as ph

SPEC = ph.default_character()
CFG = ph.default_config(SPEC)


def make(family, seed=3, duration=6.0):
    return mo.generate_clip(family, seed, duration, spec=SPEC, cfg=CFG)


class TestGenerate:
    def test_deterministic(self):
        a = make("jab", 7)
        b = make("jab", 7)
        for f in ("root_pos", "root_angle", "joints", "root_vel", "joint_vels"):
            assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_idle_root_nearly_static(self):
        for seed in range(3):
            clip = make("idle", seed)
            x = clip.root_pos[:, 0]
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
            mo.generate_clip("idle", 0, duration=1.0, spec=SPEC, cfg=CFG)

    @pytest.mark.parametrize("rate", [0.0, 0.4, -30.0, math.nan, math.inf])
    def test_rate_must_give_two_frames(self, rate):
        """0.4 Hz over 2 s rounds to one frame; draw_start and the
        forward-difference velocities need two."""
        with pytest.raises(ValueError, match="frame rate"):
            mo.generate_clip("idle", 0, 2.0, rate, SPEC, CFG)

    def test_two_frames_suffice(self):
        clip = mo.generate_clip("idle", 0, 2.0, 1.0, SPEC, CFG)
        assert clip.n_frames == 2
        assert np.array_equal(clip.joint_vels[1], clip.joint_vels[0])

    def test_velocities_are_forward_differences(self):
        clip = make("combo", 5)
        hz = clip.frame_rate
        dq = ph.wrap_angle(clip.joints[1:] - clip.joints[:-1]) * hz
        assert np.abs(dq - clip.joint_vels[:-1]).max() < 1e-6
        dp = (clip.root_pos[1:] - clip.root_pos[:-1]) * hz
        assert np.abs(dp - clip.root_vel[:-1]).max() < 1e-6

    def test_no_ground_penetration_kinematically(self):
        for family in mo.FAMILIES:
            clip = make(family, 2, 4.0)
            for i in range(0, clip.n_frames, 3):
                pos = ph.KinFrame(clip.frame_state(i), SPEC).site_pos
                assert pos[:, 1].min() >= -SPEC.contact_radius

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


class TestRowGenerator:
    """The generator poses each frame, then solves arms and legs for the
    whole clip at once, with the bits of the per-frame loop."""

    L1, L2 = SPEC.links[5].length, SPEC.links[6].length

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

    @pytest.mark.parametrize("duration,rate", [(2.0, 30.0), (7.3, 60.0)])
    @pytest.mark.parametrize("family", mo.FAMILIES)
    def test_clip_matches_per_frame_loop(self, family, duration, rate):
        got = mo.generate_clip(family, 5, duration, rate, SPEC, CFG)
        want = reference.generate_clip(family, 5, duration, rate, SPEC, CFG)
        assert got.n_frames == round(duration * rate)
        assert bits(got.frames) == bits(want.frames)

    @pytest.mark.parametrize("duration,rate", [(2.0, 30.0), (7.3, 60.0)])
    def test_two_leg_solves_per_clip(self, monkeypatch, duration, rate):
        calls = []
        leg_ik_rows = ph.leg_ik_rows

        def counted(hip, *args):
            calls.append(len(hip))
            return leg_ik_rows(hip, *args)

        monkeypatch.setattr(ph, "leg_ik_rows", counted)
        clip = mo.generate_clip("kick", 1, duration, rate, SPEC, CFG)
        assert calls == [clip.n_frames] * 2


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
            assert np.abs(g.d_rot).max() < 1e-12
            assert np.abs(g.d_pos).max() < 1e-12
            assert np.allclose(g.ref_rot[1:], ph.wrap_angle(clip.joints[j]))

    def test_root_rotation_offset(self):
        clip = make("idle", 0)
        state = clip.frame_state(1)
        t = 1 / clip.frame_rate
        j = clip.goal_frame_index(t)
        delta = 0.3
        state.root_angle += delta
        g = mo.goal_state(clip, t, state)
        want = ph.wrap_angle(clip.root_angle[j] - state.root_angle)
        assert g.d_rot[0] == pytest.approx(want)

    def test_matches_independent_recomputation(self):
        clip = make("kick", 9)
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
            assert np.allclose(g.d_pos, rot @ (clip.root_pos[j] - state.root_pos), atol=1e-12)
            assert np.allclose(
                g.d_rot[1:], ph.wrap_angle(clip.joints[j] - state.joint_angles), atol=1e-12
            )
            assert np.allclose(
                g.d_ang_vel[1:], clip.joint_vels[j] - state.joint_vels, atol=1e-12
            )
            assert np.allclose(g.ref_pos, rot @ (clip.root_pos[j] - state.root_pos), atol=1e-12)

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
            assert np.shares_memory(c.frames, lib.frames) and np.shares_memory(c.joints, lib.frames)

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
        for f in ("root_pos", "root_angle", "joints", "root_vel", "root_ang_vel", "joint_vels"):
            assert np.array_equal(getattr(back, f), getattr(clip, f))

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
        with pytest.raises(mo.ClipFormatError, match="line 21"):
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
        with pytest.raises(mo.ClipFormatError, match="line 9"):
            mo.load_clip(path)

    def test_duration_from_header(self, tmp_path):
        clip = mo.generate_clip("idle", 0, 10.0, 30.0, SPEC, CFG)
        assert clip.n_frames == 300
        assert clip.duration == pytest.approx(10.0)


class TestResample:
    def test_identity(self):
        clip = make("jab", 2, 4.0)
        same = mo.resample(clip, clip.frame_rate)
        assert np.abs(same.joints - clip.joints).max() < 1e-12
        assert np.abs(same.root_pos - clip.root_pos).max() < 1e-12

    def test_decimate_keeps_every_other_frame(self):
        clip = mo.generate_clip("footwork", 3, 4.0, 60.0, SPEC, CFG)
        half = mo.resample(clip, 30.0)
        assert np.array_equal(half.joints, clip.joints[::2])
        assert np.array_equal(half.root_pos, clip.root_pos[::2])

    def test_up_down_roundtrip(self):
        clip = make("combo", 4, 4.0)
        back = mo.resample(mo.resample(clip, 90.0), 30.0)
        assert back.n_frames == clip.n_frames
        assert np.abs(back.joints - clip.joints).max() < 1e-9
        assert np.abs(back.root_pos - clip.root_pos).max() < 1e-9

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            mo.resample(make("idle", 0, 4.0), 0.0)
