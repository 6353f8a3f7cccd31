import numpy as np
import pytest

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
