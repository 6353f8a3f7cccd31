"""Per-layer tracing of slmp from outside the package.

``Tracer.install`` replaces public functions and methods of the slmp
modules with wrappers that record one span per call: name, start, end
and the index of the enclosing span.  Spans stay in memory and are
written once, by ``write_spans``, after the run.  Everything is undone
by ``restore``.  Because slmp resolves module attributes at call time,
a wrapper also sees calls made from inside its own module.

``layer_metrics`` turns the spans and counters of one traced run into
the per-layer metrics of ``BENCHMARK.json``.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROW_BUCKETS = ("rows1", "rows2_64", "rows65p")

# span names whose time is attributed to a pipeline stage; the rest of a
# root span is the "collect" stage (rollouts and loop bookkeeping)
STAGE_OF = {
    "tracking.gae": "gae",
    "tracking.ppo_update": "optimise",
    "distill.slmp_update.pre_latch": "optimise",
    "distill.slmp_update.post_latch": "optimise",
    "tracking.save_train_state": "io",
    "nets.save_checkpoint": "io",
    "nets.load_checkpoint": "io",
    "nets.adam_state_save": "io",
    "distill.load_prior": "io",
}
STAGES = ("collect", "gae", "optimise", "io")
ROOT_SPANS = ("tracking.train_tracking", "combat.self_play_train", "learn.round")
TRACK_ENDS = ("fell", "diverged", "clip_end")
COMBAT_ENDS = ("knockdown", "clinch", "farming", "separated", "timeout")


def _rows_bucket(args) -> str:
    rows = np.shape(args[2])[0]
    if rows <= 1:
        return "rows1"
    return "rows2_64" if rows <= 64 else "rows65p"


def _world_size(args) -> str:
    return f"{len(args[0])}char"


def _latch(args) -> str:
    return "post_latch" if args[3].use_wc else "pre_latch"


def _count_world(counts: Counter, args, out) -> None:
    states = out[0]
    counts["char_steps"] += len(states)
    counts["invalid"] += sum(1 for s in states if not s.valid)


def _count_track_step(counts: Counter, args, out) -> None:
    info = out[3]
    counts["track_steps"] += 1
    for k in TRACK_ENDS:
        counts[f"end.{k}"] += bool(info[k])


def _count_decision(counts: Counter, args, out) -> None:
    counts["decisions"] += 1
    reason = out[3]["reason"]
    if reason is not None:
        counts[f"end.{reason}"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, label=None, observe=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``label(args)`` appends a suffix to the span name; ``observe(counts,
        args, result)`` updates counters from the call's result.
        """
        orig = getattr(owner, attr)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([name if label is None else f"{name}.{label(args)}", 0.0, 0.0,
                          stack[-1] if stack else -1])
            stack.append(i)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i][1] = t0
                spans[i][2] = t1
            if observe is not None:
                observe(counts, args, out)
            return out

        setattr(owner, attr, functools.update_wrapper(wrapper, orig))
        self._patches.append((owner, attr, orig))

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        orig = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        setattr(owner, attr, functools.update_wrapper(wrapper, orig))
        self._patches.append((owner, attr, orig))

    def install(self, learn_cls=None) -> None:
        """Wrap the layer boundaries of every slmp module."""
        from slmp import combat, distill, motion, nets, physics, tracking

        self.wrap(physics, "step_world", "physics.step_world", _world_size, _count_world)
        self.wrap(physics, "detect_fall", "physics.detect_fall")
        self.count(physics.KinFrame, "__init__", "kinframe")
        self.wrap(tracking, "train_tracking", "tracking.train_tracking")
        self.wrap(tracking, "collect_rollouts", "tracking.collect_rollouts")
        self.wrap(tracking, "gae", "tracking.gae")
        self.wrap(tracking, "ppo_update", "tracking.ppo_update")
        self.wrap(tracking, "ppo_loss_and_grads", "tracking.ppo_loss_and_grads")
        self.wrap(tracking, "save_train_state", "tracking.save_train_state")
        self.wrap(tracking.TrackingEnv, "step", "tracking.TrackingEnv.step",
                  observe=_count_track_step)
        self.wrap(tracking, "imitation_reward", "tracking.imitation_reward")
        self.wrap(tracking, "track_obs", "tracking.track_obs")
        self.wrap(tracking.GaussianPolicy, "sample", "tracking.GaussianPolicy.sample")
        self.wrap(nets, "forward_batch", "nets.forward_batch", _rows_bucket)
        self.wrap(nets, "backward_batch", "nets.backward_batch")
        self.wrap(nets, "adam_step", "nets.adam_step")
        self.wrap(nets, "save_checkpoint", "nets.save_checkpoint")
        self.wrap(nets, "load_checkpoint", "nets.load_checkpoint")
        self.wrap(nets, "adam_state_save", "nets.adam_state_save")
        self.wrap(distill, "slmp_update", "distill.slmp_update", _latch)
        self.wrap(distill, "sample_sphere", "distill.sample_sphere")
        self.wrap(distill, "prior_action", "distill.prior_action")
        self.wrap(distill, "load_prior", "distill.load_prior")
        self.wrap(combat, "self_play_train", "combat.self_play_train")
        self.wrap(combat.CombatEnv, "decision_step", "combat.CombatEnv.decision_step",
                  observe=_count_decision)
        self.wrap(combat, "hit_events", "combat.hit_events")
        self.wrap(combat, "combat_observation", "combat.combat_observation")
        self.wrap(combat, "high_level_step", "combat.high_level_step")
        self.wrap(motion.MotionClip, "sample", "motion.MotionClip.sample")
        self.wrap(motion, "goal_state", "motion.goal_state")
        self.wrap(motion, "generate_library", "motion.generate_library")
        if learn_cls is not None:
            self.wrap(learn_cls, "round", "learn.round")

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def write_spans(self, path: Path) -> None:
        """One CSV row per span: index, name, start and end in microseconds
        from the first span, and the parent's index (-1 for none)."""
        t_zero = self.spans[0][1] if self.spans else 0.0
        lines = ["index,name,start_us,end_us,parent"]
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            lines.append(f"{i},{name},{(t0 - t_zero) * 1e6:.3f},{(t1 - t_zero) * 1e6:.3f},{parent}")
        Path(path).write_text("\n".join(lines) + "\n")

    def totals(self) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = {}
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[i]
        return out

    def stage_seconds(self) -> dict[str, float]:
        """Seconds per stage; a span inside a span of the same stage counts once."""
        spans = self.spans
        out = dict.fromkeys(STAGES, 0.0)
        for name, t0, t1, parent in spans:
            stage = STAGE_OF.get(name)
            if stage is None:
                continue
            p = parent
            while p >= 0 and STAGE_OF.get(spans[p][0]) != stage:
                p = spans[p][3]
            if p < 0:
                out[stage] += t1 - t0
        return out


def layer_metrics(tracer: Tracer, setup: Tracer, traced_s: float, plain_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run.

    ``setup`` holds the spans of the traced set-up, ``traced_s`` and
    ``plain_s`` the wall time of the measured call with and without
    tracing.  Values are (number, unit); a layer the workload never
    calls reports 0.
    """
    tot = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0])[0]

    def per_call(name, scale, kind=1):
        agg = tot.get(name)
        return agg[kind] / agg[0] * scale if agg else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    root_s = sum(tot.get(n, [0, 0.0])[1] for n in ROOT_SPANS)
    world_calls = calls("physics.step_world.1char") + calls("physics.step_world.2char")
    world_s = sum(tot.get(f"physics.step_world.{k}char", [0, 0.0])[1] for k in (1, 2))
    stages = tracer.stage_seconds()
    stages["collect"] = max(root_s - sum(stages.values()), 0.0)
    lib = setup.totals().get("motion.generate_library")

    m: dict[str, tuple[float, str]] = {
        "physics.step_world.1char.us_per_call": (per_call("physics.step_world.1char", 1e6), "us"),
        "physics.step_world.2char.us_per_call": (per_call("physics.step_world.2char", 1e6), "us"),
        "physics.step_world.share": (ratio(world_s, root_s), "fraction"),
        "physics.detect_fall.us_per_call": (per_call("physics.detect_fall", 1e6), "us"),
        "physics.kinframe_builds_per_step": (ratio(counts["kinframe"], world_calls), "count"),
        "physics.invalid_frac": (ratio(counts["invalid"], counts["char_steps"]), "fraction"),
        "tracking.TrackingEnv.step.self_us": (per_call("tracking.TrackingEnv.step", 1e6, 2), "us"),
        "tracking.imitation_reward.us_per_call": (per_call("tracking.imitation_reward", 1e6), "us"),
        "tracking.track_obs.us_per_call": (per_call("tracking.track_obs", 1e6), "us"),
        "tracking.GaussianPolicy.sample.us_per_call":
            (per_call("tracking.GaussianPolicy.sample", 1e6), "us"),
        "tracking.collect.share":
            (ratio(tot.get("tracking.collect_rollouts", [0, 0.0])[1], root_s), "fraction"),
        "tracking.gae.ms_per_call": (per_call("tracking.gae", 1e3), "ms"),
    }
    for k in TRACK_ENDS:
        m[f"tracking.ends_per_kstep.{k}"] = (
            ratio(counts[f"end.{k}"], counts["track_steps"], 1e3), "1/kstep")
    m.update({
        "tracking.ppo_update.s_per_call": (per_call("tracking.ppo_update", 1.0), "s"),
        "tracking.ppo_loss_and_grads.ms_per_call": (per_call("tracking.ppo_loss_and_grads", 1e3), "ms"),
        "nets.backward_batch.ms_per_call": (per_call("nets.backward_batch", 1e3), "ms"),
        "nets.adam_step.ms_per_call": (per_call("nets.adam_step", 1e3), "ms"),
    })
    for b in ROW_BUCKETS:
        m[f"nets.forward_batch.{b}.calls"] = (float(calls(f"nets.forward_batch.{b}")), "count")
        m[f"nets.forward_batch.{b}.us_per_call"] = (per_call(f"nets.forward_batch.{b}", 1e6), "us")
    m.update({
        "distill.slmp_update.pre_latch.ms_per_call": (per_call("distill.slmp_update.pre_latch", 1e3), "ms"),
        "distill.slmp_update.post_latch.ms_per_call": (per_call("distill.slmp_update.post_latch", 1e3), "ms"),
        "distill.sample_sphere.ms_per_call": (per_call("distill.sample_sphere", 1e3), "ms"),
        "distill.prior_action.us_per_call": (per_call("distill.prior_action", 1e6), "us"),
        "combat.CombatEnv.decision_step.self_us": (per_call("combat.CombatEnv.decision_step", 1e6, 2), "us"),
        "combat.hit_events.us_per_call": (per_call("combat.hit_events", 1e6), "us"),
        "combat.combat_observation.us_per_call": (per_call("combat.combat_observation", 1e6), "us"),
        "combat.high_level_step.us_per_call": (per_call("combat.high_level_step", 1e6), "us"),
    })
    for k in COMBAT_ENDS:
        m[f"combat.ends_per_kdecision.{k}"] = (
            ratio(counts[f"end.{k}"], counts["decisions"], 1e3), "1/kdecision")
    m.update({
        "motion.MotionClip.sample.us_per_call": (per_call("motion.MotionClip.sample", 1e6), "us"),
        "motion.goal_state.us_per_call": (per_call("motion.goal_state", 1e6), "us"),
        "motion.generate_library.s": (lib[1] / lib[0] if lib else 0.0, "s"),
    })
    for stage in STAGES:
        m[f"stage.{stage}.share"] = (ratio(stages[stage], root_s), "fraction")
    m["trace.overhead_frac"] = (ratio(traced_s, plain_s) - 1.0, "fraction")
    return m
