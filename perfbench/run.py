"""Stage-level benchmark of the slmp pipeline.

    python3 perfbench/run.py --workload {track,combat,learn} --seed N --seconds S --trace {0,1}

One run sets the workload up (several times with ``--trace 0``, to time
set-up), runs one warm-up iteration, then as many iterations as fill
``--seconds``, untraced.  With ``--trace 1`` it repeats the measured
iterations with every slmp layer wrapped (see ``tracer.py``), requires
the traced outputs to equal the untraced ones byte for byte, and reports
per-layer metrics instead of end-to-end ones.  Every run also checks the
simulator and MLP kernels against ``reference.json`` (see ``gate.py``)
and that every output is finite.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` optimiser steps, and ``metrics``.  The exit
code is 0 only when the run is correct.  Per-run files (environment,
result and, when traced, the spans) go to ``.bench_runs/`` in the
checkout.  See README.md in this directory for the workloads and how to
read the trace.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checkout import ROOT, use_checkout_source

use_checkout_source()

from slmp import combat as cb  # noqa: E402
from slmp import distill as di  # noqa: E402
from slmp import motion as mo  # noqa: E402
from slmp import nets  # noqa: E402
from slmp import physics as ph  # noqa: E402
from slmp import tracking as tr  # noqa: E402
from slmp.seeding import seed_for  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

OUT = ROOT / ".bench_runs"

# failures a long run must survive: counted as failed optimiser steps
KNOWN_FAILURES = (FloatingPointError, di.DegenerateEncodingError)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; empty overrides keep the package defaults."""

    clip_counts: dict | None = None  # None: the default 40-clip library
    track: dict = field(default_factory=dict)  # PpoConfig overrides
    combat: dict = field(default_factory=dict)  # CombatConfig overrides
    slmp: dict = field(default_factory=dict)  # SlmpConfig overrides
    setup_repeats: int = 3


DEFAULT = Sizes()
# seconds-long version of every workload for the self-test
TINY = Sizes(
    clip_counts={"idle": 1, "jab": 1},
    track={"envs": 2, "horizon": 4},
    combat={"envs": 2, "horizon": 4},
    slmp={"batch": 8},
    setup_repeats=1,
)


@dataclass
class Outcome:
    """What one call of a workload's ``run`` did and produced."""

    iters: list[tuple[float, float]]  # (start, end) per update, epoch or round
    span: tuple[float, float]  # (start, end) of the whole call
    items: int  # env-steps, decisions or optimiser samples completed
    attempted: int  # optimiser steps
    failed: int  # skipped minibatches plus exceptions
    record: bytes  # the run's metrics.csv
    digest: str  # sha256 of the final parameters, "" after an exception

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]

    def finite(self) -> bool:
        rows = self.record.decode().splitlines()[1:]
        return all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        if not np.all(np.isfinite(a)):
            return "non-finite"
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _report_failure(where: str) -> None:
    print(f"perfbench: {where} failed, counted and skipped:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class OptimiserProbe:
    """Counts optimiser steps and skipped minibatches at ``tracking.ppo_update``
    and time-stamps the end of each call.  It costs one wrapper call per
    update, so untraced runs keep it too."""

    def __init__(self):
        self.ends: list[float] = []
        self.attempted = 0
        self.skipped = 0
        self._orig = tr.ppo_update
        self._sig = inspect.signature(self._orig)

    def __enter__(self) -> "OptimiserProbe":
        def probe(*args, **kwargs):
            bound = self._sig.bind(*args, **kwargs).arguments
            n, cfg = bound["batch"].obs.shape[0], bound["cfg"]
            self.attempted += cfg.epochs_per_update * math.ceil(n / min(cfg.batch_size, n))
            out = self._orig(*args, **kwargs)
            self.skipped += int(out[4].get("skipped", 0))
            self.ends.append(time.perf_counter())
            return out

        tr.ppo_update = probe
        return self

    def __exit__(self, *exc) -> None:
        tr.ppo_update = self._orig


def _timed_training(train, items_per_iter: int, out: Path) -> Outcome:
    """Run a package training call that writes ``out/metrics.csv`` and
    returns its final parameter arrays; one iteration per ``ppo_update``."""
    arrays, failed = None, 0
    with OptimiserProbe() as probe:
        t0 = time.perf_counter()
        try:
            arrays = train()
        except KNOWN_FAILURES:
            _report_failure(train.__name__)
            failed = 1
        span = (t0, time.perf_counter())
    edges = [span[0], *probe.ends]
    return Outcome(
        iters=list(zip(edges, edges[1:])),
        span=span,
        items=items_per_iter * len(probe.ends),
        attempted=probe.attempted,
        failed=probe.skipped + failed,
        record=(out / "metrics.csv").read_bytes(),
        digest=_digest(arrays) if arrays is not None else "",
    )


class _Workload:
    """``setup`` once, then ``run(n, out)`` runs n iterations into ``out``."""

    item: str  # what one unit of work_per_s is
    kernel = staticmethod(speed.interpreter_kernel)  # see speed.py

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed


class Track(_Workload):
    """Default-size tracking updates through ``tracking.train_tracking``."""

    item = "env_steps"

    def setup(self, work: Path) -> None:
        self.clips = mo.generate_library(self.sizes.clip_counts)

    def run(self, n: int, out: Path) -> Outcome:
        # a fresh config per call: train_tracking sets cfg.learn_std = False
        cfg = tr.PpoConfig(updates=n, **self.sizes.track)

        def train_tracking():
            ts = tr.train_tracking(self.clips, cfg, out, self.seed, workers=1, log=False)
            return ts.policy_params, ts.value_params

        return _timed_training(train_tracking, cfg.envs * cfg.horizon, out)


class Combat(_Workload):
    """Default-size self-play epochs over a seeded, untrained prior."""

    item = "decisions"

    def setup(self, work: Path) -> None:
        spec = ph.default_character()
        prior = di.build_distill_nets(
            mo.Goal.dim(spec.n_joints), tr.proprio_dim(spec), spec.n_joints,
            di.SlmpConfig(**self.sizes.slmp), seed_for(self.seed, "bench-prior"),
        )
        self.prior_dir = work / "prior"
        self.prior_dir.mkdir(parents=True, exist_ok=True)
        nets.save_checkpoint(self.prior_dir / "encoder.ckpt", "encoder", prior.enc_spec, prior.enc_params)
        nets.save_checkpoint(self.prior_dir / "pi_phi.ckpt", "pi_phi", prior.phi_spec, prior.phi_params)

    def run(self, n: int, out: Path) -> Outcome:
        # one epoch per call, each from its own policy initialisation: the
        # untrained fighters' behaviour, and with it the cost of an epoch,
        # depends on the initialisation
        outs = [out / f"init{i}" for i in range(n)]
        cfg = cb.CombatConfig(epochs=1, **self.sizes.combat)

        def self_play_train():
            for i, o in enumerate(outs):
                params, values = cb.self_play_train(
                    self.prior_dir, cfg, o, seed_for(self.seed, f"combat-init-{i}"), log=False)
            first, *rest = [(o / "metrics.csv").read_text().splitlines(True) for o in outs]
            (out / "metrics.csv").write_text("".join(first + [row for f in rest for row in f[1:]]))
            # the last call's parameters; every call's losses are in metrics.csv
            return (*params, *values)

        return _timed_training(self_play_train, cfg.envs * cfg.horizon, out)


class Learn(_Workload):
    """Learner side only: a tracking and a combat-size ``ppo_update`` and
    ``slmp_update`` before and after the ``use_wc`` latch, per round."""

    item = "samples"
    kernel = staticmethod(speed.blas_kernel)

    def setup(self, work: Path) -> None:
        spec = ph.default_character()
        phys = ph.default_config(spec)
        clips = mo.generate_library(self.sizes.clip_counts)
        # training leaves learn_std False under the default linear schedule
        tcfg = tr.PpoConfig(learn_std=False, **self.sizes.track)
        ts = tr.build_networks(tr.track_obs_dim(spec), spec.n_joints, tcfg, seed_for(self.seed, "learn-track"))
        envs = [
            tr.TrackingEnv(clips, spec, phys, tcfg.e_div,
                           np.random.default_rng(seed_for(self.seed, f"learn-env-{i}")),
                           energy_floor=tcfg.energy_floor)
            for i in range(tcfg.envs)
        ]
        buf = tr.collect_rollouts(envs, ts.policy, ts.policy_params, ts.value_spec,
                                  ts.value_params, tcfg.horizon, [e.rng for e in envs])
        buf.advantages, buf.returns = tr.gae(
            buf.rewards, buf.values, buf.dones, tcfg.gamma, tcfg.gae_lambda, buf.bootstrap
        )
        tbatch = buf.flat()

        # combat-size learner on seeded egocentric observations; its
        # actions and log-probs come from the fresh policy itself
        ccfg = cb.CombatConfig(**self.sizes.combat)
        self.scfg = di.SlmpConfig(**self.sizes.slmp)
        rng = np.random.default_rng(seed_for(self.seed, "learn-combat"))
        obs_dim = cb.combat_obs_dim(spec)
        policy = tr.GaussianPolicy(nets.MlpSpec(obs_dim, tuple(ccfg.pi_h_hidden), self.scfg.latent_dim))
        value_spec = nets.MlpSpec(obs_dim, tuple(ccfg.critic_hidden), 1)
        params = policy.init(rng, ccfg.std_init)
        values = nets.init_params(value_spec, rng)
        n = ccfg.envs * ccfg.horizon
        obs = rng.standard_normal((n, obs_dim))
        mlp, log_std = policy.split(params)
        mu = nets.forward_batch(policy.spec, mlp, obs)
        act = mu + np.exp(log_std) * rng.standard_normal(mu.shape)
        cbatch = tr.PpoBatch(obs, act, policy.log_prob_batch(mu, log_std, act),
                             rng.standard_normal(n), rng.standard_normal(n))

        # ppo_update arguments but the rng
        self.ppo_args = [
            (ts.policy, ts.policy_params, ts.policy_adam, ts.value_spec, ts.value_params,
             ts.value_adam, tbatch, tcfg),
            (policy, params, nets.adam_init(params.size, ccfg.lr), value_spec, values,
             nets.adam_init(values.size, ccfg.lr), cbatch, ccfg.ppo()),
        ]
        # distillation samples: the tracking observation is (proprio, goal);
        # the buffer's actions stand in for the expert labels
        pdim = tr.proprio_dim(spec)
        self.distill_nets = di.build_distill_nets(
            mo.Goal.dim(spec.n_joints), pdim, spec.n_joints, self.scfg, seed_for(self.seed, "learn-distill"))
        self.distill_data = (tbatch.obs[:, :pdim], tbatch.obs[:, pdim:], tbatch.actions)

    def run(self, n: int, out: Path) -> Outcome:
        self.failed = 0
        rows = ["round,track_loss,combat_loss,slmp_pre_latch,slmp_post_latch"]
        iters = []
        with OptimiserProbe() as probe:
            t_start = time.perf_counter()
            for r in range(n):
                t0 = time.perf_counter()
                losses, arrays = self.round(r)
                iters.append((t0, time.perf_counter()))
                rows.append(",".join(repr(float(v)) for v in (r, *losses)))
            span = (t_start, time.perf_counter())
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text("\n".join(rows) + "\n")
        take = min(self.scfg.batch, self.distill_data[0].shape[0])
        per_round = sum(cfg.epochs_per_update * batch.obs.shape[0]
                        for *_, batch, cfg in self.ppo_args) + 2 * take
        return Outcome(
            iters=iters, span=span, items=per_round * n,
            attempted=probe.attempted + 2 * n, failed=probe.skipped + self.failed,
            record=(out / "metrics.csv").read_bytes(), digest=_digest(arrays),
        )

    def round(self, r: int) -> tuple[list[float], list[np.ndarray]]:
        """One learner round from the set-up state, so every round does the
        same work.  Returns its losses (nan where a step failed) and the
        parameters it ends with."""
        rng = np.random.default_rng(seed_for(self.seed, f"learn-round-{r}"))
        losses, arrays = [], []
        for args in self.ppo_args:
            try:
                policy_params, _, value_params, _, m = tr.ppo_update(*args, rng)
                arrays += [policy_params, value_params]
                losses.append(m.get("loss", math.nan))
            except KNOWN_FAILURES:
                _report_failure("ppo_update")
                self.failed += 1
                losses.append(math.nan)
        # slmp_update rebinds the arrays of the object it gets, so the
        # set-up networks stay untouched
        dn = dataclasses.replace(self.distill_nets)
        proprio, goals, a_star = self.distill_data
        take = min(self.scfg.batch, proprio.shape[0])
        for use_wc in (False, True):
            idx = rng.integers(proprio.shape[0], size=take)
            z2 = di.sample_sphere(self.scfg.latent_dim, rng, take)
            batch = di.DistillBatch(proprio[idx], goals[idx], a_star[idx], z2)
            try:
                m = di.slmp_update(batch, dn, self.scfg, di.Phase(use_wc=use_wc))
                self.failed += int(m["skipped"])
                losses.append(m["l_slmp"])
            except KNOWN_FAILURES:
                _report_failure("slmp_update")
                self.failed += 1
                losses.append(math.nan)
        return losses, arrays + [dn.enc_params, dn.phi_params, dn.disc_params]


WORKLOADS = {"track": Track, "combat": Combat, "learn": Learn}


def _blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(seed: int) -> dict:
    """The machine and code a result was measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = DEFAULT, out_dir: Path | None = None):
    """Run one workload; returns (result, problems, notes, env).

    ``result`` is the JSON object of the last output line, ``problems``
    lists failed correctness checks, ``notes`` is extra (name, value,
    unit) lines for the human-readable report and ``env`` the record of
    ``environment()``.
    """
    out_dir = Path(out_dir or OUT / f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    work = out_dir / "work"
    work.mkdir(parents=True)
    wl = WORKLOADS[name](sizes, seed)
    problems = gate.check()
    setup_tracer = Tracer()
    setup_s = []
    # every set-up is interpreter-bound; the iterations are sampled with
    # the kernel of the workload's own kind of work
    setup_sampler = speed.SpeedSampler(speed.interpreter_kernel)
    sampler = speed.SpeedSampler(wl.kernel)
    try:
        if trace:
            with setup_tracer:
                setup_tracer.install()
                wl.setup(work / "setup")
        else:
            with setup_sampler:
                for _ in range(sizes.setup_repeats):
                    t0 = time.perf_counter()
                    wl.setup(work / "setup")
                    setup_s.append(setup_sampler.normalised(t0, time.perf_counter()))
        with sampler:
            warm = wl.run(1, work / "warmup")
            n = max(2, round(seconds / warm.wall_s))
            plain = wl.run(n, work / "plain")
        plain_s = sampler.normalised(*plain.span)
        if trace:
            tracer = Tracer()
            with tracer:
                tracer.install(Learn)
                traced = wl.run(n, work / "traced")
            if traced.record != plain.record:
                problems.append("traced and untraced metrics.csv differ")
            if traced.digest != plain.digest:
                problems.append("traced and untraced final parameters differ")
            tracer.write_spans(out_dir / "spans.csv")
            plain_work_s = plain.wall_s - sampler.busy(*plain.span)
            metrics = layer_metrics(tracer, setup_tracer, traced.wall_s, plain_work_s)
        else:
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "iter_s_p50": (statistics.median(sampler.normalised(a, b) for a, b in plain.iters), "s"),
                "work_per_s": (plain.items / plain_s, "items/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain.finite() or plain.digest == "non-finite":
        problems.append("non-finite output")
    if plain.failed == 0 and len(plain.iters) != n:
        problems.append(f"expected {n} iterations, timed {len(plain.iters)}")
    notes = [
        ("iterations", len(plain.iters), "count"),
        (f"{wl.item}_per_s", plain.items / plain_s, f"{wl.item}/s"),
        ("iter_s_p50_raw", statistics.median(b - a for a, b in plain.iters), "s"),
        (f"{wl.item}_per_s_raw", plain.items / plain.wall_s, f"{wl.item}/s"),
        ("host_slowdown", sampler.slowdown(), "x"),
        ("error_rate", plain.failed / max(plain.attempted, 1), "failed/attempted"),
    ]
    result = {
        "correct": not problems,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    timings = {
        "iter_s_raw": [b - a for a, b in plain.iters],
        "iter_s": [sampler.normalised(a, b) for a, b in plain.iters],
        "setup_s": setup_s,
        "kernel_samples": len(sampler.marks),
    }
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=1) + "\n")
    env = environment(seed)
    (out_dir / "environment.json").write_text(json.dumps(env, indent=1) + "\n")
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result, problems, notes, env


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, problems, notes, env = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()] + notes
    for name, value, unit in rows:
        print(f"{args.workload:<7} {name:<44} {value:>16.6g} {unit}")
    print("environment " + json.dumps(env))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
