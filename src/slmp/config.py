"""Line-oriented run configuration: ``section.key = value`` with typed
fields, compiled-in defaults, and unknown-key rejection; command-line
options set the same keys through the same setter.

Value rules: each field declares its rule with its default, as
``physics.POSITIVE(0.1)`` or ``physics.shared`` with another config;
every section's ``__post_init__`` runs ``physics.check_rules``, and
``load_config`` re-runs them and names the section.  ``seed`` is any
integer (``seed_for`` hashes its text); ``*.updates`` and ``combat.epochs``
are positive counts; ``ppo.std_anneal_updates``, ``combat.early_epochs``
and the clip-family counts may be 0; a hidden tuple may be empty (a
linear net); a bool or ``physics.character`` is refused by its coercion
or the body's build.  Only cross-field rules stay as code: the clip
duration and rate (``motion.clip_frames``), at least one clip,
``fresh_per_update % envs`` and ``eval.clusters <= eval.samples``."""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from . import combat as cb
from . import distill as di
from . import evaluate as ev
from . import motion as mo
from . import physics as ph
from . import tracking as tr


class ConfigError(ValueError):
    pass


@dataclass
class PhysicsSection:
    """Physics overrides; the body, its torque limit and contact radius
    included, is the built-in character's or the ``character`` file's."""

    gravity: float = ph.shared(ph.PhysicsConfig, "gravity")
    hz: float = ph.shared(ph.PhysicsConfig, "hz")
    substeps: int = ph.shared(ph.PhysicsConfig, "substeps")
    contact_kn: float = ph.shared(ph.PhysicsConfig, "contact_kn")
    contact_dn: float = ph.shared(ph.PhysicsConfig, "contact_dn")
    contact_kt: float = ph.shared(ph.PhysicsConfig, "contact_kt")
    friction_mu: float = ph.shared(ph.PhysicsConfig, "friction_mu")
    fall_frac: float = ph.shared(ph.PhysicsConfig, "fall_frac")
    character: str = ph.TEXT("")  # optional JSON character file; empty = built-in

    def __post_init__(self):
        ph.check_rules(self)

    def build(self) -> tuple[ph.CharacterSpec, ph.PhysicsConfig]:
        """The run's character and physics; a character that lacks a part of
        ``physics.BODY_PARTS`` is refused by its name before any stage runs."""
        spec = ph.character_from_json(self.character) if self.character else ph.default_character()
        for kind, name in ph.BODY_PARTS:
            index = {"link": spec.link_index, "site": spec.site_index}[kind]
            if name not in index:
                index.__missing__(name)  # the refusal of a lookup, which names the part
        overrides = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "character"}
        return spec, ph.default_config(spec, **overrides)


@dataclass
class DataSection:
    hz: float = ph.POSITIVE(mo.CLIP_HZ)
    duration: float = ph.POSITIVE(mo.CLIP_SECONDS)
    idle: int = ph.COUNT(mo.DEFAULT_COUNTS["idle"])
    footwork: int = ph.COUNT(mo.DEFAULT_COUNTS["footwork"])
    jab: int = ph.COUNT(mo.DEFAULT_COUNTS["jab"])
    hook: int = ph.COUNT(mo.DEFAULT_COUNTS["hook"])
    kick: int = ph.COUNT(mo.DEFAULT_COUNTS["kick"])
    combo: int = ph.COUNT(mo.DEFAULT_COUNTS["combo"])

    def __post_init__(self):
        mo.clip_frames(self.duration, self.hz)  # first: it refines hz's and duration's rules
        ph.check_rules(self)
        if not sum(self.counts().values()):
            raise ValueError("the clip-family counts sum to 0: a clip library needs at least one clip")

    def counts(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in mo.FAMILIES}


@dataclass
class EvalSection:
    trials: int = ph.POSITIVE_COUNT(200)
    horizons: tuple[float, ...] = ph.INCREASING((5.0, 10.0, 20.0, 30.0))
    resample_period: float = ph.POSITIVE(ev.RESAMPLE_PERIOD)
    fixed_z: bool = ph.FLAG(ev.FIXED_Z)
    samples: int = ph.POSITIVE_COUNT(512)
    clusters: int = ph.POSITIVE_COUNT(6)

    def __post_init__(self):
        ph.check_rules(self)
        if self.clusters > self.samples:  # sphere_clusters' bound
            raise ValueError(f"clusters {self.clusters} exceeds samples {self.samples}")


@dataclass
class RunConfig:
    physics: PhysicsSection = field(default_factory=PhysicsSection)
    data: DataSection = field(default_factory=DataSection)
    ppo: tr.PpoConfig = field(default_factory=tr.PpoConfig)
    slmp: di.SlmpConfig = field(default_factory=di.SlmpConfig)
    combat: cb.CombatConfig = field(default_factory=cb.CombatConfig)
    eval: EvalSection = field(default_factory=EvalSection)
    seed: int = ph.INTEGER(0)

    def __post_init__(self):
        ph.check_rules(self)


_SECTIONS = tuple(f.name for f in fields(RunConfig) if f.name != "seed")


def _coerce(raw: str, default, where: str):
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from e
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from e
    if isinstance(default, tuple):
        elem = float if (default and isinstance(default[0], float)) else int
        try:
            return tuple(elem(p) for p in raw.split(",") if p.strip())
        except ValueError as e:
            raise ConfigError(f"{where}: expected comma-separated values, got {raw!r}") from e
    return raw


def _set(cfg: RunConfig, key: str, raw: str, where: str) -> None:
    """Set ``key`` of ``cfg`` from its text ``raw``; errors name ``where``."""
    if key == "seed":
        cfg.seed = _coerce(raw, 0, where)
        return
    section, dot, name = key.partition(".")
    target = getattr(cfg, section) if dot and section in _SECTIONS else None
    if target is None or name not in {f.name for f in fields(target)}:
        raise ConfigError(f"{where}: unknown key {key!r}")
    setattr(target, name, _coerce(raw, getattr(target, name), where))


def load_config(path: str | Path | None, options: dict[str, str] | None = None) -> RunConfig:
    """Parse ``section.key = value`` lines, later entries overriding earlier,
    then apply ``options``, key to value text as on a line, over them."""
    cfg = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        for ln, line in enumerate(p.read_text().splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            key, sep, value = body.partition("=")
            if not sep:
                raise ConfigError(f"{p}:{ln}: expected key = value, got {line!r}")
            _set(cfg, key.strip(), value, f"{p}:{ln}")
    for key, value in (options or {}).items():
        _set(cfg, key, value, key)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    # re-run each section's rules after field mutation; the seed's coercion is its rule
    for section in _SECTIONS:
        try:
            getattr(cfg, section).__post_init__()
        except ValueError as e:
            raise ConfigError(f"{section}: {e}") from e


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: RunConfig) -> str:
    """Effective configuration as parseable text (includes the seed)."""
    lines = []
    for section in _SECTIONS:
        target = getattr(cfg, section)
        for f in fields(target):
            lines.append(f"{section}.{f.name} = {_fmt(getattr(target, f.name))}")
    lines.append(f"seed = {cfg.seed}")
    return "\n".join(lines) + "\n"


def write_echo(cfg: RunConfig, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.echo.txt").write_text(echo_config(cfg))
