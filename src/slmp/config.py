"""Line-oriented run configuration: ``section.key = value`` with typed
fields, compiled-in defaults, and unknown-key rejection; command-line
options set the same keys through the same setter."""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import combat as cb
from . import distill as di
from . import evaluate as ev
from . import motion as mo
from . import physics as ph
from . import tracking as tr


class ConfigError(ValueError):
    pass


_PHYS = ph.PhysicsConfig()
_CHARACTER = ph.default_character()


@dataclass
class PhysicsSection:
    """Physics overrides; the defaults and the value rules are those of
    ``physics.PhysicsConfig`` and of the built-in ``physics.CharacterSpec``.
    A ``character`` file brings its own ``tau_max`` and ``contact_radius``,
    so with one set those two keys must keep their defaults."""

    gravity: float = _PHYS.gravity
    hz: float = _PHYS.hz
    substeps: int = _PHYS.substeps
    contact_kn: float = _PHYS.contact_kn
    contact_dn: float = _PHYS.contact_dn
    contact_kt: float = _PHYS.contact_kt
    friction_mu: float = _PHYS.friction_mu
    fall_frac: float = _PHYS.fall_frac
    tau_max: float = _CHARACTER.tau_max
    contact_radius: float = _CHARACTER.contact_radius
    character: str = ""  # optional JSON character file; empty = built-in

    def __post_init__(self):
        # built only to run physics' own value rules on these values
        self._spec()
        ph.PhysicsConfig(**self._overrides())
        for name in ("tau_max", "contact_radius"):
            if self.character and getattr(self, name) != getattr(_CHARACTER, name):
                raise ValueError(
                    f"{name} comes from the character file {self.character}; "
                    f"leave it at {getattr(_CHARACTER, name)}"
                )

    def _spec(self) -> ph.CharacterSpec:
        return replace(_CHARACTER, tau_max=self.tau_max, contact_radius=self.contact_radius)

    def _overrides(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if hasattr(_PHYS, f.name)}

    def build(self) -> tuple[ph.CharacterSpec, ph.PhysicsConfig]:
        """The run's character and physics; a character that lacks a part of
        ``physics.BODY_PARTS`` is refused by its name before any stage runs."""
        spec = ph.character_from_json(self.character) if self.character else self._spec()
        for kind, name in ph.BODY_PARTS:
            index = {"link": spec.link_index, "site": spec.site_index}[kind]
            if name not in index:
                index.__missing__(name)  # the refusal of a lookup, which names the part
        return spec, ph.default_config(spec, **self._overrides())


@dataclass
class DataSection:
    hz: float = mo.CLIP_HZ
    duration: float = mo.CLIP_SECONDS
    idle: int = mo.DEFAULT_COUNTS["idle"]
    footwork: int = mo.DEFAULT_COUNTS["footwork"]
    jab: int = mo.DEFAULT_COUNTS["jab"]
    hook: int = mo.DEFAULT_COUNTS["hook"]
    kick: int = mo.DEFAULT_COUNTS["kick"]
    combo: int = mo.DEFAULT_COUNTS["combo"]

    def __post_init__(self):
        mo.clip_frames(self.duration, self.hz)  # generate_library's frame-count check
        ph.require_non_negative(self, mo.FAMILIES)

    def counts(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in mo.FAMILIES}


@dataclass
class EvalSection:
    trials: int = 200
    horizons: tuple[float, ...] = (5.0, 10.0, 20.0, 30.0)
    resample_period: float = ev.RESAMPLE_PERIOD
    fixed_z: bool = ev.FIXED_Z
    samples: int = 512
    clusters: int = 6
    e_div: float = tr.E_DIV

    def __post_init__(self):
        ph.require_positive(self, ("trials", "samples", "clusters", "resample_period"))
        hs = self.horizons
        if not hs or hs[0] <= 0 or any(a >= b for a, b in zip(hs, hs[1:])):
            raise ValueError(
                f"horizons must be positive and strictly increasing, got {_fmt(hs) or 'none'}"
            )


@dataclass
class RunConfig:
    physics: PhysicsSection = field(default_factory=PhysicsSection)
    data: DataSection = field(default_factory=DataSection)
    ppo: tr.PpoConfig = field(default_factory=tr.PpoConfig)
    slmp: di.SlmpConfig = field(default_factory=di.SlmpConfig)
    combat: cb.CombatConfig = field(default_factory=cb.CombatConfig)
    eval: EvalSection = field(default_factory=EvalSection)
    seed: int = 0


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
    # re-run dataclass invariants after field mutation
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
