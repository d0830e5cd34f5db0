"""Scene data model, goal masking, synthetic scene generation, dataset files.

A scene is a set of polyline-like elements (road segments, agent histories,
the ego history) plus the ego's ground-truth future. Every element carries
per-point token rows, a validity mask, and a shared context vector. All
coordinates live in an ego-centric frame: the ego's current position is the
origin and its heading points along +x.

Token layout (TOKEN_DIM columns):
  road/agent/ego: [x, y, dx, dy, index_norm, 0, 0, 0]
  goal:           [x, y, visible_flag, step_norm, 0, 0, 0, 0]
Context vectors start with a one-hot element-kind tag; road and agent
contexts additionally carry a scaled curvature / speed feature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TOKEN_DIM = 8
CTX_DIM = 8

KIND_ROAD = "road"
KIND_AGENT = "agent"
KIND_EGO = "ego"
KIND_GOAL = "goal"
_KIND_TAG = {KIND_ROAD: 0, KIND_AGENT: 1, KIND_EGO: 2, KIND_GOAL: 3}

PLACE_AGENTS = "agents"
PLACE_ROADS = "roads"

DATASET_FORMAT = "mnm-scenes"
DATASET_VERSION = 1


class ParseError(ValueError):
    """A dataset line could not be decoded."""


class FormatError(ValueError):
    """A file header or record does not match the expected format/version."""


@dataclass
class SceneElement:
    kind: str
    tokens: np.ndarray  # (P, TOKEN_DIM)
    mask: np.ndarray  # (P,) bool, True = valid point
    context: np.ndarray  # (CTX_DIM,)

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        self.context = np.asarray(self.context, dtype=np.float64)
        if self.kind not in _KIND_TAG:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.tokens.ndim != 2 or self.tokens.shape[1] != TOKEN_DIM:
            raise ValueError(f"tokens must be (P,{TOKEN_DIM}), got {self.tokens.shape}")
        if self.mask.shape != (self.tokens.shape[0],):
            raise ValueError(f"mask {self.mask.shape} does not index {self.tokens.shape[0]} tokens")
        if self.context.shape != (CTX_DIM,):
            raise ValueError(f"context must be ({CTX_DIM},), got {self.context.shape}")
        if not np.isfinite(self.tokens).all() or not np.isfinite(self.context).all():
            raise ValueError("element features must be finite")

    @property
    def num_valid(self) -> int:
        return int(self.mask.sum())


@dataclass
class Scene:
    ego: SceneElement
    agents: list[SceneElement]
    roads: list[SceneElement]
    future: np.ndarray  # (T, 2) ground-truth ego positions, meters
    future_mask: np.ndarray  # (T,) bool

    def __post_init__(self):
        self.future = np.asarray(self.future, dtype=np.float64)
        self.future_mask = np.asarray(self.future_mask, dtype=bool)
        if self.future.ndim != 2 or self.future.shape[1] != 2:
            raise ValueError(f"future must be (T,2), got {self.future.shape}")
        if self.future_mask.shape != (self.future.shape[0],):
            raise ValueError("future_mask length mismatch")
        if not np.isfinite(self.future).all():
            raise ValueError("future must be finite")

    @property
    def horizon(self) -> int:
        return self.future.shape[0]


@dataclass
class GoalConditioning:
    """A mostly-masked copy of the target future, fed back as input."""

    masked_future: np.ndarray  # (T,2), masked steps zeroed
    step_mask: np.ndarray  # (T,) bool, True = unmasked/visible
    placement: str  # PLACE_AGENTS or PLACE_ROADS
    exclusion_index: int | None  # the surviving step, excluded from the loss

    def __post_init__(self):
        self.masked_future = np.asarray(self.masked_future, dtype=np.float64)
        self.step_mask = np.asarray(self.step_mask, dtype=bool)
        visible = np.flatnonzero(self.step_mask)
        if len(visible) > 1:
            raise ValueError("at most one step may be unmasked")
        if self.placement not in (PLACE_AGENTS, PLACE_ROADS):
            raise ValueError(f"unknown placement {self.placement!r}")
        expected = int(visible[0]) if len(visible) == 1 else None
        if self.exclusion_index != expected:
            raise ValueError(
                f"exclusion_index {self.exclusion_index} inconsistent with step_mask (expected {expected})"
            )


def apply_goal_masking(future: np.ndarray, rng: np.random.Generator, mask_ratio: float) -> GoalConditioning:
    """Mask the future trajectory, keeping at most one step visible.

    Each step survives independently with probability 1 - mask_ratio; if more
    than one survives, one of them is kept uniformly at random. Placement
    between the agent and road sets is a fair coin.
    """
    if not 0.0 <= mask_ratio <= 1.0:
        raise ValueError(f"mask_ratio must be in [0,1], got {mask_ratio}")
    future = np.asarray(future, dtype=np.float64)
    t_steps = future.shape[0]
    visible = rng.random(t_steps) < (1.0 - mask_ratio)
    hits = np.flatnonzero(visible)
    if len(hits) > 1:
        survivor = int(rng.choice(hits))
        visible[:] = False
        visible[survivor] = True
        hits = np.array([survivor])
    placement = PLACE_AGENTS if rng.random() < 0.5 else PLACE_ROADS
    exclusion = int(hits[0]) if len(hits) == 1 else None
    return GoalConditioning(
        masked_future=np.where(visible[:, None], future, 0.0),
        step_mask=visible,
        placement=placement,
        exclusion_index=exclusion,
    )


def prediction_conditioning(horizon: int) -> GoalConditioning:
    """The inference-time goal: fully masked (the 100% case), agent placement."""
    return GoalConditioning(
        masked_future=np.zeros((horizon, 2)),
        step_mask=np.zeros(horizon, dtype=bool),
        placement=PLACE_AGENTS,
        exclusion_index=None,
    )


def encode_goal_element(gc: GoalConditioning) -> SceneElement:
    """Turn goal conditioning into a scene element: one token per future step,
    carrying (x, y, visible_flag, step_index/T)."""
    t_steps = gc.masked_future.shape[0]
    tokens = np.zeros((t_steps, TOKEN_DIM))
    tokens[:, 0:2] = gc.masked_future
    tokens[:, 2] = gc.step_mask.astype(np.float64)
    tokens[:, 3] = np.where(gc.step_mask, np.arange(t_steps) / t_steps, 0.0)
    context = np.zeros(CTX_DIM)
    context[_KIND_TAG[KIND_GOAL]] = 1.0
    return SceneElement(kind=KIND_GOAL, tokens=tokens, mask=np.ones(t_steps, dtype=bool), context=context)


# ---------------------------------------------------------------------------
# Synthetic scene generation
# ---------------------------------------------------------------------------


@dataclass
class GeneratorConfig:
    seed: int = 0
    num_roads: tuple[int, int] = (4, 8)
    num_agents: tuple[int, int] = (1, 4)
    points_per_polyline: int = 10
    history_steps: int = 10
    horizon: int = 16
    speed_range: tuple[float, float] = (5.0, 15.0)
    noise_scale: float = 0.2
    curvature_range: tuple[float, float] = (-0.03, 0.03)
    dt: float = 0.5

    def validate(self) -> None:
        for name in ("num_roads", "num_agents", "speed_range", "curvature_range"):
            lo, hi = getattr(self, name)
            if hi < lo:
                raise ValueError(f"{name} range ({lo}, {hi}) is empty")
        if self.num_roads[0] < 1:
            raise ValueError("need at least one road")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.points_per_polyline < 2 or self.history_steps < 2:
            raise ValueError("polylines and histories need at least two points")
        if self.noise_scale < 0 or self.dt <= 0:
            raise ValueError("noise_scale must be >= 0 and dt positive")


@dataclass
class _Arc:
    start: np.ndarray
    heading: float
    curvature: float

    def point(self, s: float) -> np.ndarray:
        if abs(self.curvature) < 1e-12:
            lx, ly = s, 0.0
        else:
            lx = math.sin(self.curvature * s) / self.curvature
            ly = (1.0 - math.cos(self.curvature * s)) / self.curvature
        ch, sh = math.cos(self.heading), math.sin(self.heading)
        return self.start + np.array([ch * lx - sh * ly, sh * lx + ch * ly])


def _bounded_noise(rng: np.random.Generator, count: int, scale: float) -> np.ndarray:
    """2-D Gaussian jitter with Euclidean norm clipped at 2*scale."""
    noise = rng.normal(0.0, scale, size=(count, 2)) if scale > 0 else np.zeros((count, 2))
    if scale > 0:
        norms = np.linalg.norm(noise, axis=1)
        over = norms > 2.0 * scale
        noise[over] *= (2.0 * scale / norms[over])[:, None]
    return noise


def _polyline_tokens(points: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """[x, y, dx, dy, index_norm, 0, 0, 0]; invalid rows zeroed."""
    count = points.shape[0]
    tokens = np.zeros((count, TOKEN_DIM))
    tokens[:, 0:2] = points
    tokens[:-1, 2:4] = np.diff(points, axis=0)
    tokens[:, 4] = np.arange(count) / max(count - 1, 1)
    tokens[~valid] = 0.0
    return tokens


def _context(kind: str, extra: float = 0.0) -> np.ndarray:
    ctx = np.zeros(CTX_DIM)
    ctx[_KIND_TAG[kind]] = 1.0
    ctx[4] = extra
    return ctx


def generate_synthetic_scene(cfg: GeneratorConfig, rng: np.random.Generator) -> Scene:
    """One random scene: arcs for roads, arc-following agents, ego frame.

    Deterministic given (cfg, rng state). The ego follows road 0; every
    traveler's road polyline is laid out to cover its travel window so the
    upcoming geometry is observable.
    """
    cfg.validate()
    num_roads = int(rng.integers(cfg.num_roads[0], cfg.num_roads[1] + 1))
    num_agents = int(rng.integers(cfg.num_agents[0], cfg.num_agents[1] + 1))
    hist, horizon, dt = cfg.history_steps, cfg.horizon, cfg.dt

    arcs = []
    for _ in range(num_roads):
        start = rng.uniform(-30.0, 30.0, size=2)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        curvature = rng.uniform(cfg.curvature_range[0], cfg.curvature_range[1])
        arcs.append(_Arc(start=start, heading=heading, curvature=curvature))

    # Travelers: (road index, speed, arc position of the current step).
    ego_speed = rng.uniform(*cfg.speed_range)
    travelers = [(0, ego_speed, (hist - 1) * ego_speed * dt)]
    for _ in range(num_agents):
        road = int(rng.integers(0, num_roads))
        speed = rng.uniform(*cfg.speed_range)
        s_now = (hist - 1) * speed * dt + rng.uniform(0.0, 20.0)
        travelers.append((road, speed, s_now))

    def track(traveler, steps):
        road, speed, s_now = traveler
        return np.stack([arcs[road].point(s_now + speed * dt * k) for k in steps])

    ego_past = track(travelers[0], range(-(hist - 1), 1))
    ego_future = track(travelers[0], range(1, horizon + 1))
    ego_noise = _bounded_noise(rng, hist + horizon, cfg.noise_scale)
    ego_past = ego_past + ego_noise[:hist]
    ego_future = ego_future + ego_noise[hist:]

    agent_tracks = []
    for traveler in travelers[1:]:
        past = track(traveler, range(-(hist - 1), 1)) + _bounded_noise(rng, hist, cfg.noise_scale)
        # Late-appearing agents: leading history points unavailable.
        valid = np.ones(hist, dtype=bool)
        if rng.random() < 0.3:
            valid[: int(rng.integers(1, hist - 1))] = False
        agent_tracks.append((past, valid))

    # Road polylines cover each road's travel window (with margin).
    spans = {}
    for road, speed, s_now in travelers:
        lo = s_now - (hist - 1) * speed * dt
        hi = s_now + horizon * speed * dt
        cur = spans.get(road, (lo, hi))
        spans[road] = (min(cur[0], lo), max(cur[1], hi))
    road_points = []
    for idx, arc in enumerate(arcs):
        lo, hi = spans.get(idx, (0.0, 60.0))
        svals = np.linspace(lo - 5.0, hi + 5.0, cfg.points_per_polyline)
        road_points.append(np.stack([arc.point(s) for s in svals]))

    # Ego frame: current position at origin, heading along +x.
    origin = ego_past[-1]
    head_vec = ego_past[-1] - ego_past[-2]
    norm = np.linalg.norm(head_vec)
    heading = math.atan2(head_vec[1], head_vec[0]) if norm > 1e-9 else 0.0
    ch, sh = math.cos(-heading), math.sin(-heading)
    rot = np.array([[ch, -sh], [sh, ch]])

    def to_frame(points):
        return (points - origin) @ rot.T

    ego_el = SceneElement(
        kind=KIND_EGO,
        tokens=_polyline_tokens(to_frame(ego_past), np.ones(hist, dtype=bool)),
        mask=np.ones(hist, dtype=bool),
        context=_context(KIND_EGO, extra=ego_speed / 10.0),
    )
    agents = []
    for (past, valid), traveler in zip(agent_tracks, travelers[1:]):
        agents.append(
            SceneElement(
                kind=KIND_AGENT,
                tokens=_polyline_tokens(to_frame(past), valid),
                mask=valid,
                context=_context(KIND_AGENT, extra=traveler[1] / 10.0),
            )
        )
    roads = []
    for idx, points in enumerate(road_points):
        roads.append(
            SceneElement(
                kind=KIND_ROAD,
                tokens=_polyline_tokens(to_frame(points), np.ones(cfg.points_per_polyline, dtype=bool)),
                mask=np.ones(cfg.points_per_polyline, dtype=bool),
                context=_context(KIND_ROAD, extra=arcs[idx].curvature * 10.0),
            )
        )
    return Scene(
        ego=ego_el,
        agents=agents,
        roads=roads,
        future=to_frame(ego_future),
        future_mask=np.ones(horizon, dtype=bool),
    )


def generate_dataset(cfg: GeneratorConfig, count: int) -> list[Scene]:
    """Deterministic batch: scene i draws from its own child seed stream."""
    children = np.random.SeedSequence(cfg.seed).spawn(count)
    return [generate_synthetic_scene(cfg, np.random.Generator(np.random.PCG64(c))) for c in children]


def constant_velocity_baseline(scene: Scene) -> np.ndarray:
    """Extrapolate the last valid ego history displacement over the horizon."""
    points = scene.ego.tokens[scene.ego.mask, 0:2]
    step = points[-1] - points[-2] if points.shape[0] >= 2 else np.zeros(2)
    return points[-1] + np.arange(1, scene.horizon + 1)[:, None] * step


# ---------------------------------------------------------------------------
# Dataset files: one JSON record per line, floats with 17 significant digits
# ---------------------------------------------------------------------------


def to_json_text(value, sig_digits: int = 17) -> str:
    """JSON with floats at a fixed number of significant digits (17 is lossless)."""
    spec = f".{sig_digits}g"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), spec)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(to_json_text(v, sig_digits) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return to_json_text(value.tolist(), sig_digits)
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{to_json_text(v, sig_digits)}" for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def _fmt(value) -> str:
    return to_json_text(value, 17)


def _element_record(element: SceneElement) -> dict:
    return {
        "kind": element.kind,
        "tokens": element.tokens,
        "mask": element.mask,
        "context": element.context,
    }


def _element_from_record(rec: dict) -> SceneElement:
    return SceneElement(
        kind=rec["kind"], tokens=rec["tokens"], mask=rec["mask"], context=rec["context"]
    )


def write_dataset(scenes: list[Scene], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_fmt({"format": DATASET_FORMAT, "version": DATASET_VERSION}) + "\n")
        for scene in scenes:
            record = {
                "version": DATASET_VERSION,
                "ego": _element_record(scene.ego),
                "agents": [_element_record(a) for a in scene.agents],
                "roads": [_element_record(r) for r in scene.roads],
                "future": scene.future,
                "future_mask": scene.future_mask,
            }
            fh.write(_fmt(record) + "\n")


def read_dataset(path) -> list[Scene]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    numbered = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not numbered:
        return []
    header_no, header_line = numbered[0]
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {header_no}: malformed header ({exc.msg})") from exc
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise FormatError(f"line {header_no}: not a {DATASET_FORMAT} file")
    if header.get("version") != DATASET_VERSION:
        raise FormatError(
            f"line {header_no}: unsupported version {header.get('version')} (expected {DATASET_VERSION})"
        )
    scenes = []
    for line_no, line in numbered[1:]:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {line_no}: malformed record ({exc.msg})") from exc
        try:
            if rec["version"] != DATASET_VERSION:
                raise FormatError(f"line {line_no}: record version {rec['version']}")
            scene = Scene(
                ego=_element_from_record(rec["ego"]),
                agents=[_element_from_record(a) for a in rec["agents"]],
                roads=[_element_from_record(r) for r in rec["roads"]],
                future=rec["future"],
                future_mask=rec["future_mask"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise ParseError(f"line {line_no}: invalid scene record ({exc})") from exc
        scenes.append(scene)
    return scenes
