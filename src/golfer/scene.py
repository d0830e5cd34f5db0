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

Scenes, elements and goal conditionings are frozen: no field can be
reassigned, and a conditioning's arrays are read-only. A scene packs
its valid elements once (`Scene.pack`) into their token rows and their
`GoalLayout`s, everything else a forward reads. The layout without a goal
is built with the pack and holds the elements' kinds, counts and contexts;
the layout of each goal placement and horizon is spliced into it on first
use and kept. `ElementPack.splice_goal` returns a goal's layout and the
pack's rows with the goal's spliced in.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .numerics import EmptySetError, Segments

TOKEN_DIM = 8
CTX_DIM = 8

KIND_ROAD = "road"
KIND_AGENT = "agent"
KIND_EGO = "ego"
KIND_GOAL = "goal"
# A kind's index is its context tag and its slot in the model's per-kind weights.
ELEMENT_KINDS = (KIND_ROAD, KIND_AGENT, KIND_EGO, KIND_GOAL)
_KIND_TAG = {kind: index for index, kind in enumerate(ELEMENT_KINDS)}

PLACE_AGENTS = "agents"
PLACE_ROADS = "roads"

DATASET_FORMAT = "mnm-scenes"
DATASET_VERSION = 1


class ParseError(ValueError):
    """A dataset line could not be decoded."""


class FormatError(ValueError):
    """A file header or record does not match the expected format/version."""


class FieldError(ValueError):
    """A config field's value is refused, for `reason`; `end` is the refused
    end of a (min, max) pair (1 for an empty pair), None for a single field."""

    def __init__(self, field: str, end: int | None, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field, self.end, self.reason = field, end, reason


def _owned(values, dtype) -> np.ndarray:
    """`values` as an array that owns its data: a view of a caller's array is
    copied, so the read-only flag a pack sets covers every value it read."""
    array = np.asarray(values, dtype=dtype)
    return array if array.flags.owndata else array.copy()


@dataclass(frozen=True)
class SceneElement:
    kind: str
    tokens: np.ndarray  # (P, TOKEN_DIM)
    mask: np.ndarray  # (P,) bool, True = valid point
    context: np.ndarray  # (CTX_DIM,)

    def __post_init__(self):
        for name, dtype in (("tokens", np.float64), ("mask", bool), ("context", np.float64)):
            object.__setattr__(self, name, _owned(getattr(self, name), dtype))
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


def _frozen(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True, slots=True)
class GoalLayout:
    """Everything a forward reads of a pack except its token rows, for one
    goal placement and horizon or for no goal: the kinds, counts and
    contexts of the elements, the goal's among them, the road/agent split,
    the goal's first row and the FE segment plan, whose `ids` give each row's
    element. It holds no token rows and no kind-slot matrix."""

    kinds: np.ndarray  # (E,)
    counts: np.ndarray  # (E,)
    contexts: np.ndarray  # (E, CTX_DIM)
    num_roads: int
    goal_row: int | None  # the goal's first row; None without a goal
    segments: Segments  # each row's element


def _layout(kinds, counts, contexts, num_roads: int, goal_row: int | None = None) -> GoalLayout:
    """A read-only layout of these elements, with its segment plan."""
    segments = Segments(counts)
    _frozen(kinds, counts, contexts, segments.ids, segments.starts)
    return GoalLayout(kinds=kinds, counts=counts, contexts=contexts, num_roads=num_roads,
                      goal_row=goal_row, segments=segments)


def build_layout(base: GoalLayout, key: tuple[str, int]) -> GoalLayout:
    """The layout of a goal keyed by its (placement, horizon), spliced into
    the no-goal layout `base`: its horizon rows as the last road (roads
    placement) or the last agent."""
    placement, horizon = key
    on_roads = placement == PLACE_ROADS
    at = 1 + base.num_roads if on_roads else base.kinds.size

    def splice(a, b):
        return np.concatenate((a[:at], b, a[at:]))

    return _layout(splice(base.kinds, (_KIND_TAG[KIND_GOAL],)), splice(base.counts, (horizon,)),
                   splice(base.contexts, _GOAL_CONTEXT[None]), base.num_roads + on_roads,
                   goal_row=int(base.counts[:at].sum()))


@dataclass(frozen=True)
class ElementPack:
    """Elements' valid token rows packed in element order, as the FE stack
    reads them, and their `GoalLayout`s keyed by goal (placement, horizon).
    The layout keyed None, without a goal, is built with the pack, and each
    goal's is spliced into it on first use and kept. An element's kind is
    its index in ELEMENT_KINDS. A scene's pack holds its ego, then its
    roads, then its agents; a layout's `num_roads` splits the two sets."""

    tokens: np.ndarray  # (N, TOKEN_DIM) valid rows, element after element
    layouts: dict  # goal (placement, horizon) or None -> GoalLayout

    def splice_goal(self, gc: GoalConditioning | None) -> tuple[GoalLayout, np.ndarray]:
        """The kept layout of gc's (placement, horizon), built on first use,
        and the pack's token rows with `goal_tokens(gc)` spliced in at its
        goal row; without a goal, the layout keyed None and the pack's rows.
        A layout is keyed by those two values, not by `gc`, which changes
        from forward to forward."""
        if gc is None:
            return self.layouts[None], self.tokens
        key = (gc.placement, gc.horizon)
        layout = self.layouts.get(key)
        if layout is None:
            layout = self.layouts[key] = build_layout(self.layouts[None], key)
        row = layout.goal_row
        return layout, np.concatenate((self.tokens[:row], goal_tokens(gc), self.tokens[row:]))


def pack_elements(elements: list[SceneElement], num_roads: int = 0) -> ElementPack:
    """Pack each element's valid token rows, in order, with the no-goal
    layout; an element with no valid row cannot be encoded."""
    counts = np.array([e.mask.sum() for e in elements], dtype=np.intp)
    if counts.size == 0 or not counts.all():
        raise EmptySetError("cannot encode an element with no valid tokens")
    tokens = np.concatenate([e.tokens[e.mask] for e in elements])
    _frozen(tokens)
    base = _layout(np.array([_KIND_TAG[e.kind] for e in elements], dtype=np.intp), counts,
                   np.stack([e.context for e in elements]), num_roads)
    return ElementPack(tokens=tokens, layouts={None: base})


@dataclass(frozen=True)
class Scene:
    """A scene's elements. No field can be reassigned, and the element sets
    are tuples, so its pack cannot go stale through them."""

    ego: SceneElement
    agents: tuple[SceneElement, ...]
    roads: tuple[SceneElement, ...]
    future: np.ndarray  # (T, 2) ground-truth ego positions, meters
    future_mask: np.ndarray  # (T,) bool

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "roads", tuple(self.roads))
        object.__setattr__(self, "future", np.asarray(self.future, dtype=np.float64))
        object.__setattr__(self, "future_mask", np.asarray(self.future_mask, dtype=bool))
        if self.future.ndim != 2 or self.future.shape[1] != 2:
            raise ValueError(f"future must be (T,2), got {self.future.shape}")
        if self.future_mask.shape != (self.future.shape[0],):
            raise ValueError("future_mask length mismatch")
        if not np.isfinite(self.future).all():
            raise ValueError("future must be finite")
        if not self.ego.mask.any():
            raise ValueError("ego has no valid point")

    @property
    def horizon(self) -> int:
        return self.future.shape[0]

    @cached_property
    def pack(self) -> ElementPack:
        """The ego and the roads and agents with a valid point, packed on first
        use and kept. Every element's arrays are read-only from then on, so a
        write raises instead of leaving the pack stale; `future` and
        `future_mask` are not packed and stay writable."""
        for e in (self.ego, *self.roads, *self.agents):
            _frozen(e.tokens, e.mask, e.context)
        roads = [e for e in self.roads if e.mask.any()]
        agents = [e for e in self.agents if e.mask.any()]
        return pack_elements([self.ego, *roads, *agents], num_roads=len(roads))


@dataclass(frozen=True)
class GoalConditioning:
    """A mostly-masked copy of the target future, fed back as input. It is
    frozen and its arrays are read-only from construction on, so it stays
    as its checks found it."""

    masked_future: np.ndarray  # (T,2), masked steps zeroed
    step_mask: np.ndarray  # (T,) bool, True = unmasked/visible
    placement: str  # PLACE_AGENTS or PLACE_ROADS
    exclusion_index: int | None  # the surviving step, excluded from the loss

    def __post_init__(self):
        for name, dtype in (("masked_future", np.float64), ("step_mask", bool)):
            object.__setattr__(self, name, _owned(getattr(self, name), dtype))
        shape = self.masked_future.shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != 2:
            raise ValueError(f"masked_future must be (T,2) with T >= 1, got {shape}")
        if not np.isfinite(self.masked_future).all():
            raise ValueError("masked_future must be finite")
        if self.step_mask.shape != (shape[0],):
            raise ValueError(f"step_mask must be ({shape[0]},), got {self.step_mask.shape}")
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
        _frozen(self.masked_future, self.step_mask)

    @property
    def horizon(self) -> int:
        return self.masked_future.shape[0]


def apply_goal_masking(future: np.ndarray, rng: np.random.Generator, mask_ratio: float,
                       valid: np.ndarray) -> GoalConditioning:
    """Mask the future trajectory, keeping at most one valid step visible.

    Each step survives independently with probability 1 - mask_ratio, and
    only valid steps can survive; if more than one survives, one of them is
    kept uniformly at random. Placement between the agent and road sets is a
    fair coin.
    """
    if not MASKING_RULES["mask_ratio"](mask_ratio):
        raise FieldError("mask_ratio", None, f"value {mask_ratio} out of range")
    future = np.asarray(future, dtype=np.float64)
    t_steps = future.shape[0]
    valid = np.asarray(valid, dtype=bool)
    visible = rng.random(t_steps) < (1.0 - mask_ratio)
    # A lone valid step stays hidden: revealing it would leave no step to score.
    visible &= valid if valid.sum() > 1 else False
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


def goal_tokens(gc: GoalConditioning) -> np.ndarray:
    """The goal's (T, TOKEN_DIM) tokens, one per future step, carrying
    (x, y, visible_flag, step_index/T); every one is valid."""
    t_steps = gc.horizon
    tokens = np.zeros((t_steps, TOKEN_DIM))
    tokens[:, 0:2] = gc.masked_future
    tokens[:, 2] = gc.step_mask
    tokens[:, 3] = np.where(gc.step_mask, np.arange(t_steps) / t_steps, 0.0)
    return tokens


_GOAL_CONTEXT = np.zeros(CTX_DIM)
_GOAL_CONTEXT[_KIND_TAG[KIND_GOAL]] = 1.0
_GOAL_CONTEXT.flags.writeable = False


def encode_goal_element(gc: GoalConditioning) -> SceneElement:
    """Goal conditioning as a scene element of `goal_tokens`."""
    return SceneElement(kind=KIND_GOAL, tokens=goal_tokens(gc), mask=np.ones(gc.horizon, dtype=bool),
                        context=_GOAL_CONTEXT.copy())


# ---------------------------------------------------------------------------
# Synthetic scene generation
# ---------------------------------------------------------------------------


def _is(kinds):
    """The check that a value is one of `kinds` but not a bool (an int)."""
    return lambda v: isinstance(v, kinds) and not isinstance(v, bool)


def _tuple_of(check, size: int | None = None):
    return lambda v: isinstance(v, tuple) and size in (None, len(v)) and all(map(check, v))


def at_least(least):
    return lambda v: v >= least


def _count(least):  # at most 1000, so a scene holds at most about 2e6 token rows
    return lambda v: least <= v <= 1000


# Field annotation -> (type check, expected form). A config can come from JSON
# (a model file's); a float's finiteness is its field's rule.
_FIELD_TYPES = {
    "int": (_is(int), "an integer"),
    "float": (_is((int, float)), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (_is(str), "a string"),
    "tuple[int, ...]": (_tuple_of(_is(int)), "a tuple of integers"),
    "tuple[int, int]": (_tuple_of(_is(int), 2), "a (min, max) pair of integers"),
    "tuple[float, float]": (_tuple_of(_is((int, float)), 2), "a (min, max) pair of numbers"),
}
_PAIR_TYPES = ("tuple[int, int]", "tuple[float, float]")


def check_fields(config, rules: dict) -> None:
    """Raise a FieldError naming the first field of a config dataclass whose
    value is not of its annotated type (for a config section, an instance of
    its class), is an empty (min, max) pair, or breaks its rule in `rules`
    (at either end of a pair)."""
    for f in fields(config):
        value = getattr(config, f.name)
        check, expected = _FIELD_TYPES.get(f.type, (lambda v: type(v).__name__ == f.type,
                                                    f"a {f.type}"))
        if not check(value):
            raise FieldError(f.name, None, f"expected {expected}, got {value!r}")
        pair = f.type in _PAIR_TYPES
        if pair and value[1] < value[0]:
            raise FieldError(f.name, 1, f"range {value} is empty")
        if f.name in rules:
            for end, v in enumerate(value) if pair else ((None, value),):
                if not rules[f.name](v):
                    raise FieldError(f.name, end, f"value {v} out of range")


# Goal masking's rule, which `TrainConfig` also checks its field with.
MASKING_RULES = {"mask_ratio": lambda v: 0 <= v <= 1}

# The counts' bounds, then the physical bounds (m/s, m, 1/m, s) that keep the
# generator's arc geometry finite.
GENERATOR_RULES = {
    "seed": at_least(0), "num_roads": _count(1), "num_agents": _count(0),
    "points_per_polyline": _count(2), "history_steps": _count(2), "horizon": _count(1),
    "speed_range": lambda v: abs(v) <= 100.0, "noise_scale": lambda v: 0.0 <= v <= 100.0,
    "curvature_range": lambda v: abs(v) <= 1.0, "dt": lambda v: 0.0 < v <= 1000.0,
}


@dataclass(frozen=True)
class GeneratorConfig:
    """The scene generator's settings: frozen, and checked when built."""

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

    def __post_init__(self):
        check_fields(self, GENERATOR_RULES)


@dataclass
class _Arc:
    start: np.ndarray
    heading: float
    curvature: float

    def points(self, svals) -> np.ndarray:
        """The (n,2) positions at arc lengths `svals`, computed on Python floats
        with `math` sin/cos: numpy's SIMD loops may differ from them in the last
        ulp on some CPUs, which would move dataset bits."""
        k = self.curvature
        if abs(k) < 1e-12:
            local = [(s, 0.0) for s in svals]
        else:
            local = [(math.sin(k * s) / k, (1.0 - math.cos(k * s)) / k) for s in svals]
        ch, sh = math.cos(self.heading), math.sin(self.heading)
        x0, y0 = self.start.tolist()
        return np.array([(x0 + (ch * lx - sh * ly), y0 + (sh * lx + ch * ly)) for lx, ly in local])


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
        return arcs[road].points([s_now + speed * dt * k for k in steps])

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
        road_points.append(arc.points(svals.tolist()))

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


def generate_scenes(cfg: GeneratorConfig, count: int) -> Iterator[Scene]:
    """Deterministic stream: scene i draws from the i-th child seed stream of
    `cfg.seed`. Children are spawned one at a time (the same children as one
    `spawn(count)`), so the stream holds one scene and one seed at a time."""
    seeds = np.random.SeedSequence(cfg.seed)
    for _ in range(count):
        (child,) = seeds.spawn(1)
        yield generate_synthetic_scene(cfg, np.random.Generator(np.random.PCG64(child)))


def generate_dataset(cfg: GeneratorConfig, count: int) -> list[Scene]:
    """Deterministic batch: the scenes of `generate_scenes`, as a list."""
    return list(generate_scenes(cfg, count))


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
        return _array_json_text(value, spec)
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{to_json_text(v, sig_digits)}" for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def _array_json_text(array: np.ndarray, spec: str) -> str:
    """One `str.format` over the flat values, through a template nested by shape."""
    values = array.ravel().tolist()
    kind = array.dtype.kind
    if kind == "b":
        values = [("false", "true")[v] for v in values]
    elif kind not in "iuf":
        raise TypeError(f"cannot serialize a {array.dtype} array")
    template = "{:" + spec + "}" if kind == "f" else "{}"
    for n in reversed(array.shape):
        template = "[" + ",".join([template] * n) + "]"
    return template.format(*values)


def _element_record(element: SceneElement) -> dict:
    return {
        "kind": element.kind,
        "tokens": element.tokens,
        "mask": element.mask,
        "context": element.context,
    }


_BOOLS, _NUMBERS = "b", "iuf"  # numpy dtype kinds a record's arrays may parse to


def _typed(value, kinds: str, field: str) -> np.ndarray:
    """`value` as an array of one of `kinds`: an array that parses to another
    dtype (numbers in a mask, strings or booleans for numbers) is an error,
    not a coercion."""
    array = np.asarray(value)
    if array.dtype.kind not in kinds:
        expected = "true/false values" if kinds == _BOOLS else "numbers"
        raise ValueError(f"{field}: expected {expected}, got {array.dtype} values")
    return array


def _element_from_record(rec: dict, group: str, index: int | None = None) -> SceneElement:
    try:
        return SceneElement(
            kind=rec["kind"],
            tokens=_typed(rec["tokens"], _NUMBERS, "tokens"),
            mask=_typed(rec["mask"], _BOOLS, "mask"),
            context=_typed(rec["context"], _NUMBERS, "context"),
        )
    except ValueError as exc:
        where = group if index is None else f"{group}[{index}]"
        raise ValueError(f"{where}: {exc}") from exc


def _reject_bools(rec: dict) -> None:
    """Raise naming the first numeric array of a record that holds a JSON
    true or false, which numpy would otherwise read as 1.0 or 0.0."""
    elements = [("ego", rec["ego"])] + [(f"{group}[{i}]", e) for group in ("agents", "roads")
                                        for i, e in enumerate(rec[group])]
    fields = [(f"{where}: {name}", e[name]) for where, e in elements for name in ("tokens", "context")]
    for field, value in [*fields, ("future", rec["future"])]:
        if any(type(v) is bool for v in np.asarray(value, dtype=object).flat):
            raise ValueError(f"{field}: expected numbers, got a true/false value")


def write_dataset(scenes: Iterable[Scene], path) -> None:
    """Write a header line, then one record line per scene as `scenes` yields it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json_text({"format": DATASET_FORMAT, "version": DATASET_VERSION}) + "\n")
        for scene in scenes:
            record = {
                "version": DATASET_VERSION,
                "ego": _element_record(scene.ego),
                "agents": [_element_record(a) for a in scene.agents],
                "roads": [_element_record(r) for r in scene.roads],
                "future": scene.future,
                "future_mask": scene.future_mask,
            }
            fh.write(to_json_text(record) + "\n")


def _is_version(value) -> bool:
    """Whether a header's or record's version is this format's, as a JSON
    integer: `true` and `1.0` equal 1 in Python but are not versions."""
    return type(value) is int and value == DATASET_VERSION


def _numbered_lines(fh) -> Iterator[tuple[int, str]]:
    """The non-blank lines of an open text file, one at a time, each with its
    number in `str.splitlines()` of the whole text: a physical line that holds
    another line break (`\\f`, `\\u2028`, ...) counts as several lines."""
    number = 0
    for physical in fh:
        for line in physical.splitlines():
            number += 1
            if line.strip():
                yield number, line


def _scene_from_line(line_no: int, line: str) -> Scene:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {line_no}: malformed record ({exc.msg})") from exc
    try:
        if not _is_version(rec["version"]):
            raise FormatError(f"line {line_no}: record version {rec['version']}")
        scene = Scene(
            ego=_element_from_record(rec["ego"], "ego"),
            agents=[_element_from_record(a, "agents", i) for i, a in enumerate(rec["agents"])],
            roads=[_element_from_record(r, "roads", i) for i, r in enumerate(rec["roads"])],
            future=_typed(rec["future"], _NUMBERS, "future"),
            future_mask=_typed(rec["future_mask"], _BOOLS, "future_mask"),
        )
        # Masks hold every true/false of a well-formed record; only a line
        # with another count is scanned for one in a numeric array.
        mask_values = scene.future_mask.size + sum(
            e.mask.size for e in (scene.ego, *scene.agents, *scene.roads))
        if line.count("true") + line.count("false") != mask_values:
            _reject_bools(rec)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise ParseError(f"line {line_no}: invalid scene record ({exc})") from exc
    return scene


def read_dataset(path) -> list[Scene]:
    """The scenes of a dataset file, read as a stream: the first non-blank
    line is the header, and each later one is parsed into its scene as it
    arrives, so a read holds the scenes plus one line. An error names the line
    by its number in `str.splitlines()` of the whole text."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = _numbered_lines(fh)
        first = next(lines, None)
        if first is None:
            return []
        header_no, header_line = first
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {header_no}: malformed header ({exc.msg})") from exc
        if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
            raise FormatError(f"line {header_no}: not a {DATASET_FORMAT} file")
        if not _is_version(header.get("version")):
            raise FormatError(
                f"line {header_no}: unsupported version {header.get('version')} (expected {DATASET_VERSION})"
            )
        return [_scene_from_line(line_no, line) for line_no, line in lines]
