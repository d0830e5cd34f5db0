"""Independent plain-numpy reference implementations used as test oracles.

Everything here recomputes results directly from definitions, with no tape,
no shared code paths with the package internals beyond reading parameter
values. Weights are read by their model-file names through
`named_parameters()`, never through how the package stores them. The one
exception is a section of value-only wrappers over the package's loss
builders, which tests use to score plain arrays.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import erf


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def ref_gelu(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def ref_act(x, kind):
    return np.maximum(x, 0.0) if kind == "relu" else ref_gelu(x)


def ref_masked_softmax(z, mask):
    z = np.asarray(z, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    out = np.zeros_like(z)
    zv = z[mask]
    e = np.exp(zv - zv.max())
    out[mask] = e / e.sum()
    return out


def ref_max_pool(x, mask):
    return np.asarray(x)[np.asarray(mask, dtype=bool)].max(axis=0)


def ref_attention_rows(scores, key_mask, query_mask):
    """Row softmax over valid keys; invalid query rows are zero."""
    n = scores.shape[0]
    out = np.zeros_like(scores)
    for i in range(n):
        if query_mask[i]:
            out[i] = ref_masked_softmax(scores[i], key_mask)
    return out


# ---------------------------------------------------------------------------
# Block oracles: straight transcriptions of the update equations
# ---------------------------------------------------------------------------


def named_values(params):
    """Each tensor's value by its name in `params.named_parameters()`."""
    return {name: p.value for name, p in params.named_parameters()}


def _head_slices(d, heads):
    dh = d // heads
    return [(h * dh, (h + 1) * dh) for h in range(heads)]


def ref_match(block, c, x):
    """Per-head Match of a d-vector onto (n,d) tokens."""
    n, d = x.shape
    w = named_values(block)
    parts = []
    for h, (lo, hi) in enumerate(_head_slices(d, block.heads)):
        c_h, x_h = c[lo:hi], x[:, lo:hi]
        kind = block.match.value
        if kind == "concat":
            parts.append(np.hstack([x_h, np.tile(c_h, (n, 1))]) @ w[f"wm.{h}"])
        elif kind == "product":
            out = x_h * c_h
            if f"wm.{h}" in w:
                out = out @ w[f"wm.{h}"]
            parts.append(out)
        else:
            raise ValueError(kind)
    return np.hstack(parts)


def ref_mnm_basic(block, x, mask):
    """C <- Mix(Norm(X)); S <- Match(C,X)+X; X <- act(Norm(S)W1)W2 + S."""
    w = named_values(block)
    xn = ref_layer_norm(x, w["norm_mix.gamma"], w["norm_mix.beta"])
    if block.match.value == "attention_matmul":
        parts = []
        for h, (lo, hi) in enumerate(_head_slices(block.d, block.heads)):
            xn_h = xn[:, lo:hi]
            q = xn_h @ w[f"wq.{h}"] if f"wq.{h}" in w else xn_h
            k = xn_h @ w[f"wk.{h}"] if f"wk.{h}" in w else xn_h
            attn = ref_attention_rows(q @ k.T / math.sqrt(hi - lo), mask, mask)
            parts.append(attn @ x[:, lo:hi])
        matched = np.hstack(parts)
    else:
        matched = ref_match(block, ref_max_pool(xn, mask), x)
    s = matched + x
    sn = ref_layer_norm(s, w["norm_ffn.gamma"], w["norm_ffn.beta"])
    return ref_act(sn @ w["w1"], block.activation) @ w["w2"] + s


def ref_mnm_query(block, x, c, mask):
    """S <- Match(C,X)+X; C' <- Mix(Norm(S)); X',C'' by residual FFNs. A
    block without a token FFN (no w1) returns None for X'."""
    w = named_values(block)
    s = ref_match(block, c, x) + x
    s_mix = ref_layer_norm(s, w["norm_mix.gamma"], w["norm_mix.beta"])
    c_mix = ref_max_pool(s_mix, mask)
    x_out = None
    if "w1" in w:
        sn = ref_layer_norm(s, w["norm_ffn.gamma"], w["norm_ffn.beta"])
        x_out = ref_act(sn @ w["w1"], block.activation) @ w["w2"] + s
    cn = ref_layer_norm(c_mix, w["norm_q.gamma"], w["norm_q.beta"])
    c_out = ref_act(cn @ w["w3"], block.activation) @ w["w4"] + c_mix
    return x_out, c_out


def ref_prenorm_transformer_layer(x, mask, heads, ln1_g, ln1_b, ln2_g, ln2_b, w1, w2,
                                  activation="gelu"):
    """A standard pre-norm self-attention encoder layer, no value/output
    projection: h = x + MHA(LN(x)); out = h + FFN(LN(h)).

    Written in the usual reshape-to-heads style rather than slice loops.
    """
    n, d = x.shape
    dh = d // heads
    xn = ref_layer_norm(x, ln1_g, ln1_b)
    q = xn.reshape(n, heads, dh).transpose(1, 0, 2)  # (heads, n, dh)
    scores = q @ q.transpose(0, 2, 1) / math.sqrt(dh)
    values = x.reshape(n, heads, dh).transpose(1, 0, 2)
    attended = np.empty_like(values)
    for h in range(heads):
        attended[h] = ref_attention_rows(scores[h], mask, mask) @ values[h]
    mixed = attended.transpose(1, 0, 2).reshape(n, d)
    s = x + mixed
    sn = ref_layer_norm(s, ln2_g, ln2_b)
    return s + ref_act(sn @ w1, activation) @ w2


# ---------------------------------------------------------------------------
# Model-level oracles
# ---------------------------------------------------------------------------


def ref_mlp(weights, prefix, v, activation):
    """The MLP whose layer i is named `{prefix}.{i}.w` and `{prefix}.{i}.b`."""
    last = sum(1 for name in weights if name.startswith(prefix + ".") and name.endswith(".w")) - 1
    for i in range(last + 1):
        v = v @ weights[f"{prefix}.{i}.w"] + weights[f"{prefix}.{i}.b"]
        if i < last:
            v = ref_act(v, activation)
    return v


def ref_encode_element(params, element):
    w = named_values(params)
    proj = f"proj.{element.kind}"
    tokens = element.tokens @ w[f"{proj}.token.w"] + w[f"{proj}.token.b"]
    context = element.context @ w[f"{proj}.ctx.w"] + w[f"{proj}.ctx.b"]
    for block in params.fe_blocks:
        tokens, context = ref_mnm_query(block, tokens, context, element.mask)
    return np.maximum(ref_max_pool(tokens, element.mask), context)


def ref_interact(blocks, ego, latents):
    mask = np.ones(latents.shape[0], dtype=bool)
    c, x = ego, latents
    for block in blocks:
        x, c = ref_mnm_query(block, x, c, mask)
    return c


def ref_scene_sets(scene, goal=None, placement="agents"):
    """The road and agent elements a scene's encoding reads: each set's
    elements with a valid point, the goal appended to the set it is placed in."""
    roads = list(scene.roads)
    agents = list(scene.agents)
    if goal is not None:
        (roads if placement == "roads" else agents).append(goal)
    return [e for e in roads if e.mask.any()], [e for e in agents if e.mask.any()]


def ref_pack_elements(elements):
    """Elements packed one by one: valid token rows, each row's kind index,
    each element's kind index, valid-row count and context, and each row's
    element id and each element's first row."""
    kind_order = ("road", "agent", "ego", "goal")
    packed = {name: [] for name in ("tokens", "row_kinds", "kinds", "counts", "contexts",
                                    "ids", "starts")}
    for index, e in enumerate(elements):
        kind = kind_order.index(e.kind)
        rows = [e.tokens[i] for i in range(len(e.mask)) if e.mask[i]]
        packed["starts"].append(len(packed["tokens"]))
        packed["tokens"] += rows
        packed["row_kinds"] += [kind] * len(rows)
        packed["ids"] += [index] * len(rows)
        packed["kinds"].append(kind)
        packed["counts"].append(len(rows))
        packed["contexts"].append(e.context)
    return packed


def ref_encode_scene(params, scene, goal=None, placement="agents"):
    w = named_values(params)
    roads, agents = ref_scene_sets(scene, goal, placement)
    f_ego = ref_encode_element(params, scene.ego)
    road_lat = (np.stack([ref_encode_element(params, e) for e in roads])
                if roads else w["null.road"][None, :])
    agent_lat = (np.stack([ref_encode_element(params, e) for e in agents])
                 if agents else w["null.agent"][None, :])
    f_road = ref_interact(params.road_interact, f_ego, road_lat)
    f_agent = ref_interact(params.agent_interact, f_ego, agent_lat)
    fused = np.concatenate([f_ego, f_road, f_agent])
    return ref_mlp(w, "fusion", fused, params.config.activation)


def ref_decode(params, f_enc):
    cfg = params.config
    w = named_values(params)
    means, log_sigmas = [], []
    for k in range(cfg.k_modes):
        raw = ref_mlp(w, f"decoder.{k}", f_enc, cfg.activation).reshape(cfg.horizon, 4)
        means.append(raw[:, 0:2] * cfg.position_scale)
        log_sigmas.append(np.clip(raw[:, 2:4] * cfg.log_sigma_scale, -5.0, 5.0))
    logits = ref_mlp(w, "cls", f_enc, cfg.activation)
    e = np.exp(logits - logits.max())
    return np.stack(means), np.stack(log_sigmas), logits, e / e.sum()


# ---------------------------------------------------------------------------
# Loss / metric oracles
# ---------------------------------------------------------------------------


def ref_gaussian_nll(mu, log_sigma, gt, counted):
    """High-precision direct density evaluation, step by step."""
    counted = np.asarray(counted, dtype=bool)
    total = 0.0
    for t in np.flatnonzero(counted):
        for axis in range(2):
            sigma = math.exp(log_sigma[t, axis])
            z = (gt[t, axis] - mu[t, axis]) / sigma
            total += 0.5 * z * z + math.log(sigma)
        total += math.log(2.0 * math.pi)
    return total / counted.sum()


def ref_cross_entropy(logits, target):
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max()
    return float(m + math.log(np.exp(logits - m).sum()) - logits[target])


def ref_winner(means, gt, valid):
    valid = np.asarray(valid, dtype=bool)
    best, best_d = 0, math.inf
    for k in range(means.shape[0]):
        dists = [math.dist(means[k, t], gt[t]) for t in np.flatnonzero(valid)]
        d = sum(dists) / len(dists)
        if d < best_d:
            best, best_d = k, d
    return best


def ref_min_ade(means, gt, valid):
    valid = np.asarray(valid, dtype=bool)
    best = math.inf
    for k in range(means.shape[0]):
        dists = [math.dist(means[k, t], gt[t]) for t in np.flatnonzero(valid)]
        best = min(best, sum(dists) / len(dists))
    return best


def ref_min_fde(means, gt, valid):
    last = int(np.flatnonzero(np.asarray(valid, dtype=bool))[-1])
    return min(math.dist(means[k, last], gt[last]) for k in range(means.shape[0]))


# ---------------------------------------------------------------------------
# Value-only wrappers over the package's loss builders, so tests can score
# plain arrays. These run package code: they are conveniences, not oracles.
# ---------------------------------------------------------------------------


def gmm_nll(mu, log_sigma, gt, valid, exclusion_index=None) -> float:
    """`training.gmm_nll_node` on constants; the counted steps are the valid
    ones minus the excluded one."""
    from golfer.numerics import Tape
    from golfer.training import gmm_nll_node

    counted = np.asarray(valid, dtype=bool).copy()
    if exclusion_index is not None:
        counted[exclusion_index] = False
    tape = Tape(record=False)
    return float(gmm_nll_node(tape, tape.constant(mu), tape.constant(log_sigma), gt, counted).value)


def classification_loss(logits, winner: int) -> float:
    """`training.classification_loss_node` on constant logits."""
    from golfer.numerics import Tape
    from golfer.training import classification_loss_node

    tape = Tape(record=False)
    return float(classification_loss_node(tape, tape.constant(logits), winner).value)


def total_loss(pred, gt, valid, exclusion_index, lam: float):
    """`training.total_loss_nodes` of a materialized Prediction; returns its
    LossBreakdown."""
    from golfer.model import PredictionNodes
    from golfer.numerics import Tape
    from golfer.training import total_loss_nodes

    tape = Tape(record=False)
    nodes = PredictionNodes(means=tape.constant(pred.means),
                            log_sigmas=tape.constant(pred.log_sigmas),
                            logits=tape.constant(pred.logits))
    return total_loss_nodes(tape, nodes, gt, valid, exclusion_index, lam)[1]


def parameter_count(params) -> int:
    """Scalars in a model's parameter arena."""
    return params.values.size


def ref_adam_step(values, grads, m, v, t, lr, beta1, beta2, eps):
    """Adam step t (from 1) of arXiv 1412.6980, one tensor at a time, on dicts
    of name -> array; replaces the entries of values, m and v."""
    for name, g in grads.items():
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        m_hat = m[name] / (1.0 - beta1 ** t)
        v_hat = v[name] / (1.0 - beta2 ** t)
        values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


def ref_json_text(value, sig_digits: int = 17) -> str:
    """The per-value recursive JSON formatter: an array goes through `.tolist()`
    and every scalar is formatted on its own."""
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
        return "[" + ",".join(ref_json_text(v, sig_digits) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return ref_json_text(value.tolist(), sig_digits)
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(k)}:{ref_json_text(v, sig_digits)}" for k, v in value.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(value)}")


def check_lloyd_fixed_point(points_flat, weights, centroids_flat, atol=1e-9):
    """Both Lloyd conditions: nearest-centroid assignment and weighted-mean
    centroids. Returns the max violation over both conditions."""
    d2 = ((points_flat[:, None, :] - centroids_flat[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    # Condition 1 is discrete: every point's assigned distance is minimal.
    cond1 = (d2[np.arange(len(points_flat)), assign] - d2.min(axis=1)).max()
    cond2 = 0.0
    for c in range(centroids_flat.shape[0]):
        members = assign == c
        if not members.any():
            return math.inf
        mean = np.average(points_flat[members], axis=0, weights=weights[members])
        cond2 = max(cond2, np.abs(mean - centroids_flat[c]).max())
    return max(cond1, cond2)
