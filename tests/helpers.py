"""Test-only data builders shared across modules."""

from __future__ import annotations

import ctypes
import json
import math
import weakref
from itertools import accumulate
from pathlib import Path

import numpy as np

from cogen.audit import MIN_MATCH_CHARS, AuditHit, AuditLog, AuditVerdict, normalize_for_audit
from cogen.backends import ContextBundle, NGramBackend, Role, TableBackend, open_cursor
from cogen.combmodel import (
    _PROB_FLOOR,
    CombExample,
    CombModelParams,
    EpochStats,
    TrainReport,
    _sigmoid,
    comb_init,
)
from cogen.core import DENSE_SUM_TOL, TokenDistribution, _pairwise_sum, top_k_project
from cogen.decoder import WeightTrace, decode
from cogen.errors import InvalidDistributionError, InvalidInputError
from cogen.fusion import blend
from cogen.rng import Splitmix64


def softmax(logits) -> TokenDistribution:
    """Dense softmax with max-subtraction for overflow safety."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise InvalidInputError("logits must be a non-empty vector")
    if not np.all(np.isfinite(logits)):
        raise InvalidInputError("logits must be finite")
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    probs = exps / exps.sum()
    probs.flags.writeable = False
    return TokenDistribution(vocab_size=probs.size, dense_probs=probs)


def path_backend(vocab, role, path_tokens) -> TableBackend:
    """A table backend that spells out a fixed path, then EOS."""
    return TableBackend(vocab, role, rules=TableBackend.path_rules(vocab, path_tokens))


class CountingBackend:
    """Delegates to ``inner`` and keeps every request it answers."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.role = inner.role
        self.requests = []

    def next_distribution(self, request):
        self.requests.append(request)
        return self.inner.next_distribution(request)


_PLACED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def placed(llm, mode):
    """The large backend a harness gives a session in ``mode``: for
    llm-with-context, ``llm``'s n-gram model placed on the device, since
    only a small_device backend may read the context; ``llm`` itself
    otherwise. Each ``llm`` keeps one device copy while it lives, so a
    second pass reads the memo the first one filled, as ``llm``'s does."""
    if mode.kind != "llm_only_with_context":
        return llm
    if llm not in _PLACED:
        _PLACED[llm] = NGramBackend(llm.model, Role.SMALL_DEVICE)
    return _PLACED[llm]


class FixedDraw:
    """An RNG whose every float is ``u``."""

    def __init__(self, u):
        self.u = u

    def next_float(self):
        return self.u


def outcome(fn, *args):
    """(value, None) or (None, (error class, message)) for one call."""
    try:
        return fn(*args), None
    except Exception as exc:  # the comparison is over the exception itself
        return None, (type(exc), str(exc))


def session_trace(session) -> WeightTrace:
    """An empty trace for ``session``, labelled as ``cogen generate`` labels one."""
    return WeightTrace(mode=session.mode.label(), seed=session.sampling.seed)


def traced_decode(session, **kwargs):
    """``decode(session, **kwargs)`` with a fresh trace; returns the
    result and the trace it filled."""
    trace = session_trace(session)
    return decode(session, trace=trace, **kwargs), trace


def scalar_uniform(rng: Splitmix64, low: float, high: float) -> float:
    """One draw of ``Splitmix64.uniforms``, the scalar reference."""
    return low + (high - low) * rng.next_float()


class CountedDraws:
    """A splitmix64 stream that counts the floats drawn from it."""

    def __init__(self, seed: int) -> None:
        self._rng = Splitmix64(seed)
        self.draws = 0

    def next_float(self) -> float:
        self.draws += 1
        return self._rng.next_float()

    def next_u64(self) -> int:
        return self._rng.next_u64()


def scalar_shuffle(rng: Splitmix64, items: list) -> None:
    """``Splitmix64.shuffle``'s scalar reference, as docs/rng.md states it:
    Fisher-Yates from the top, one ``next_below(i + 1)`` per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


def perplexity(backend, token_ids, instruction: str = "", context=None) -> float:
    """exp of the mean negative log probability of each token given its
    true prefix; a zero-probability token yields infinity, not a crash."""
    token_ids = [int(t) for t in token_ids]
    if not token_ids:
        raise InvalidInputError("cannot score an empty sequence")
    cursor = open_cursor(backend, instruction, context)
    nll = 0.0
    for target in token_ids:
        p = cursor.distribution().prob_of(target)
        if p <= 0.0:
            return math.inf
        nll -= math.log(p)
        cursor.push(target)
    return math.exp(nll / len(token_ids))


def one_sided_examples(seed: int, count: int, vocab: int = 12, mirrored: bool = False):
    """Supervision where the target always follows the peaked source.

    The small side is a random peaked distribution whose argmax is the
    gold token; the large side is uniform. ``mirrored`` swaps the roles.
    Each view holds the whole vocabulary, so the example aligns over all
    of it.
    """
    rng = Splitmix64(seed)
    out = []
    for _ in range(count):
        raw = np.array([rng.next_float() for _ in range(vocab)])
        peaked = raw**4
        peaked /= peaked.sum()
        uniform = np.full(vocab, 1.0 / vocab)
        target = int(np.argmax(peaked))
        p_peaked = TokenDistribution.dense(peaked)
        p_uniform = TokenDistribution.dense(uniform)
        p_s, p_l = (p_uniform, p_peaked) if mirrored else (p_peaked, p_uniform)
        out.append(CombExample(top_k_project(p_s, vocab), top_k_project(p_l, vocab), target))
    return out


def random_comb_example(rng: np.random.Generator, vocab: int = 30, k: int = 6) -> CombExample:
    """An example of two random sparse views with a positive-mass target."""
    ids_s = np.sort(rng.choice(vocab, size=k, replace=False))
    ids_l = np.sort(rng.choice(vocab, size=k, replace=False))
    ps = rng.random(k)
    ps = ps / ps.sum() * rng.uniform(0.6, 1.0)
    pl = rng.random(k)
    pl = pl / pl.sum() * rng.uniform(0.6, 1.0)
    order_s, order_l = np.argsort(-ps), np.argsort(-pl)
    dist_s = TokenDistribution.sparse(ids_s[order_s], ps[order_s], vocab)
    dist_l = TokenDistribution.sparse(ids_l[order_l], pl[order_l], vocab)
    support = np.union1d(ids_s, ids_l)
    mass = np.zeros(vocab)
    mass[ids_s] += ps
    mass[ids_l] += pl
    candidates = support[mass[support] > 1e-6]
    target = int(candidates[rng.integers(len(candidates))])
    return CombExample(dist_s, dist_l, target)


def perturbed_params(params, rng: np.random.Generator, scale: float = 0.05):
    """Fresh parameters jittered around ``params`` for gradient checking."""
    arrays = [np.array(a) + rng.normal(0, scale, a.shape) for a in params.arrays()]
    return CombModelParams(
        w1=arrays[0], b1=arrays[1], w2=arrays[2], b2=arrays[3], w3=arrays[4], b3=arrays[5],
        seed=params.seed,
    )


class ConstantNet:
    """A learnable strategy's model whose ``weight`` is always ``w``."""

    def __init__(self, w: float) -> None:
        self.w = w

    def weight(self, pl_k: TokenDistribution, ps_k: TokenDistribution) -> float:
        return self.w


def numpy_fused_chain(ps_k: TokenDistribution, pl_k: TokenDistribution, w: float | None):
    """The fused step as numpy arrays, the reference for the scalar path.

    It aligns two sparse views on the union of their ids, blends them
    (``w`` None takes the elementwise maximum) and normalizes, orders the
    result by descending probability with ties toward the lower id, and
    spreads it over the vocabulary divided by its mass. Returns the fused
    distribution (sparse unless the union is the whole vocabulary) and
    the dense one that ``core._nucleus`` and ``argmax_token`` read.
    """
    size = ps_k.vocab_size
    ids = np.union1d(ps_k.sparse_ids, pl_k.sparse_ids)
    a = np.zeros(ids.size)
    b = np.zeros(ids.size)
    a[np.searchsorted(ids, ps_k.sparse_ids)] = ps_k.sparse_probs
    b[np.searchsorted(ids, pl_k.sparse_ids)] = pl_k.sparse_probs
    vec = np.maximum(a, b) if w is None else w * a + (1.0 - w) * b
    total = vec.sum()
    if total <= 0:
        raise InvalidInputError("fused distribution has no mass")
    if abs(total - 1.0) > DENSE_SUM_TOL:
        vec = vec / total
    if ids.size == size:
        fused = TokenDistribution(vocab_size=size, dense_probs=vec)
        return fused, fused
    order = np.argsort(-vec, kind="stable")
    fused = TokenDistribution(
        vocab_size=size, sparse_ids=tuple(ids[order].tolist()), sparse_probs=tuple(vec[order].tolist())
    )
    dense = TokenDistribution(vocab_size=size, dense_probs=fused.to_dense_array() / fused.mass)
    return fused, dense


def fsum_sampler(ids: list[int], probs: list[float], temperature: float, top_p: float):
    """The fused sampler's reference, written out step by step.

    ``probs`` is a blend at ascending ``ids``. It is divided by its
    correctly rounded mass (``math.fsum``), tempered through logs and
    divided by the tempered mass, ranked by descending probability with
    ties toward the lower id, and cut after the first entry at which the
    running sum reaches ``top_p``, or after the last positive entry. The
    nucleus is divided by its own ``fsum`` mass. Returns the sampled
    values, the tempered ones, the nucleus ids and the nucleus's
    cumulative sums.
    """
    mass = math.fsum(probs)
    sampled = [p / mass for p in probs]
    tempered = sampled
    if temperature != 1.0:
        scaled = [math.log(p) / temperature if p > 0 else -math.inf for p in sampled]
        top = max(scaled)
        if top == -math.inf:
            raise InvalidDistributionError("distribution has no support")
        powered = [math.exp(s - top) for s in scaled]
        tempered_mass = math.fsum(powered)
        tempered = [x / tempered_mass for x in powered]
    ranked = sorted(zip(ids, tempered), key=lambda entry: (-entry[1], entry[0]))
    nucleus, running = [], 0.0
    for token_id, p in ranked:
        if p <= 0:
            break
        nucleus.append((token_id, p))
        running += p
        if running >= top_p:
            break
    nucleus_mass = math.fsum(p for _, p in nucleus)
    cum = list(accumulate(p / nucleus_mass for _, p in nucleus))
    return sampled, tempered, [token_id for token_id, _ in nucleus], cum


def fsum_pick(nucleus_ids: list[int], cum: list[float], u: float) -> int:
    """The nucleus entry a draw ``u`` lands on: the first whose cumulative
    sum exceeds ``u``, or the last."""
    for token_id, c in zip(nucleus_ids, cum):
        if c > u:
            return token_id
    return nucleus_ids[-1]


def reference_loss(example: CombExample, w: float) -> tuple[float, bool]:
    """One example's loss at weight ``w``, one blend at a time: the negative
    log of ``fusion.blend``'s entry at the gold slot, floored at 1e-12, and
    whether it was floored. ``combmodel._losses`` must match it to the bit."""
    p = blend(example.a, example.b, w)[example.y]
    floored = p < _PROB_FLOOR
    return -math.log(_PROB_FLOOR if floored else p), floored


def reference_forward(arrs, x: np.ndarray):
    """The net on one input row ``(IN_DIM,)``, unfolded: each bias added
    on its own, ``x @ w1 + b1``. Returns the weight and the activations
    ``reference_backward`` reads. ``CombModelParams.weight`` must match it
    to the bit, and ``comb_train``'s folded batches within rounding."""
    w1, b1, w2, b2, w3, b3 = arrs
    z1 = x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ w2 + b2
    h2 = np.maximum(z2, 0.0)
    z3 = h2 @ w3[:, 0] + b3[0]
    return _sigmoid(float(z3)), (x, z1, h1, z2, h2)


def reference_backward(arrs, example: CombExample, w: float, cache) -> tuple[np.ndarray, ...]:
    """One example's weight-net gradient in fresh arrays, through outer
    products, each example's masses summed anew: the reference
    ``combmodel.comb_grad`` must match within rounding."""
    w1, b1, w2, b2, w3, b3 = arrs
    x, z1, h1, z2, h2 = cache
    a, b, y = example.a, example.b, example.y
    a_y, b_y = a[y], b[y]
    mass_a, mass_b = _pairwise_sum(a), _pairwise_sum(b)
    u = w * a_y + (1.0 - w) * b_y
    s = w * mass_a + (1.0 - w) * mass_b
    if u <= 0.0 or u / s < _PROB_FLOOR:
        dl_dw = 0.0  # clamped region of the loss is flat
    else:
        dl_dw = -(a_y - b_y) / u + (mass_a - mass_b) / s

    g = dl_dw * w * (1.0 - w)  # through the sigmoid
    dw3 = h2[:, None] * g
    db3 = np.array([g])
    dh2 = w3[:, 0] * g
    dz2 = dh2 * (z2 > 0)
    dw2 = np.outer(h1, dz2)
    db2 = dz2
    dh1 = w2 @ dz2
    dz1 = dh1 * (z1 > 0)
    dw1 = np.outer(x, dz1)
    db1 = dz1
    return dw1, db1, dw2, db2, dw3, db3


def reference_comb_train(train, val, config):
    """``comb_train`` as plain SGD, one example at a time, over freshly
    allocated arrays: each batch sums its examples' gradients into zeroed
    arrays and updates with ``w -= lr * (g / n)``, and the validation loss
    is a mean over one forward pass per example. ``degenerate_examples``
    counts the train examples whose loss was floored in any epoch. The
    batched trainer must match it within rounding."""
    if not train or not val:
        raise InvalidInputError("train and val splits must both be non-empty")
    current = [np.array(a) for a in comb_init(config.seed).arrays()]
    rng = Splitmix64(config.seed)
    floored = set()
    report = TrainReport()
    best = [a.copy() for a in current]
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(len(train)))
        rng.shuffle(order)
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = [np.zeros_like(a) for a in current]
            for i in batch:
                ex = train[i]
                # One forward pass feeds both the reported loss and the gradient.
                w, cache = reference_forward(current, ex.x)
                loss, low = reference_loss(ex, w)
                batch_losses.append(loss)
                if low:
                    floored.add(i)
                for acc, g in zip(grads, reference_backward(current, ex, w, cache)):
                    acc += g
            for arr, g in zip(current, grads):
                arr -= config.learning_rate * (g / len(batch))
        val_loss = sum(reference_loss(ex, reference_forward(current, ex.x)[0])[0] for ex in val) / len(val)
        report.epochs.append(
            EpochStats(epoch=epoch, train_loss=sum(batch_losses) / len(batch_losses), val_loss=val_loss)
        )
        if val_loss < report.best_val_loss:
            report.best_val_loss = val_loss
            report.best_epoch = epoch
            best = [a.copy() for a in current]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                report.stopped_early = True
                break
    report.degenerate_examples = len(floored)
    return CombModelParams(*best, seed=config.seed), report


def openblas_corename() -> str | None:
    """The kernel name numpy's bundled OpenBLAS reports (it reads
    ``OPENBLAS_CORETYPE`` when it loads), or None when numpy carries no
    OpenBLAS whose name can be read."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_corename64_",
            "scipy_openblas_get_corename",
            "openblas_get_corename64_",
            "openblas_get_corename",
        ):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def decoded_payload_text(payload: bytes) -> str:
    """The audit's reading of a payload, walked a character at a time: a
    quote opens a literal that runs to the next unescaped quote, and
    counts as one only when a JSON value may end after it (``:``, ``,``,
    ``}``, ``]`` or the end, past any whitespace); such a literal is
    replaced by its ``json.loads`` text in quotes when that succeeds.
    Everything else stays as it is."""
    text = payload.decode("utf-8", errors="replace")
    out, i = [], 0
    while (start := text.find('"', i)) != -1:
        end = start + 1
        while end < len(text) and text[end] != '"':
            end += 2 if text[end] == "\\" else 1
        if end >= len(text):
            break
        after = text[end + 1 :].lstrip()
        if after and after[0] not in ":,}]":
            out.append(text[i : start + 1])
            i = start + 1
            continue
        literal = text[start : end + 1]
        try:
            literal = '"' + json.loads(literal) + '"'
        except ValueError:
            pass
        out.append(text[i:start] + literal)
        i = end + 1
    out.append(text[i:])
    return "".join(out)


def reference_privacy_audit(log, context: ContextBundle) -> AuditVerdict:
    """The per-field ``str.find`` scan that ``audit.privacy_audit``
    replaced, over each payload as ``decoded_payload_text`` reads it: for
    each payload, field and window of the field, the first offset of the
    window in the payload, reported once per field and offset. It costs
    windows times payloads times payload length; the single-pass scan must
    agree with its verdict and report every hit it reports."""
    records = log.records if isinstance(log, AuditLog) else list(log)
    fields = []
    for name, value in context.fields():
        norm = normalize_for_audit(value)
        if len(norm) >= MIN_MATCH_CHARS:
            fields.append((name, norm))
    hits: list[AuditHit] = []
    for idx, record in enumerate(records):
        payload = normalize_for_audit(decoded_payload_text(record.payload))
        for name, norm in fields:
            found_here = set()
            for start in range(0, len(norm) - MIN_MATCH_CHARS + 1):
                window = norm[start : start + MIN_MATCH_CHARS]
                offset = payload.find(window)
                if offset != -1 and offset not in found_here:
                    found_here.add(offset)
                    hits.append(
                        AuditHit(
                            request_index=idx,
                            field=name,
                            offset=offset,
                            fragment=window,
                        )
                    )
    return AuditVerdict(passed=not hits, hits=tuple(hits), requests_scanned=len(records))
