"""Numpy knowledge-distillation trainer (Eq. 2: minimize KL(P_T || P_S)).

The student is a one-layer attention LM operating in the teacher's content
space: given a sequence, its key at position j is ``H (c_prev_j + kappa
c_cur_j)`` (token-shift mixer), its query is ``G c_last``, and its output
distribution is a content readout of the attention-weighted value mixture.
Only G and H are trained — precisely the parameters the retrieval head
retains after pruning.

Gradients are derived by hand (softmax + bilinear chain rule) and checked
against finite differences in the test suite. Adam is implemented from
scratch. Alongside the KL loss, the trainer tracks *attention-focus
overlap*: the fraction of the student's top-k attention positions that are
also the teacher's. The Sec. 3 claim — distillation aligns information
focus — corresponds to this overlap rising as the KL falls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.distill.dataset import DistillationDataset, DistillationExample
from repro.models.llm import TransformerLM
from repro.tensor.ops import softmax, top_k_indices


@dataclass
class TrainingCurve:
    """Per-epoch metrics recorded during distillation."""

    kl: list[float] = field(default_factory=list)
    attention_overlap: list[float] = field(default_factory=list)


class _Adam:
    """Minimal Adam optimizer over a dict of arrays."""

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-2):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for key, grad in grads.items():
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * grad
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * grad**2
            m_hat = self.m[key] / (1 - self.beta1**self.t)
            v_hat = self.v[key] / (1 - self.beta2**self.t)
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class DistillationTrainer:
    """Distills a teacher :class:`TransformerLM` into a 1-layer student."""

    def __init__(
        self,
        teacher: TransformerLM,
        dataset: DistillationDataset,
        shift_mix: float = 0.2,
        sharpness: float = 14.0,
        readout_gain: float = 8.0,
        lr: float = 5e-3,
        seed: int = 0,
        init_noise: float = 0.5,
    ):
        self.teacher = teacher
        self.dataset = dataset
        self.shift_mix = shift_mix
        self.sharpness = sharpness
        self.readout_gain = readout_gain
        dc = teacher.config.head_dim
        self.content = np.asarray(teacher.weights.embedding[:, :dc], dtype=np.float64)
        rng = np.random.default_rng(seed)
        # Start far from the identity: distillation must *find* alignment.
        self.params = {
            "G": np.eye(dc) + init_noise * rng.standard_normal((dc, dc)) / np.sqrt(dc),
            "H": np.eye(dc) + init_noise * rng.standard_normal((dc, dc)) / np.sqrt(dc),
        }
        self.optimizer = _Adam(self.params, lr=lr)
        self.curve = TrainingCurve()

    # ---- student forward/backward -------------------------------------------------

    def _student_features(self, example: DistillationExample):
        ids = example.token_ids
        cur = self.content[ids[:-1]]  # context tokens (keys come from these)
        prev = self.content[np.concatenate([[ids[0]], ids[:-2]])]
        mixed = prev + self.shift_mix * cur  # (n, dc)
        query_content = self.content[int(ids[-1])]
        return mixed, cur, query_content

    def student_attention(self, example: DistillationExample) -> np.ndarray:
        """Student attention weights over context positions."""
        mixed, _, query_content = self._student_features(example)
        q = self.params["G"] @ query_content
        k = mixed @ self.params["H"].T
        return softmax(self.sharpness * (k @ q))

    def _teacher_distribution(self, example: DistillationExample) -> np.ndarray:
        cache = self.teacher.new_cache()
        logits = self.teacher.prefill(example.token_ids, cache)
        return softmax(np.asarray(logits, dtype=np.float64))

    def loss_and_grads(
        self, example: DistillationExample
    ) -> tuple[float, dict[str, np.ndarray]]:
        """KL(P_T || P_S) and its gradients w.r.t. G and H."""
        mixed, cur, query_content = self._student_features(example)
        G, H = self.params["G"], self.params["H"]
        q = G @ query_content
        k = mixed @ H.T
        logits_attn = self.sharpness * (k @ q)
        w = softmax(logits_attn)
        mix = w @ cur
        logits_s = self.readout_gain * (self.content @ mix)
        p_s = softmax(logits_s)
        p_t = self._teacher_distribution(example)

        eps = 1e-12
        kl = float(np.sum(p_t * (np.log(p_t + eps) - np.log(softmax(logits_s) + eps))))

        # d KL / d logits_s = p_s - p_t
        dlogits = p_s - p_t
        dmix = self.readout_gain * (self.content.T @ dlogits)  # (dc,)
        dw = cur @ dmix  # (n,)
        dattn_logits = w * (dw - np.dot(w, dw))  # softmax backward
        dattn_logits *= self.sharpness
        dq = k.T @ dattn_logits  # (dc,)
        dk = np.outer(dattn_logits, q)  # (n, dc)
        grads = {
            "G": np.outer(dq, query_content),
            "H": dk.T @ mixed,
        }
        return kl, grads

    # ---- training loop ---------------------------------------------------------------

    def teacher_attention(self, example: DistillationExample) -> np.ndarray:
        """Teacher induction-layer attention at the query position.

        Layer 1's first query head is the teacher's induction head; its
        weights over the context are the 'information focus' the student is
        supposed to inherit.
        """
        cache = self.teacher.new_cache()
        ids = example.token_ids
        self.teacher.prefill(ids[:-1], cache, logits=False)
        _, _, attn = self.teacher.decode_step(
            int(ids[-1]), cache, capture_attention=True
        )
        return attn[1][0][:-1]  # drop the query token's own position

    def attention_overlap(
        self, examples: list[DistillationExample], k: int = 4
    ) -> float:
        """Mean fraction of student top-k attention inside teacher top-k."""
        overlaps = []
        for ex in examples:
            student_top = set(top_k_indices(self.student_attention(ex), k).tolist())
            teacher_top = set(top_k_indices(self.teacher_attention(ex), k).tolist())
            overlaps.append(len(student_top & teacher_top) / k)
        return float(np.mean(overlaps))

    def train(
        self,
        epochs: int = 5,
        batch_size: int = 16,
        eval_examples: list[DistillationExample] | None = None,
    ) -> TrainingCurve:
        """Run distillation; returns the KL / overlap curves."""
        eval_examples = eval_examples or self.dataset.batch(8)
        for _ in range(epochs):
            batch = self.dataset.batch(batch_size)
            epoch_kl = []
            grad_sum = {k: np.zeros_like(v) for k, v in self.params.items()}
            for ex in batch:
                kl, grads = self.loss_and_grads(ex)
                epoch_kl.append(kl)
                for key in grad_sum:
                    grad_sum[key] += grads[key] / batch_size
            self.optimizer.step(grad_sum)
            self.curve.kl.append(float(np.mean(epoch_kl)))
            self.curve.attention_overlap.append(self.attention_overlap(eval_examples))
        return self.curve
