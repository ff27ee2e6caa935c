"""Knowledge-distillation loss and teacher-side diagnostics.

The training loss blends hard-label cross-entropy with a softened KL term:

    L = (1 - h) * CE(student, labels)
        + h * scale * KL(softmax(teacher / T) || softmax(student / T))

where h is the hardness (h = 1 means distillation only), T the temperature,
and scale = T^2 when ``scale_kl_by_t_squared`` is set (the default), which
keeps gradient magnitudes comparable across temperatures. Cross-entropy is
always computed on unsoftened student logits. When a term's weight is zero
the term is skipped entirely, so h = 0 is bit-identical to plain
cross-entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import encoder_from_checkpoint, predict
from .tensor import Tensor, log_softmax, mul, softmax

DEFAULT_TEMPERATURES = (1.0, 2.0, 5.5)


@dataclass(frozen=True)
class KDConfig:
    hardness: float = 1.0
    temperature: float = 5.5
    scale_kl_by_t_squared: bool = True

    def __post_init__(self):
        if not 0.0 <= self.hardness <= 1.0:
            raise ValueError(f"hardness must be in [0, 1], got {self.hardness}")
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


def soften(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / T) over the last axis, numerically stable. Non-finite
    logits raise ``ValueError``."""
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    return softmax(np.asarray(logits, dtype=np.float64) / temperature).data


def distribution_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) over the last axis, with 0 * log 0 = 0."""
    probs = np.asarray(probs, dtype=np.float64)
    logp = np.log(np.where(probs > 0.0, probs, 1.0))
    return -(probs * logp).sum(axis=-1)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer labels under the logits."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be [batch, classes], got shape {logits.shape}")
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise ValueError(
            f"labels shape {labels.shape} does not match batch size {batch}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(
            f"labels out of range [0, {classes}): min {labels.min()} max {labels.max()}"
        )
    onehot = np.zeros((batch, classes))
    onehot[np.arange(batch), labels] = 1.0
    ls = log_softmax(logits)
    return mul(ls, onehot).sum() * (-1.0 / batch)


def _kl_term(student_logits: Tensor, teacher_logits: np.ndarray,
             temperature: float) -> Tensor:
    """Mean-over-batch KL(teacher_soft || student_soft) as a Tensor."""
    batch = student_logits.shape[0]
    p_teacher = soften(teacher_logits, temperature)
    log_p_teacher = log_softmax(np.asarray(teacher_logits) / temperature).data
    const_part = float((p_teacher * log_p_teacher).sum() / batch)
    ls_student = log_softmax(mul(student_logits, 1.0 / temperature))
    cross = mul(ls_student, p_teacher).sum() * (1.0 / batch)
    return cross * (-1.0) + const_part


def kd_loss_terms(
    student_logits: Tensor,
    teacher_logits: np.ndarray | None,
    labels: np.ndarray,
    config: KDConfig,
) -> tuple[Tensor, float, float]:
    """The loss Tensor plus its (ce, kl) contributions as plain floats.

    The contributions are the already-weighted terms, so they sum to the loss
    value; a term with zero weight reports 0.0 and is never computed.
    """
    if not np.all(np.isfinite(student_logits.data)):
        raise ValueError("student logits contain non-finite values")
    h = config.hardness
    if h == 0.0:
        ce = cross_entropy(student_logits, labels)
        return ce, float(ce.data), 0.0
    if teacher_logits is None:
        raise ValueError("hardness > 0 requires teacher logits")
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    if not np.all(np.isfinite(teacher_logits)):
        raise ValueError("teacher logits contain non-finite values")
    if teacher_logits.shape != student_logits.data.shape:
        raise ValueError(
            f"teacher logits shape {teacher_logits.shape} does not match "
            f"student logits shape {student_logits.data.shape}"
        )
    scale = config.temperature**2 if config.scale_kl_by_t_squared else 1.0
    kl = _kl_term(student_logits, teacher_logits, config.temperature)
    if h == 1.0:
        loss = kl * scale
        return loss, 0.0, float(loss.data)
    ce = cross_entropy(student_logits, labels)
    loss = ce * (1.0 - h) + kl * (h * scale)
    return loss, float(ce.data) * (1.0 - h), float(kl.data) * h * scale


class TeacherHandle:
    """A frozen teacher model that produces logits as plain arrays.

    Parameters are loaded with requires_grad off, so teacher forwards never
    land on the caller's tape."""

    def __init__(self, ckpt):
        self.encoder = encoder_from_checkpoint(ckpt, requires_grad=False)

    def logits(self, tokens: np.ndarray) -> np.ndarray:
        """Logits of every row, computed by ``predict``: a run asks once for
        its whole training split and indexes the table by batch rows."""
        return predict(self.encoder, tokens)


def teacher_distribution_stats(
    teacher_logits: np.ndarray,
    temperatures=DEFAULT_TEMPERATURES,
) -> list[dict]:
    """Per-sample max probability and entropy of the softened teacher
    distribution, one row per (sample, temperature)."""
    logits = np.asarray(teacher_logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"teacher logits must be [n, classes], got {logits.shape}")
    rows = []
    for temperature in temperatures:
        probs = soften(logits, temperature)
        ent = distribution_entropy(probs)
        top = probs.max(axis=-1)
        for i in range(logits.shape[0]):
            rows.append({
                "sample_id": i,
                "temperature": float(temperature),
                "max_prob": float(top[i]),
                "entropy": float(ent[i]),
            })
    return rows
