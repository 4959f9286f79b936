"""SGD training loop for the offline-training phase.

The paper trains its networks offline and hard-codes the weights into the
hardware design; this module is that offline phase. Plain mini-batch SGD
with momentum is enough for the small LeNet-style networks involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TrainingError
from repro.nn.losses import cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential


class SGD:
    """Mini-batch SGD with classical momentum."""

    def __init__(self, net: Sequential, lr: float = 0.05, momentum: float = 0.9):
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= momentum < 1.0):
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.net = net
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity: Dict[Tuple[int, str], np.ndarray] = {}

    def step(self) -> None:
        """Apply one update using the gradients currently stored in layers."""
        for i, name, p, g in self.net.parameters():
            key = (i, name)
            v = self._velocity.get(key)
            if v is None:
                v = np.zeros_like(p)
                self._velocity[key] = v
            v *= self.momentum
            v -= self.lr * g
            p += v


@dataclass
class TrainResult:
    """History of one training run."""

    losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)
    test_accuracy: Optional[float] = None

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise TrainingError("no epochs were run")
        return self.losses[-1]


def train_classifier(
    net: Sequential,
    x_train: np.ndarray,
    y_train: np.ndarray,
    epochs: int = 5,
    batch_size: int = 32,
    lr: float = 0.05,
    momentum: float = 0.9,
    x_test: Optional[np.ndarray] = None,
    y_test: Optional[np.ndarray] = None,
    seed: int = 0,
    lr_decay: float = 1.0,
    lr_decay_every: int = 1,
    patience: Optional[int] = None,
    min_improvement: float = 1e-4,
) -> TrainResult:
    """Train ``net`` with cross-entropy on ``(x_train, y_train)``.

    Returns the per-epoch loss/accuracy history; if a test set is given,
    fills ``test_accuracy`` with the final held-out accuracy.

    Parameters
    ----------
    lr_decay, lr_decay_every:
        Step learning-rate schedule: every ``lr_decay_every`` epochs the
        rate is multiplied by ``lr_decay`` (1.0 = constant).
    patience:
        Early stopping: stop when the epoch loss has not improved by at
        least ``min_improvement`` for ``patience`` consecutive epochs.
        ``None`` disables it.
    """
    if len(x_train) != len(y_train):
        raise TrainingError(
            f"x/y length mismatch: {len(x_train)} vs {len(y_train)}"
        )
    if epochs < 1 or batch_size < 1:
        raise TrainingError("epochs and batch_size must be >= 1")
    if not (0.0 < lr_decay <= 1.0):
        raise TrainingError(f"lr_decay must be in (0, 1], got {lr_decay}")
    if lr_decay_every < 1:
        raise TrainingError(f"lr_decay_every must be >= 1, got {lr_decay_every}")
    if patience is not None and patience < 1:
        raise TrainingError(f"patience must be >= 1, got {patience}")
    opt = SGD(net, lr=lr, momentum=momentum)
    rng = np.random.default_rng(seed)
    n = len(x_train)
    result = TrainResult()
    best_loss = float("inf")
    stalled = 0
    for epoch in range(epochs):
        if epoch and lr_decay < 1.0 and epoch % lr_decay_every == 0:
            opt.lr *= lr_decay
        order = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            logits = net.forward(x_train[idx], train=True)
            loss, grad = cross_entropy(logits, y_train[idx])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batches}"
                )
            net.backward(grad)
            opt.step()
            epoch_loss += loss
            batches += 1
        result.losses.append(epoch_loss / batches)
        result.train_accuracies.append(accuracy(net.predict(x_train), y_train))
        if patience is not None:
            if result.losses[-1] < best_loss - min_improvement:
                best_loss = result.losses[-1]
                stalled = 0
            else:
                stalled += 1
                if stalled >= patience:
                    break
    if x_test is not None and y_test is not None:
        result.test_accuracy = accuracy(net.predict(x_test), y_test)
    return result
