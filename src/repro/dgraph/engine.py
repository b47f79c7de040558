"""Execution-engine seams for value-mode graph apps and the trainer.

- :class:`Engine` — the structural protocol of the *value-mode* round loop
  (:class:`~repro.dgraph.bsp.BSPEngine` satisfies it), so graph-analytics
  applications can be written against the seam instead of the concrete BSP
  driver.
- :func:`resolve_training_engine` — builds the round driver
  :class:`~repro.w2v.distributed.GraphWord2Vec` trains through, the one
  :class:`~repro.dgraph.async_engine.SSPTrainingEngine`: ``"bsp"`` is its
  staleness-0 schedule, ``"async"`` its bounded-staleness one.

The delay-compensation arithmetic of the parameter-server baseline
(:mod:`repro.baselines.param_server`) lives here as :func:`compensate_delta`
so the async engine can offer the same correction as a comparator
configuration (``delay_compensation=λ``) without duplicating the formula.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dgraph.async_engine import SSPTrainingEngine

__all__ = [
    "Engine",
    "resolve_training_engine",
    "compensate_delta",
]


@runtime_checkable
class Engine(Protocol):
    """Structural protocol of a value-mode execution driver.

    ``compute(host, round_index) -> int`` does host-local work;
    ``sync()`` performs the Gluon synchronization; the driver owns the
    round loop and the recovery policy.  :class:`~repro.dgraph.bsp.
    BSPEngine` is the canonical implementation.
    """

    num_hosts: int
    history: list

    def run(
        self,
        compute: Callable[[int, int], int],
        sync: Callable[[], Any],
        work_pending: Callable[[int], bool] | None = None,
    ) -> int: ...


def compensate_delta(
    delta: np.ndarray, drift: np.ndarray, lam: float, lr: float
) -> np.ndarray:
    """Zheng et al.'s delay compensation in delta form (paper ref [29]).

    With the diagonal Hessian approximation ∂²L/∂w² ≈ c·g·gᵀ, a gradient
    delayed past model drift ``w_now − w_stale`` is corrected by
    ``g_comp = g + λ·g⊙g⊙drift``; for an aggregated delta ``δ = −α·g``
    that is ``δ_comp = δ − (λ/α)·δ⊙δ⊙drift``.  ``lam == 0`` returns
    ``delta`` unchanged (bit-identical no-compensation path).
    """
    if lam <= 0:
        return delta
    scale = lam / max(lr, 1e-12)
    return delta - scale * delta * delta * drift


def resolve_training_engine(
    engine: "str | SSPTrainingEngine",
    staleness: int = 0,
    delay_compensation: float = 0.0,
) -> "SSPTrainingEngine":
    """Instantiate the training engine by name (``"bsp"`` / ``"async"``).

    ``"bsp"`` is the staleness-0 engine; ``staleness``/``delay_compensation``
    must be left at their defaults for it (a barrier schedule has no
    staleness window to bound or compensate).  ``"async"`` (alias
    ``"ssp"``) takes both.  A pre-built engine passes through unchanged.
    """
    from repro.dgraph.async_engine import SSPTrainingEngine

    if isinstance(engine, SSPTrainingEngine):
        return engine
    if engine == "bsp":
        if staleness != 0:
            raise ValueError(
                f"staleness={staleness} requires engine='async' (BSP is staleness-0)"
            )
        if delay_compensation != 0.0:
            raise ValueError(
                "delay_compensation requires engine='async' "
                "(BSP folds are never stale)"
            )
        return SSPTrainingEngine()
    if engine in ("async", "ssp"):
        return SSPTrainingEngine(
            staleness=staleness, delay_compensation=delay_compensation
        )
    raise ValueError(
        f"unknown engine {engine!r}; available: bsp, async"
    )
