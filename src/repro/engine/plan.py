"""Compile a model into an ordered layer plan for prefix caching.

A *stage* is a contiguous slice of the model's forward pass: a callable
``Tensor -> Tensor`` plus the set of modules whose weights/buffers it reads.
The stage list replays the model's ``forward`` op-for-op, so running all
stages in order is byte-identical to ``module(x)``.

Models opt in to fine-grained staging by defining ``forward_stages()``
returning ``[(name, fn, modules), ...]``.  Without it, a ``Sequential`` is
split per child, and any other module degrades to a single whole-model stage
(correct, just cache-unfriendly below whole-model granularity).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import telemetry
from repro.autodiff.tensor import Tensor
from repro.log import get_logger
from repro.nn.layers import Linear, Sequential
from repro.nn.module import Module, Parameter

log = get_logger(__name__)

# Module classes already warned about degrading to a whole-model stage; the
# warning fires once per class per process, not once per compile.
_degradation_warned: Set[str] = set()


@dataclass(frozen=True)
class Stage:
    """One contiguous slice of a model's forward pass."""

    name: str
    fn: Callable[[Tensor], Tensor]
    modules: Tuple[Module, ...]

    def version_signature(self) -> Tuple[Union[bytes, int], ...]:
        """What this stage reads: every parameter's bytes and buffer version.

        Parameters enter by content (:meth:`Parameter.digest`), buffer
        stores by their write counter.  Identical signatures imply
        bit-for-bit identical stage outputs for the same input, and a
        parameter rebound to bytes it held before returns the signature it
        had then.
        """
        sig: List[Union[bytes, int]] = []
        for module in self.modules:
            for _, param in module.named_parameters():
                sig.append(param.digest())
            for _, sub in module.named_modules():
                sig.append(sub.buffers_version)
        return tuple(sig)


class LayerPlan:
    """An ordered stage decomposition of one model's forward pass."""

    def __init__(self, module: Module, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a layer plan needs at least one stage")
        self.module = module
        self.stages: Tuple[Stage, ...] = tuple(stages)
        self._param_stage: Optional[Dict[int, int]] = None

    def __len__(self) -> int:
        return len(self.stages)

    @functools.cached_property
    def head_start(self) -> int:
        """Index of the first stage that reads a ``Linear`` (``len(self)`` if none).

        In eval mode the stages before it treat each row on its own, so
        their output for a subset of a batch's rows is those rows of the
        batch's output.  A dense GEMM may round by row count, so the head
        from here on runs on the batch it is given.
        """
        return next((index for index, stage in enumerate(self.stages)
                     if any(isinstance(sub, Linear) for module in stage.modules
                            for _, sub in module.named_modules())), len(self.stages))

    def signatures(self) -> Tuple[Tuple[Union[bytes, int], ...], ...]:
        """Current per-stage version signatures, in stage order."""
        return tuple(stage.version_signature() for stage in self.stages)

    def stage_index_of(self, param: Parameter) -> int:
        """Index of the (first) stage whose computation reads ``param``.

        Built lazily from the stages' module sets and keyed on parameter
        object identity -- Parameter objects are stable across ``data``
        rebinds, so the map survives flip commits and optimizer steps.
        """
        if self._param_stage is None:
            mapping: Dict[int, int] = {}
            for index, stage in enumerate(self.stages):
                for module in stage.modules:
                    for _, stage_param in module.named_parameters():
                        mapping.setdefault(id(stage_param), index)
            self._param_stage = mapping
        try:
            return self._param_stage[id(param)]
        except KeyError:
            raise ValueError(
                "parameter is not read by any stage of this plan "
                "(was it rebound as a new Parameter object?)"
            ) from None


def _stage_for(name: str, module: Module) -> Stage:
    return Stage(name=name, fn=module, modules=(module,))


def compile_plan(module: Module) -> LayerPlan:
    """Build the finest stage decomposition the model supports.

    Resolution order: the model's own ``forward_stages()`` protocol, then
    per-child splitting for :class:`~repro.nn.layers.Sequential`, then a
    single whole-model stage.  Every path replays the identical op sequence
    as ``module(x)``.
    """
    forward_stages = getattr(module, "forward_stages", None)
    if callable(forward_stages):
        stages = [
            Stage(name=name, fn=fn, modules=tuple(mods))
            for name, fn, mods in forward_stages()
        ]
        return LayerPlan(module, stages)

    # A Sequential's forward is exactly child-after-child application, so the
    # per-child split is safe for it alone; arbitrary modules may do more in
    # forward than call their children.
    if isinstance(module, Sequential) and len(module) > 0:
        return LayerPlan(
            module, [_stage_for(name, getattr(module, name)) for name in module._order]
        )

    # Whole-model degradation: correct, but the prefix cache can only serve
    # full-forward hits, so every flip recomputes the entire model.  Surface
    # it -- once per module class -- so CI's engine summary and operators
    # notice a zoo model that silently lost its staging.
    cls_name = type(module).__name__
    if cls_name not in _degradation_warned:
        _degradation_warned.add(cls_name)
        log.warning(
            "%s defines no forward_stages(); the evaluation engine degrades to a "
            "single whole-model stage (prefix caching disabled below model "
            "granularity)",
            cls_name,
        )
    if telemetry.enabled():
        telemetry.counter_add("engine.plan.degraded")
    return LayerPlan(module, [Stage(name="forward", fn=module, modules=(module,))])
