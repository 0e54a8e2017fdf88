from .gradcheck import GradCheckReport, TensorCheck, grad_check
from .params import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Param,
    ParameterStore,
    adam_step,
)
from . import _heap, ops

_heap.retain_freed_heap()

__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "GradCheckReport",
    "Param",
    "ParameterStore",
    "TensorCheck",
    "adam_step",
    "grad_check",
    "ops",
]
