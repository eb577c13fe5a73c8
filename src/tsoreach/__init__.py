"""Parameterized reachability for TSO programs with abstract data types."""

from .adt import AdtOp, AdtSpec, AdtValue, wqo_leq
from .model import (
    Instruction,
    MemorySpec,
    ProcessDescription,
    RegisterAction,
    RegisterMachine,
    RmConfiguration,
    lower_tier2_to_tier1,
    lower_tier3_to_tier2,
    rm_step,
)

__all__ = [
    "AdtOp",
    "AdtSpec",
    "AdtValue",
    "wqo_leq",
    "Instruction",
    "MemorySpec",
    "ProcessDescription",
    "RegisterAction",
    "RegisterMachine",
    "RmConfiguration",
    "lower_tier2_to_tier1",
    "lower_tier3_to_tier2",
    "rm_step",
]
