"""Synthesis engines: optimal search, database construction, baselines."""

from repro.synth.database import OptimalDatabase
from repro.synth.search import (
    MeetInTheMiddleSearch,
    peel_minimal_circuit,
    peel_minimal_circuits,
)
from repro.synth.synthesizer import OptimalSynthesizer, SynthesisHandle

__all__ = [
    "OptimalDatabase",
    "MeetInTheMiddleSearch",
    "OptimalSynthesizer",
    "SynthesisHandle",
    "peel_minimal_circuit",
    "peel_minimal_circuits",
]
