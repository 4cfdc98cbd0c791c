"""Graph-based speaker clustering for overlap-aware diarization: import names from the modules."""

from .gcn import load_weights   # the benchmark's setup probe calls cdgcn.load_weights

__version__ = "0.1.0"
