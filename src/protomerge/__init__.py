"""Infer one global communication protocol from per-rank local behaviours.

The pipeline: parse each rank's process (`syntax`), extract its local
protocol type (`extract`), then fold the types together under the merge
relation (`merge`). A failed merge carries a Diagnostic pointing at the
communication pattern that no global protocol can explain. The `oracle`
module independently replays protocols in one rendezvous run.
"""

from . import ast, extract, logic, merge, oracle, syntax
from .ast import *
from .extract import *
from .logic import *
from .merge import *
from .oracle import *
from .syntax import *

__version__ = "0.1.0"

__all__ = [
    *ast.__all__,
    *extract.__all__,
    *logic.__all__,
    *merge.__all__,
    *oracle.__all__,
    *syntax.__all__,
]
