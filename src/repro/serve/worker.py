"""Process-pool worker of the compile service.

The daemon's workers run the evaluation runner's one worker entry point,
:func:`repro.evalx.runner.compile_chunk`: a chunk of one request's cells
under the service's per-cell timeout nested inside the request's
remaining budget.
"""

from repro.evalx.runner import compile_chunk

# A separate name for the daemon's entry point is part of the benchmark
# contract: the traced daemon rebinds ``repro.serve.server.compile_serve_chunk``
# and calls this one inside its wrapper.
compile_serve_chunk = compile_chunk
