"""Test oracles: the original loop implementations of the engine's fast paths.

Each fast path in ``src/`` must match its oracle bit-for-bit; the tier-1
equivalence tests and the perf harness's same-run speedups compare against
them.  They live here, not in ``src/``, so the library ships one
implementation of each stage.  Each oracle bumps its own perfstats counter
(``featurize.reference``, ``annotate.reference``,
``trace.generate.reference``, ``optim.reference_step``).
"""
