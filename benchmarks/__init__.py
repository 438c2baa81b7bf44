"""Paper-shape checks: one ``bench_*`` module per ``repro.bench`` scenario.

Each module regenerates one table or figure from the paper at *display*
size (larger than the regression smoke size), prints the paper-style
rows (run pytest with ``-s`` to see them) and asserts the paper's
*shape*: who wins, rough factors, crossovers.  Nothing is timed; the
regression gate over the same scenarios is ``repro bench``, whose
committed baselines live in ``baselines/`` (see docs/benchmarking.md).
"""
