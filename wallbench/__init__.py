"""wallbench: the wall-clock benchmark of the repro stack.

Five workloads, measured end to end with tracing off and layer by
layer in one extra traced trial.  See ``README.md`` beside this file;
``BENCHMARK.json`` at the repository root names every metric.

The package measures the program from outside: it calls public
functions of ``repro`` and times them, imports nothing from
``repro.bench``, and pins its own cluster constants and sizes in
``config.json`` so a change of program defaults cannot move the
workloads.
"""
