"""Experiment harness: one module per table/figure in the paper.

Each module is one scenario: ``run(...) -> <Result>`` returns structured
rows, ``format_table(result) -> str`` prints the same rows/series the
paper reports, and ``metrics(result)`` flattens them into the canonical
``BENCH_*.json`` keys that ``repro bench`` gates (``regress``).  Every
number is simulated cost, so nothing here reads a wall clock.  The
``benchmarks/`` directory runs each module at display size and asserts
the paper's *shape* (who wins, rough factors, crossovers);
EXPERIMENTS.md records paper-vs-measured values.

| Module                     | Paper content                               |
|----------------------------|---------------------------------------------|
| ``fig7_microbenchmark``    | Figure 7: scan-time microbenchmark          |
| ``fig8_deserialization``   | Figure 8: deserialization cost vs fraction  |
| ``fig9_rowgroups``         | Figure 9: RCFile row-group size tuning      |
| ``fig10_selectivity``      | Figure 10: CIF vs CIF-SL vs selectivity     |
| ``fig11_wide_records``     | Figure 11: bandwidth vs record width        |
| ``table1_crawl``           | Table 1: full-cluster crawl job             |
| ``table2_load_times``      | Table 2: load times                         |
| ``colocation``             | Section 6.4: CPP on/off                     |
| ``addcolumn_ablation``     | Section 4.3: add-a-column cost, CIF vs RCFile |
"""
