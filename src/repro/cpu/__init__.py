"""Host CPU models: interval cores and host DRAM."""
