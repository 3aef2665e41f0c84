"""Benchmark for iodcrypt: drone uplink, ground downlink and whole CLI processes."""
