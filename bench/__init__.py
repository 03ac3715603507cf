"""Benchmark of the saddleprec solver stack; see bench/README.md."""
