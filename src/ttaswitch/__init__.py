"""Masked multi-task training with switched full/efficient test-time tuning.

A float64 numpy stack, bottom-up: a tape autodiff engine, a small vision
transformer with parallel adapters and a learnable mask token, source-stage
multi-task training, a continual test-time adaptation engine that picks
full or efficient tuning per instance by detecting domain shifts in the
input sequence, synthetic corrupted streams, and a config-driven experiment
harness.
"""
