"""Monetary order-parameter measurement and modelling pipeline."""
