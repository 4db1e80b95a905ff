"""Desk-scale experiment suite: optimization-flow trajectories on classic
test functions, a norm-growth stability probe across the model family, and
a small classification task tracking accuracy per function evaluation."""
