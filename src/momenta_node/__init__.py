"""Continuous-depth models with momentum and adaptive-moment state.

Core pieces: ``solver`` (explicit Runge-Kutta integrators), ``dynamics``
(the model family's right-hand sides and the optimization flows),
``field_net`` (small dense networks and parameter packing), ``adjoint``
(reverse-time gradients plus a finite-difference gate), ``benchmarks``
(landscape trajectories, stability probe, classification efficacy), and
``cli`` (the ``momenta-node`` executable).
"""

__version__ = "0.1.0"
