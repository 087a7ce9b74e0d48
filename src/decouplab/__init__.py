"""Numerical laboratory for one-shot decoupling at desk-scale dimensions.

The package builds decoupling instances (a state, a channel, smoothing
radii), certifies the one-shot entropies that control them, and checks the
concentration story end to end: closed-form Haar moments, Lipschitz and
uniform bounds, expander-style tails, typicality, and a CLI that runs the
whole battery reproducibly from JSON configs.

The API is the modules, imported by name (`from decouplab import
decoupling`); importing the package alone loads none of them.
"""

__version__ = "0.1.0"
