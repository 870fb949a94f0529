"""Key forwarding over short quantum links, with secrecy analysis.

The package models endpoint-to-endpoint key agreement built from
relay-measured and point-to-point links: schedule compilation and
execution (protocol), coalition secrecy verdicts over GF(2) (analysis),
rate-versus-distance curves (ratemodel), and an authenticated TCP plane
(wire). Every public name is imported from its module, as in
`from keyhop.protocol import run`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
