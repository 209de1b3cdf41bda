"""Quadratic stochastic operators of bisexual populations.

Construction of evolution operators from graph, allele and weight data;
simulation of their discrete-time dynamics on products of simplexes; and
closed-form fixed-point and limit analysis for the two-type and four-type
case studies, cross-checked by brute-force iteration.
"""

__version__ = "0.1.0"
