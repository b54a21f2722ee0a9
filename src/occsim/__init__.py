"""Trainable stochastic occupant behavior simulator.

Clusters categorical time-use diaries, fits time-inhomogeneous Markov
chains per cluster and day type, and generates year-long household
schedules of occupancy, appliance power, and hot water draws at 15-minute
resolution.

The modules are the API: the package root exports nothing, and every check
outside the pipeline stages raises `occsim.conf.OccsimError`.
"""
