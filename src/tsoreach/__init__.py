"""Parameterized reachability for TSO programs with abstract data types."""
