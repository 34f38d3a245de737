"""Serialization, random catalogs, law registry, and command line tools."""
