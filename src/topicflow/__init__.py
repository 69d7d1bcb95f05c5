"""Temporal flow networks of author mobility across research topics: import
each name from the module that defines it, such as ``topicflow.ingest``, as
every subcommand runs in a fresh interpreter that loads only what it needs."""
