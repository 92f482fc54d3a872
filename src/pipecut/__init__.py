"""Automatic pipeline partitioning for large training graphs.

The pipeline runs in three phases: split a task graph into atomic
subcomponents, coarsen those into at most k memory-feasible blocks, then
assign contiguous block ranges to pipeline stages with a dynamic program
that balances stage times against device memory. A discrete-event replay
estimates iteration time for the winning plan.
"""
