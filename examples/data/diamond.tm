flow in out 15 high
