from hypothesis import settings

# No per-example deadline: the exact oracles' run time varies with the example
# and with the machine's load, and a deadline would make that a failure.
settings.register_profile("thinsieve", deadline=None)
settings.load_profile("thinsieve")
