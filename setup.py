from setuptools import setup

setup(
    # numpy backs the vectorized batch simulation backend
    # (repro.simulation.batch_ir / repro.simulation.lanes)
    install_requires=["numpy"],
)
