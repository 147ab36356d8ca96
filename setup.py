"""Legacy setup shim (the environment's setuptools lacks bdist_wheel).

numpy is a required dependency: the columnar flat-store backend
(``store="flat"`` / ``REPRO_STORE=flat``), the vectorized shuffle and
the TPC-H generator all import it. The default ``tuple`` backend is the
pure-python one. The ``server`` extra pulls in uvicorn (and starlette
for client-side niceties); the serving tier itself (``repro.server``)
is a framework-free ASGI app with a stdlib HTTP bridge, so ``repro
serve`` works without the extra too.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.8.0",
    description=(
        "Random access and random-order enumeration for free-connex CQs "
        "and mc-UCQs (Carmeli et al., PODS 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        "server": ["uvicorn", "starlette"],
    },
)
