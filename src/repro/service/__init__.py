"""Translation-as-a-service: the resident daemon over the batch pipeline.

``repro.service`` turns the one-shot :func:`repro.pipeline.translate_many`
tool into a resident daemon (:class:`TranslationService`): a persistent
worker pool and one translation cache stay warm across requests,
admission control sheds overload with retry hints, a circuit breaker
fail-fasts targets that keep crashing workers, and the observability
registry is exported over a local HTTP health endpoint.

Run it from the CLI with ``python -m repro.service`` (see ``--help``),
or embed it::

    from repro.service import ServiceConfig, ServiceHandle

    with ServiceHandle(ServiceConfig(pool_workers=2)) as handle:
        results = handle.submit(jobs, client="me")
"""

from .admission import AdmissionController, ServiceSaturated
from .breaker import CircuitBreaker
from .client import ServiceClient, ServiceHandle
from .config import CONFIG_ENV, RELOADABLE, ServiceConfig
from .daemon import ServiceClosed, TranslationService
from .health import HealthServer
from .pool import ResidentPool

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "CONFIG_ENV",
    "HealthServer",
    "RELOADABLE",
    "ResidentPool",
    "ServiceClient",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceSaturated",
    "TranslationService",
]
